"""Tests for cell execution, grid orchestration, persistence, and plots."""

import json
import math
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from concurrent.futures import Future
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ofdmsim.channel import ChannelSpec, exponential_pdp
from ofdmsim.errors import ConfigError
from ofdmsim.framing import OfdmConfig
from ofdmsim.metrics import CSV_COLUMNS, BerRecord, make_record
from ofdmsim.sweep import (
    SweepFailure,
    SweepGrid,
    check_workers,
    emit_plot,
    read_records,
    run_cell,
    run_grid,
    write_records,
)
from ofdmsim.validate import RAW_MODEM
from reference import psk_error_moments, reference_cell

NOISELESS = 300.0

# a monkeypatched function reaches pool workers only when they are forked
FORK_ONLY = pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                               reason="needs fork-started pool workers")


def small_grid(**overrides) -> SweepGrid:
    params = dict(
        fft_sizes=(64, 128),
        cp_fractions=(Fraction(1, 4), Fraction(1, 16)),
        ebno_points_db=(0.0, 6.0, 12.0),
        channel=ChannelSpec(kind="awgn"),
        master_seed=424242,
        max_bits_per_cell=30_000,
        target_errors=40,
        bit_budget=3000,
    )
    params.update(overrides)
    return SweepGrid(**params)


class TestRunCell:
    def test_noiseless_awgn_has_no_errors(self):
        config = OfdmConfig(64, Fraction(1, 4), modulation_order=8, bit_budget=3000)
        record = run_cell(config, ChannelSpec(kind="awgn"), NOISELESS, 1, 0,
                          target_errors=1, max_bits=9000)
        assert record.bit_errors == 0
        assert record.ber == 0.0

    def test_noiseless_tdl_inside_prefix_has_no_errors(self):
        config = OfdmConfig(512, Fraction(1, 4), modulation_order=8, bit_budget=4000)
        spec = ChannelSpec(kind="tdl", taps=tuple(exponential_pdp(9, 1.0)))
        record = run_cell(config, spec, NOISELESS, 2, 0, target_errors=1, max_bits=8000)
        assert record.bit_errors == 0

    def test_missing_prefix_floors_the_error_rate(self):
        spec = ChannelSpec(kind="tdl", taps=tuple(exponential_pdp(9, 1.0)))
        bare = run_cell(OfdmConfig(64, Fraction(0), modulation_order=8, bit_budget=3000),
                        spec, 30.0, 3, 0, target_errors=300, max_bits=120_000)
        guarded = run_cell(OfdmConfig(64, Fraction(1, 4), modulation_order=8, bit_budget=3000),
                           spec, 30.0, 3, 1, target_errors=300, max_bits=120_000)
        assert bare.ber > 10 * guarded.ber

    def test_determinism(self):
        config = OfdmConfig(64, Fraction(1, 4), modulation_order=8, bit_budget=2000)
        spec = ChannelSpec(kind="flat")
        a = run_cell(config, spec, 8.0, 77, 5, target_errors=50, max_bits=20_000)
        b = run_cell(config, spec, 8.0, 77, 5, target_errors=50, max_bits=20_000)
        assert a == b

    def test_early_stop_bookkeeping(self):
        config = OfdmConfig(64, Fraction(1, 4), modulation_order=8, bit_budget=3000)
        record = run_cell(config, ChannelSpec(kind="awgn"), 0.0, 4, 0,
                          target_errors=10, max_bits=60_000)
        assert record.bit_errors >= 10 or record.bits_sent >= 60_000
        assert record.bits_sent % 3000 == 0  # whole repetitions of the bit budget
        assert record.ber == record.bit_errors / record.bits_sent

    def test_max_bits_is_respected_when_errors_are_rare(self):
        config = OfdmConfig(64, Fraction(1, 4), modulation_order=8, bit_budget=3000)
        record = run_cell(config, ChannelSpec(kind="awgn"), NOISELESS, 5, 0,
                          target_errors=100, max_bits=9000)
        assert record.bits_sent == 9000

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 20: the last repetition of a "
                       "capped 8-PSK cell is rounded up to 3 bits, so it sends 2 000 001")
    def test_a_default_capped_cell_stays_within_the_cap(self):
        grid = SweepGrid()
        config = OfdmConfig(64, Fraction(1, 4), modulation_order=grid.modulation_order,
                            bit_budget=grid.bit_budget)
        record = run_cell(config, grid.channel, 20.0, grid.master_seed, 0)
        assert record.bits_sent <= grid.max_bits_per_cell

    def test_no_equalizer_is_reported_and_hurts_fading(self):
        config = OfdmConfig(64, Fraction(1, 4), modulation_order=8, bit_budget=3000)
        spec = ChannelSpec(kind="flat")
        with_eq = run_cell(config, spec, 20.0, 6, 0, target_errors=200, max_bits=60_000)
        without = run_cell(config, spec, 20.0, 6, 0, target_errors=200, max_bits=60_000,
                           use_equalizer=False)
        assert without.channel == "flat/noeq"
        assert without.zf_clamps == 0
        assert without.ber > 5 * with_eq.ber  # uncorrected phase breaks coherent PSK

    def test_flat_fading_redraws_per_symbol(self):
        # with one gain per OFDM symbol, a deep fade cannot wipe a whole cell
        config = OfdmConfig(64, Fraction(1, 4), modulation_order=8, bit_budget=6000)
        record = run_cell(config, ChannelSpec(kind="flat"), 25.0, 8, 0,
                          target_errors=50, max_bits=48_000)
        assert 0.0 <= record.ber < 0.1


def _conditional_ber_cases():
    """QPSK at 10 dB over every default (N, CP), flat and, where the prefix
    holds its 8-sample memory, 9-tap TDL; and QPSK and 8-PSK at N 64 and
    512, CP 1/4, 10 and 20 dB."""
    grid = SweepGrid()
    every = [(4, n, cp, kind, 10.0) for n in grid.fft_sizes for cp in grid.cp_fractions
             for kind in ("flat", "tdl") if kind == "flat" or n * cp >= 8]
    quarter = [(order, n, Fraction(1, 4), kind, ebno_db) for order in (4, 8) for n in (64, 512)
               for kind in ("flat", "tdl") for ebno_db in (10.0, 20.0)]
    cases = every + [case for case in quarter if case not in every]
    return [pytest.param(*case, id=f"{case[0]}psk-{case[1]}-{case[2]}-{case[3]}-{case[4]:g}")
            for case in cases]


class TestFadingConditionalBer:
    """A fading cell's errors against their exact expectation given the
    channel it drew.  With ZF and a CP at least the channel memory, a used
    subcarrier of gain H carries its PSK symbol at SNR |H|^2 / sigma^2, whose
    bit errors have the mean and second moment of
    ``reference.psk_error_moments``; so the noise alone spreads the count
    around the sum of the means, with the sum of the variances: the check
    holds the channel's luck fixed and tests the noise scaling (sigma^2 from
    the definition of Eb/N0, not from the simulator), the channel
    normalization, ZF and the decision under fading."""

    @staticmethod
    def _gains(kind: str, drawn: np.ndarray, fft_size: int, used: int) -> np.ndarray:
        """|H| of each of a repetition's ``used`` symbols, in slot order, from
        its drawn flat gains or delay-line taps."""
        frames = -(-used // fft_size)
        if kind == "flat":
            return np.repeat(np.abs(drawn), fft_size)[:used]
        return np.tile(np.abs(np.fft.fft(drawn, n=fft_size)), frames)[:used]

    @pytest.mark.parametrize("order,fft_size,cp,kind,ebno_db", _conditional_ber_cases())
    def test_errors_match_the_expectation_given_the_drawn_channel(self, monkeypatch, order,
                                                                   fft_size, cp, kind, ebno_db):
        import ofdmsim.sweep as sweep_mod

        drawn = []
        original = sweep_mod.realize_channel

        def capture(state, row, stream):
            original(state, row, stream)
            # the row is drawn over by the next chunk: keep a copy
            drawn.append((state.gains if kind == "flat" else state.taps)[row].copy())
            return state

        monkeypatch.setattr(sweep_mod, "realize_channel", capture)
        # whole repetitions of whole symbols, a fixed count: the error target is never reached
        budget = 1000 if order == 4 else 999
        bits = 300 * budget
        config = OfdmConfig(fft_size, cp, modulation_order=order, bit_budget=budget)
        spec = (ChannelSpec(kind="flat") if kind == "flat"
                else ChannelSpec(kind="tdl", taps=exponential_pdp(9, 1.0)))
        record = run_cell(config, spec, ebno_db, 31, fft_size + int(ebno_db),
                          target_errors=10**9, max_bits=bits)
        assert record.bits_sent == bits and record.zf_clamps == 0
        # a chunk's draws past the stop are discarded: keep each kept repetition's
        kept = drawn[:record.bits_sent // config.bit_budget]
        used = config.bit_budget // config.bits_per_symbol
        sigma2 = 1.0 / (config.bits_per_symbol * 10.0 ** (ebno_db / 10.0))  # unit symbol energy
        gains = np.concatenate([self._gains(kind, row, fft_size, used) for row in kept])
        mean, second = psk_error_moments(order, gains**2 / sigma2)
        expected, variance = mean.sum(), (second - mean**2).sum()
        z = (record.bit_errors - expected) / math.sqrt(variance)
        assert abs(z) <= 4.0, (record.bit_errors, expected, z)

    @pytest.mark.parametrize("order", [2, 4])
    def test_the_error_table_is_exact_where_q_is_known(self, order):
        # BPSK: Q(sqrt(2 g)) a symbol; QPSK: two bits of Q(sqrt(g)) each
        snr = np.geomspace(1e-3, 1e5, 4001)
        q = np.array([0.5 * math.erfc(math.sqrt(g * (2 if order == 2 else 1) / 2))
                      for g in snr.tolist()])
        mean, second = psk_error_moments(order, snr)
        exact = q if order == 2 else 2 * q
        exact_second = q if order == 2 else 2 * q + 2 * q**2
        known = exact > 1e-12
        assert known.sum() > 1000
        np.testing.assert_allclose(mean[known], exact[known], rtol=1e-3)
        np.testing.assert_allclose(second[known], exact_second[known], rtol=1e-3)
        assert np.all(mean[~known] <= 1e-11)


@st.composite
def cells(draw):
    n_fft = draw(st.sampled_from([1, 64, 128, 256, 512]))  # N=1: the raw modem's shape
    cp = Fraction(0) if n_fft == 1 else draw(st.sampled_from(
        [Fraction(0), Fraction(1, 32), Fraction(1, 16), Fraction(1, 4), Fraction(1, 2)]))
    order = draw(st.sampled_from([2, 4, 8, 16]))
    budget = draw(st.integers(1, 4000).filter(lambda n: n % 3))
    config = OfdmConfig(n_fft, cp, modulation_order=order, bit_budget=budget)
    kind = draw(st.sampled_from(["awgn", "flat", "tdl"]))
    taps = None
    if kind == "tdl":
        taps = tuple(exponential_pdp(draw(st.integers(1, 12)), draw(st.floats(0.0, 6.0))))
    channel = ChannelSpec(kind=kind, taps=taps, account_cp_overhead=draw(st.booleans()))
    ebno_db = draw(st.one_of(st.floats(-2.0, 30.0), st.just(float("inf"))))
    target_errors = draw(st.one_of(st.just(1), st.integers(1, 400)))
    max_bits = draw(st.integers(1, 30 * max(budget, 4)))
    return config, channel, ebno_db, dict(target_errors=target_errors, max_bits=max_bits,
                                          use_equalizer=draw(st.booleans()))


class TestChunkedExecution:
    @given(cell=cells(), seed=st.integers(0, 2**64 - 1), cell_id=st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_matches_the_repetition_at_a_time_reference(self, cell, seed, cell_id):
        config, channel, ebno_db, stops = cell
        assert run_cell(config, channel, ebno_db, seed, cell_id, **stops) == reference_cell(
            config, channel, ebno_db, seed, cell_id, **stops
        )

    def test_later_draws_of_the_last_chunk_are_discarded(self, monkeypatch):
        import ofdmsim.sweep as sweep_mod

        drawn = []
        original = sweep_mod.draw_bits

        def counting(stream, count, **kwargs):
            drawn.append(count)
            return original(stream, count, **kwargs)

        monkeypatch.setattr(sweep_mod, "draw_bits", counting)
        config = OfdmConfig(64, Fraction(1, 4), modulation_order=8, bit_budget=1000)
        # with this seed the last chunk holds one repetition more than the
        # cell needs, so the stop falls inside it
        record = run_cell(config, ChannelSpec(kind="awgn"), 6.0, 3, 0, target_errors=200)
        reference = reference_cell(config, ChannelSpec(kind="awgn"), 6.0, 3, 0,
                                   target_errors=200, max_bits=2_000_000)
        assert record == reference
        assert sum(drawn) > record.bits_sent

    def test_clamps_count_only_the_repetitions_kept(self, monkeypatch):
        # zero flat-fading gains clamp every subcarrier of every repetition
        import ofdmsim.sweep as sweep_mod

        original = sweep_mod.realize_channel

        def dead_gains(state, row, stream):
            original(state, row, stream)
            state.gains[row] = 0.0
            return state

        monkeypatch.setattr(sweep_mod, "realize_channel", dead_gains)
        config = OfdmConfig(64, Fraction(1, 4), modulation_order=8, bit_budget=1000)
        frames = -(-333 // 64)
        for target in (1, 700, 1500, 2600, 9000):  # 1500 stops inside a chunk
            record = run_cell(config, ChannelSpec(kind="flat"), 10.0, 12, target,
                              target_errors=target)
            assert record.zf_clamps == (record.bits_sent // 999) * frames * 64

    def test_awgn_cells_take_no_channel_step(self, monkeypatch):
        # AWGN has no realization: the chain never draws, applies or
        # equalizes a channel, whether a chunk holds many repetitions or a
        # repetition runs in windows, and still gives the reference's record
        import ofdmsim.channel as channel_mod
        import ofdmsim.sweep as sweep_mod

        def no_channel_step(*args, **kwargs):
            raise AssertionError("an AWGN cell took a channel step")

        for name in ("realize_channel", "apply_channel"):
            monkeypatch.setattr(sweep_mod, name, no_channel_step)
        monkeypatch.setattr(channel_mod, "channel_freq_response", no_channel_step)
        awgn = ChannelSpec(kind="awgn")
        chunked = OfdmConfig(64, Fraction(1, 4), modulation_order=8, bit_budget=1000)
        windowed = OfdmConfig(64, Fraction(1, 32), modulation_order=8, bit_budget=60_000)
        for config, ebno_db, stops in [
            (chunked, 6.0, dict(target_errors=200, max_bits=2_000_000)),
            (chunked, float("inf"), dict(target_errors=1, max_bits=40_000)),
            (windowed, 14.0, dict(target_errors=10**6, max_bits=150_000)),
            (windowed, float("inf"), dict(target_errors=1, max_bits=150_000)),
        ]:
            record = run_cell(config, awgn, ebno_db, 3, 0, **stops)
            assert record == reference_cell(config, awgn, ebno_db, 3, 0, **stops)
        assert record.bit_errors == 0 and record.bits_sent == 150_000  # noiseless identity

    @staticmethod
    def _clamp_alternate_repetitions(monkeypatch, clamp):
        """Make ``clamp(row)`` act on every other channel draw of each cell,
        starting with its first, in the row of the channel state it was drawn
        into; returns each cell's draws, by stream, in the order the cells
        first draw, and the stream of the last draw into each (state, row)."""
        import ofdmsim.sweep as sweep_mod

        original = sweep_mod.realize_channel
        drawn, owner = {}, {}

        def alternate(state, row, stream):
            original(state, row, stream)
            values = (state.gains if state.kind == "flat" else state.taps)[row]
            mine = drawn.setdefault(id(stream), [])
            if len(mine) % 2 == 0:
                clamp(values)
            mine.append(values.copy())
            owner[id(state), row] = id(stream)
            return state

        monkeypatch.setattr(sweep_mod, "realize_channel", alternate)
        return drawn, owner

    def _assert_clamps_stay_with_their_repetitions(self, monkeypatch, drawn, owner, channel,
                                                   cells, group, per_rep):
        # the chunk's response mixes clamped and clean rows, and each stop
        # discards at least one clamped repetition of its chunk
        import ofdmsim.sweep as sweep_mod

        config = OfdmConfig(64, Fraction(1, 4), modulation_order=8, bit_budget=1000)

        def check(record, draws):
            kept = record.bits_sent // 999
            assert kept % 2 == 0 and len(draws) > kept  # the stop falls inside a chunk
            assert record.zf_clamps == (kept // 2) * per_rep

        for cell_id, target in cells:
            drawn.clear()
            record = run_cell(config, channel, 10.0, 12, cell_id, target_errors=target)
            check(record, *drawn.values())

        # the same in lockstep, where one chain call stacks rows of every cell
        target, cell_ids = group
        original = sweep_mod._run_chain_once
        stacked = []

        def chain(work, k, window, used):
            stacked.append({owner[id(work.channel), row] for row in range(k)})
            return original(work, k, window, used)

        monkeypatch.setattr(sweep_mod, "_run_chain_once", chain)
        drawn.clear()
        records = sweep_mod._run_group(config, channel, [(cell_id, 10.0) for cell_id in cell_ids],
                                       12, target_errors=target, max_bits=2_000_000,
                                       use_equalizer=True)
        assert max(len(owners) for owners in stacked) == len(cell_ids)
        for record, draws in zip(records, drawn.values()):
            check(record, draws)
        for cell_id, record in zip(cell_ids, records):
            drawn.clear()  # a freed stream's id may come again
            assert record == run_cell(config, channel, 10.0, 12, cell_id, target_errors=target)

    def test_flat_clamps_of_alternate_repetitions_stay_with_their_rows(self, monkeypatch):
        # the last OFDM symbol's gain is zero in every other repetition: 64
        # clamped subcarriers there, none in the others
        def dead_last_symbol(gains):
            gains[-1] = 0.0

        drawn, owner = self._clamp_alternate_repetitions(monkeypatch, dead_last_symbol)
        self._assert_clamps_stay_with_their_repetitions(
            monkeypatch, drawn, owner, ChannelSpec(kind="flat"), [(3, 400), (6, 1200)],
            group=(1200, [2, 6, 10]), per_rep=64)

    def test_tdl_spectral_null_clamps_stay_with_their_rows(self, monkeypatch):
        # equal taps [a, a] give exactly H[N/2] = 0: one clamped subcarrier in
        # each of the 6 OFDM symbols of every other repetition
        def null_at_half_band(taps):
            taps[1] = taps[0]

        drawn, owner = self._clamp_alternate_repetitions(monkeypatch, null_at_half_band)
        self._assert_clamps_stay_with_their_repetitions(
            monkeypatch, drawn, owner, ChannelSpec(kind="tdl", taps=(0.5, 0.5)),
            [(4, 1600), (6, 400)], group=(1600, [2, 3, 4]), per_rep=6)


@st.composite
def groups(draw):
    """One config's group of cells, its stops, and a window size: the default,
    or one small enough that repetitions of these budgets span several windows."""
    n_fft = draw(st.sampled_from([1, 64, 128, 256, 512]))
    cp = Fraction(0) if n_fft == 1 else draw(st.sampled_from(
        [Fraction(0), Fraction(1, 32), Fraction(1, 16), Fraction(1, 4), Fraction(1, 2)]))
    order = draw(st.sampled_from([2, 4, 8, 16]))
    config = OfdmConfig(n_fft, cp, modulation_order=order, bit_budget=draw(st.integers(2, 4000)))
    kind = draw(st.sampled_from(["awgn", "flat", "tdl"]))
    taps = None
    if kind == "tdl":
        taps = tuple(exponential_pdp(draw(st.integers(1, 12)), draw(st.floats(0.0, 6.0))))
    channel = ChannelSpec(kind=kind, taps=taps)
    points = draw(st.lists(st.one_of(st.floats(-2.0, 30.0), st.just(float("inf"))),
                           min_size=1, max_size=11, unique=True))
    b = config.bits_per_symbol
    rep = max(b, config.bit_budget // b * b)  # a repetition's bits, below the cap
    # a cap that is not a multiple of the repetition: the last ones are shorter
    max_bits = draw(st.integers(0, 12)) * rep + draw(st.integers(1, rep - 1))
    # a target no cell reaches runs every cell to the cap, noiseless ones too
    stops = dict(target_errors=draw(st.one_of(st.integers(1, 400), st.just(2**62))),
                 max_bits=max_bits, use_equalizer=draw(st.booleans()))
    window = draw(st.sampled_from([None, 2_000, 300]))
    return config, channel, points, stops, window


class TestLockstepGroups:
    @given(group=groups(), seed=st.integers(0, 2**64 - 1), first_id=st.integers(0, 10_000))
    @settings(max_examples=200, deadline=None)
    def test_a_group_gives_each_cell_its_run_cell_record(self, group, seed, first_id):
        import ofdmsim.sweep as sweep_mod

        config, channel, points, stops, window = group
        cells = [(first_id + i, ebno_db) for i, ebno_db in enumerate(points)]
        with mock.patch.object(sweep_mod, "_CHUNK_SAMPLES", window or sweep_mod._CHUNK_SAMPLES):
            records = sweep_mod._run_group(config, channel, cells, seed, **stops)
            assert records == [run_cell(config, channel, ebno_db, seed, cell_id, **stops)
                               for cell_id, ebno_db in cells]

    def test_cells_reach_the_cap_in_different_rounds(self, monkeypatch):
        # a cell slowed by its errors is still sending whole repetitions when
        # another sends its last, shorter one: one round runs both sizes
        import ofdmsim.sweep as sweep_mod

        sizes, rounds = sweep_mod._repetition_bits, []
        run_rows, last = sweep_mod._run_rows, ["rows"]

        def size(config, remaining):  # a round sizes every live cell, then runs its rows
            if last[0] == "rows":
                rounds.append(set())
            last[0] = "size"
            n_bits = sizes(config, remaining)
            rounds[-1].add(n_bits)
            return n_bits

        def rows(*args):
            last[0] = "rows"
            return run_rows(*args)

        monkeypatch.setattr(sweep_mod, "_repetition_bits", size)
        monkeypatch.setattr(sweep_mod, "_run_rows", rows)
        config = OfdmConfig(64, Fraction(1, 4), modulation_order=8, bit_budget=1000)
        cells = [(cell_id, float(2 * cell_id)) for cell_id in range(11)]
        stops = dict(target_errors=100, max_bits=12_345, use_equalizer=True)
        flat = ChannelSpec(kind="flat")
        records = sweep_mod._run_group(config, flat, cells, 0, **stops)
        assert any(len(round_sizes) > 1 for round_sizes in rounds)
        assert records == [run_cell(config, flat, ebno_db, 0, cell_id, **stops)
                           for cell_id, ebno_db in cells]

    @pytest.mark.parametrize("n_fft,seed", [(512, 0), (64, 1)])
    def test_a_cells_rows_may_span_two_batches_of_a_round(self, monkeypatch, n_fft, seed):
        # the default flat group: a stack longer than a window's capacity
        # runs in batches, and a cell whose rows a batch boundary splits may
        # stop in the first batch, so that its rows in the next are discarded
        import ofdmsim.sweep as sweep_mod

        sizes, run_rows = sweep_mod._repetition_bits, sweep_mod._run_rows
        rounds: list[list[list]] = []  # each round's batches, each the cells of its rows

        def size(config, remaining):  # a round sizes every live cell, then runs its rows
            if not rounds or rounds[-1]:
                rounds.append([])
            return sizes(config, remaining)

        def rows(work, cells):
            rounds[-1].append(list(cells))
            return run_rows(work, cells)

        monkeypatch.setattr(sweep_mod, "_repetition_bits", size)
        monkeypatch.setattr(sweep_mod, "_run_rows", rows)
        grid = SweepGrid(fft_sizes=(n_fft,), cp_fractions=(Fraction(1, 4),),
                         channel=ChannelSpec(kind="flat"), master_seed=seed)
        cells = list(grid.cells())
        _, config, flat, _ = cells[0]
        stops = dict(target_errors=100, max_bits=2_000_000, use_equalizer=True)
        points = [(cell_id, ebno_db) for cell_id, _, _, ebno_db in cells]
        records = sweep_mod._run_group(config, flat, points, seed, **stops)
        assert any(first[-1] is second[0]
                   for batches in rounds for first, second in zip(batches, batches[1:]))
        monkeypatch.undo()
        assert records == [run_cell(config, flat, ebno_db, seed, cell_id, **stops)
                           for cell_id, ebno_db in points]


TDL_12 = ChannelSpec(kind="tdl", taps=exponential_pdp(12, 1.0))

# 8-PSK repetitions that share a chunk, and ones of two windows each that run alone
BUDGETS = pytest.mark.parametrize("budget", [999, 60_000], ids=["999", "long"])


class TestNoiselessRows:
    """A +inf cell takes the noise step every cell takes (zero-variance
    noise, which adds -0.0), so its rows go with a finite cell's."""

    @BUDGETS
    @pytest.mark.parametrize("channel", [ChannelSpec(kind="awgn"), ChannelSpec(kind="flat"),
                                         TDL_12], ids=["awgn", "flat", "tdl12"])
    def test_a_noiseless_cells_rows_go_with_a_finite_cells(self, monkeypatch, channel, budget):
        import ofdmsim.sweep as sweep_mod

        run_rows, calls = sweep_mod._run_rows, []  # (workspace, Eb/No points of its rows)

        def rows(work, cells):
            calls.append((work, {cell.ebno_db for cell in cells}))
            return run_rows(work, cells)

        monkeypatch.setattr(sweep_mod, "_run_rows", rows)
        # CP 1/4 covers the delay line's memory, so the noiseless cell errs nowhere
        config = OfdmConfig(64, Fraction(1, 4), modulation_order=8, bit_budget=budget)
        points = [(0, 14.0), (1, math.inf)]
        stops = dict(target_errors=10**6, max_bits=3 * budget, use_equalizer=True)
        records = sweep_mod._run_group(config, channel, points, 5, **stops)
        # one workspace per repetition size serves both cells' rows
        assert len({id(work) for work, _ in calls}) == 1
        assert set().union(*(ebnos for _, ebnos in calls)) == {14.0, math.inf}
        assert calls[0][0].long == (budget > 999)
        if budget > 999:  # a long repetition runs alone, a row per call
            assert all(len(ebnos) == 1 for _, ebnos in calls)
        else:  # and a short one shares the call
            assert any(ebnos == {14.0, math.inf} for _, ebnos in calls)
        monkeypatch.undo()
        assert records == [reference_cell(config, channel, ebno_db, 5, cell_id, **stops)
                           for cell_id, ebno_db in points]
        assert records[1].bit_errors == 0


CHAIN_STEPS = ("pack_labels", "map_psk", "unitary_idft", "count_psk_errors")


class TestCertifiedDecisions:
    """An AWGN window whose transformed noise stays inside the decision
    disk (``psk.noise_keeps_decisions``) counts 0 errors without the rest
    of its chain; a fading window always runs the chain, and the reference
    always decides."""

    @staticmethod
    def spy(monkeypatch):
        """Record, per window the chain takes: its (k, frames, N) block, the
        shapes it asked the certificate about, the answers, the chain steps
        it called and the Eb/No points of its rows."""
        import ofdmsim.sweep as sweep_mod

        windows = []
        run_rows, chain = sweep_mod._run_rows, sweep_mod._run_chain_once
        certify = sweep_mod.noise_keeps_decisions

        def rows(work, cells):
            rows.ebnos = {cell.ebno_db for cell in cells}
            return run_rows(work, cells)

        def window(work, k, span, used):
            windows.append(dict(block=(k, span.stop - span.start, work.config.fft_size),
                                asked=[], answers=[], steps=set(), ebnos=rows.ebnos))
            return chain(work, k, span, used)

        def certified(noise, order):
            answer = certify(noise, order)
            windows[-1]["asked"].append(np.shape(noise))
            windows[-1]["answers"].append(answer)
            return answer

        def step(name):
            original = getattr(sweep_mod, name)

            def called(*args, **kwargs):
                windows[-1]["steps"].add(name)
                return original(*args, **kwargs)
            return called

        monkeypatch.setattr(sweep_mod, "_run_rows", rows)
        monkeypatch.setattr(sweep_mod, "_run_chain_once", window)
        monkeypatch.setattr(sweep_mod, "noise_keeps_decisions", certified)
        for name in CHAIN_STEPS:
            monkeypatch.setattr(sweep_mod, name, step(name))
        return windows

    @BUDGETS
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("channel", [ChannelSpec(kind="awgn"), ChannelSpec(kind="flat")],
                             ids=["awgn", "flat"])
    def test_records_match_the_reference(self, monkeypatch, channel, budget, workers):
        windows = self.spy(monkeypatch)
        points = (0.0, 20.0, math.inf)
        grid = SweepGrid(fft_sizes=(64,), cp_fractions=(Fraction(1, 4),), ebno_points_db=points,
                         channel=channel, master_seed=5, max_bits_per_cell=3 * budget,
                         target_errors=10**6, bit_budget=budget)
        records = run_grid(grid, workers=workers)
        if workers == 1:  # the cells ran one at a time, in this process
            assert windows
            for seen in windows:
                if channel.kind == "awgn":
                    # an AWGN window asks once, on its whole (k, frames, N) block,
                    # and a certified one calls none of the chain's steps
                    assert seen["asked"] == [seen["block"]]
                    assert seen["steps"] == (set() if seen["answers"][0] else set(CHAIN_STEPS))
                else:  # a flat one never asks
                    assert seen["asked"] == [] and seen["steps"] == set(CHAIN_STEPS)
            # at 0 dB every window decides; at 20 dB and +inf only fading ones do
            decided = set().union(*(seen["ebnos"] for seen in windows if seen["steps"]))
            assert decided == ({0.0} if channel.kind == "awgn" else set(points))
        monkeypatch.undo()
        stops = dict(target_errors=10**6, max_bits=3 * budget, use_equalizer=True)
        assert records == [reference_cell(config, channel, ebno_db, 5, cell_id, **stops)
                           for cell_id, config, _, ebno_db in grid.cells()]
        assert records[0].bit_errors > 0 and records[2].bit_errors == 0

    # the order, repetitions of 999-ish bits in chunks or of 60 000 bits
    # window by window, and an Eb/No at which some windows are certified
    # and some are not
    @pytest.mark.parametrize("order,budget,reps,straddle", [
        (2, 999, 30, 8.0), (2, 60_000, 3, 10.0), (256, 1000, 30, 37.0), (256, 60_000, 3, 39.0)],
        ids=["2-999", "2-long", "256-1000", "256-long"])
    def test_extreme_orders_match_the_reference(self, monkeypatch, order, budget, reps,
                                                straddle):
        windows = self.spy(monkeypatch)
        points = (20.0, straddle, math.inf)
        grid = SweepGrid(fft_sizes=(64,), cp_fractions=(Fraction(1, 4),), ebno_points_db=points,
                         modulation_order=order, master_seed=7, max_bits_per_cell=reps * budget,
                         target_errors=10**6, bit_budget=budget)
        records = run_grid(grid, workers=1)
        answers = {point: {answer for seen in windows if seen["ebnos"] == {point}
                           for answer in seen["answers"]} for point in points}
        assert answers[straddle] == {True, False} and answers[math.inf] == {True}
        monkeypatch.undo()
        stops = dict(target_errors=10**6, max_bits=grid.max_bits_per_cell, use_equalizer=True)
        assert records == [reference_cell(config, grid.channel, ebno_db, 7, cell_id, **stops)
                           for cell_id, config, _, ebno_db in grid.cells()]


class TestWindowedExecution:
    """Repetitions longer than one window of ``_CHUNK_SAMPLES`` time-domain
    samples, which the hypothesis budgets above (at most 4 000 bits) never
    reach: they run window by window, and give the reference's records."""

    BUDGET = 60_000  # 8-PSK bits: 20 000 symbols

    @staticmethod
    def _windows(config) -> int:
        import ofdmsim.sweep as sweep_mod

        frames = -(-TestWindowedExecution.BUDGET // 3 // config.fft_size)
        window = sweep_mod._CHUNK_SAMPLES // (config.fft_size + config.cp_len)
        return -(-frames // window)

    # N=64, CP 1/32: 313 symbols in windows of 248, with the 12-tap delay
    # line's ISI spilling over the boundary; N=512, CP 1/16: 40 in windows of 30
    @pytest.mark.parametrize("fft_size,cp", [(64, Fraction(1, 32)), (512, Fraction(1, 16))])
    @pytest.mark.parametrize("channel", [ChannelSpec(kind="awgn"), ChannelSpec(kind="flat"),
                                         TDL_12], ids=["awgn", "flat", "tdl12"])
    @pytest.mark.parametrize("ebno_db", [14.0, float("inf")])
    @pytest.mark.parametrize("use_equalizer", [True, False], ids=["eq", "noeq"])
    def test_capped_cell_matches_the_reference(self, fft_size, cp, channel, ebno_db,
                                               use_equalizer):
        # two multi-window repetitions, then a 30 000-bit one of a single window
        config = OfdmConfig(fft_size, cp, modulation_order=8, bit_budget=self.BUDGET)
        assert self._windows(config) == 2
        stops = dict(target_errors=10**6, max_bits=150_000, use_equalizer=use_equalizer)
        record = run_cell(config, channel, ebno_db, 5, 1, **stops)
        assert record == reference_cell(config, channel, ebno_db, 5, 1, **stops)
        assert record.bits_sent == 150_000

    @pytest.mark.parametrize("fft_size,cp,channel,ebno_db,reps", [
        (64, Fraction(1, 32), ChannelSpec(kind="awgn"), 11.0, 4),
        (64, Fraction(1, 32), ChannelSpec(kind="flat"), 30.0, 3),
        (512, Fraction(1, 16), TDL_12, 30.0, 4),
    ], ids=["awgn", "flat", "tdl12"])
    @pytest.mark.parametrize("use_equalizer", [True, False], ids=["eq", "noeq"])
    def test_stop_on_target_after_long_repetitions(self, fft_size, cp, channel, ebno_db, reps,
                                                   use_equalizer):
        config = OfdmConfig(fft_size, cp, modulation_order=8, bit_budget=self.BUDGET)
        stops = dict(target_errors=60, max_bits=600_000, use_equalizer=use_equalizer)
        record = run_cell(config, channel, ebno_db, 5, 1, **stops)
        assert record == reference_cell(config, channel, ebno_db, 5, 1, **stops)
        if use_equalizer or channel.kind == "awgn":  # without ZF fading fails at once
            assert record.bits_sent == reps * self.BUDGET
            assert record.bit_errors >= 60

    # A long repetition's windows draw from the bits split off its stream,
    # and give the bits of one draw only if every window but the last holds
    # whole 4-bit words.  N = 1 windows of an odd number of symbols round
    # down to an even one (QPSK) or a multiple of 4 (BPSK); a 3-symbol BPSK
    # window grows to 4.  N = 2, CP 1/2 at the default size rounds its
    # 5 461-symbol window down to 5 460, for BPSK and 8-PSK alike.
    @pytest.mark.parametrize("fft_size,cp,order,window,budget", [
        (1, 0, 2, 1001, 5_000), (1, 0, 2, 3, 60), (1, 0, 4, 1001, 5_000), (1, 0, 4, 3, 60),
        (2, Fraction(1, 2), 2, None, 30_000), (2, Fraction(1, 2), 8, None, 90_000),
    ], ids=["n1-bpsk-1001", "n1-bpsk-3", "n1-qpsk-1001", "n1-qpsk-3", "n2-bpsk", "n2-8psk"])
    @pytest.mark.parametrize("channel", [ChannelSpec(kind="awgn"), ChannelSpec(kind="flat"),
                                         TDL_12], ids=["awgn", "flat", "tdl12"])
    def test_windows_hold_whole_bit_words(self, fft_size, cp, order, window, budget, channel):
        import ofdmsim.sweep as sweep_mod

        config = OfdmConfig(fft_size, cp, modulation_order=order, bit_budget=budget)
        # two long repetitions, then a shorter one
        stops = dict(target_errors=10**6, max_bits=2 * budget + budget // 3)
        with mock.patch.object(sweep_mod, "_CHUNK_SAMPLES", window or sweep_mod._CHUNK_SAMPLES):
            assert sweep_mod._Workspace(config, channel, budget, True).long
            record = run_cell(config, channel, 6.0, 5, 1, **stops)
        assert record == reference_cell(config, channel, 6.0, 5, 1, **stops)

    # the awgn_batch cell, validate's raw modem and a 256-PSK single carrier
    @pytest.mark.parametrize("config", [
        OfdmConfig(64, Fraction(1, 32), modulation_order=8, bit_budget=2_000_000),
        RAW_MODEM,
        OfdmConfig(1, 0, modulation_order=256, bit_budget=400_000),
    ], ids=["n64", "raw_modem", "n1-psk256"])
    def test_no_bit_draw_exceeds_a_window(self, monkeypatch, config):
        # bitsource draws all of a draw's raw outputs at once, a temporary of
        # one byte per bit, so a draw must be at most one window's bits
        import ofdmsim.sweep as sweep_mod

        drawn = []
        original = sweep_mod.draw_bits

        def counting(stream, count, **kwargs):
            drawn.append(count)
            return original(stream, count, **kwargs)

        monkeypatch.setattr(sweep_mod, "draw_bits", counting)
        record = run_cell(config, ChannelSpec(kind="awgn"), 20.0, 5, 1, target_errors=2**62,
                          max_bits=config.bit_budget)
        window = sweep_mod._CHUNK_SAMPLES // (config.fft_size + config.cp_len)
        assert max(drawn) <= window * config.fft_size * config.bits_per_symbol
        assert len(drawn) > 2 and sum(drawn) == record.bits_sent

    # An N=512 cell of one long repetition (and a 3-bit one), at 200 000 and
    # at 2 000 000 bits: its bits are drawn a window at a time, so its peak
    # memory may not grow with the repetition.  A window (31 symbols of 528
    # samples) and the chain's temporaries are the same size at both
    # budgets: about 0.8 MB of arrays.  The slack covers what else differs,
    # Python objects, the allocator's small blocks and the flat channel's
    # gains of each OFDM symbol (16 bytes a symbol, about 19 kB more at the
    # larger budget); at 64 KiB it is under a tenth of a window, so an array
    # that grew with the repetition, or the repetition's bits, fails.
    @pytest.mark.parametrize("channel", [ChannelSpec(kind="awgn"), ChannelSpec(kind="flat"),
                                         ChannelSpec(kind="tdl", taps=exponential_pdp(9, 1.0))],
                             ids=["awgn", "flat", "tdl9"])
    def test_peak_memory_does_not_grow_with_the_repetition(self, channel):
        slack = 64 * 1024

        def peak(budget):
            config = OfdmConfig(512, Fraction(1, 32), modulation_order=8, bit_budget=budget)
            cell = (config, channel, 20.0, 1, 0)
            run_cell(*cell, max_bits=budget)  # lookup tables and caches first
            tracemalloc.start()
            try:
                run_cell(*cell, max_bits=budget)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(2_000_000) - peak(200_000) <= slack


class TestRunGrid:
    def test_enumeration(self):
        records = run_grid(small_grid())
        assert len(records) == 12
        assert [r.cell_id for r in records] == list(range(12))

    def test_cell_ids_are_lexicographic(self):
        grid = small_grid()
        cells = list(grid.cells())
        assert [cell_id for cell_id, *_ in cells] == list(range(grid.n_cells))
        assert cells[0][1].fft_size == 64 and cells[0][3] == 0.0
        assert cells[1][3] == 6.0
        assert all(spec == grid.channel for _, _, spec, _ in cells)
        assert cells[-1][1].fft_size == 128
        assert cells[-1][1].cp_fraction == Fraction(1, 16)

    def test_worker_count_does_not_change_records(self):
        grid = small_grid()
        serial = run_grid(grid, workers=1)
        parallel = run_grid(grid, workers=3)
        assert serial == parallel

    def test_failures_keep_completed_cells(self, monkeypatch):
        self._check_one_cell_fails(monkeypatch, workers=1)

    @FORK_ONLY
    def test_failures_keep_completed_cells_on_the_pool(self, monkeypatch):
        self._check_one_cell_fails(monkeypatch, workers=2)

    @staticmethod
    def _check_one_cell_fails(monkeypatch, workers):
        # a cell's record is the last step of its run: on the pool the group
        # that holds the cell raises, and its cells then run one at a time
        import ofdmsim.sweep as sweep_mod

        original = sweep_mod.make_record

        def flaky(*args):
            if args[-1] == 1:  # the cell id
                raise RuntimeError("injected")
            return original(*args)

        monkeypatch.setattr(sweep_mod, "make_record", flaky)
        with pytest.raises(SweepFailure) as excinfo:
            run_grid(small_grid(), workers=workers)
        failure = excinfo.value
        assert failure.failures == [(1, "injected")]
        assert len(failure.records) == 11
        assert all(r.cell_id != 1 for r in failure.records)

    @FORK_ONLY
    def test_a_dead_worker_fails_its_cells_and_keeps_the_rest(self, monkeypatch):
        import ofdmsim.sweep as sweep_mod

        grid = small_grid()
        serial = run_grid(grid)
        original = sweep_mod.make_record
        last = grid.n_cells - 1

        def fatal(*args):
            if args[-1] == last:
                os._exit(1)  # the worker process dies; the pool breaks
            return original(*args)

        monkeypatch.setattr(sweep_mod, "make_record", fatal)
        with pytest.raises(SweepFailure) as excinfo:
            run_grid(grid, workers=2)
        failure = excinfo.value
        failed = [cid for cid, _ in failure.failures]
        assert last in failed
        assert failure.records  # cells that finished before the break are kept
        assert sorted(failed + [r.cell_id for r in failure.records]) == list(range(grid.n_cells))
        assert all(r == serial[r.cell_id] for r in failure.records)
        # the next call runs on a pool of its own
        monkeypatch.undo()
        assert run_grid(grid, workers=2) == serial

    @staticmethod
    def _inline_pool(monkeypatch):
        """Run pool tasks in this process; returns the worker counts asked for
        and each task's cell ids, in the order they were sent."""
        import concurrent.futures

        asked, sent = [], []

        class InlineExecutor:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, grid, task):
                sent.append([cell_id for cell_id, *_ in task])
                future = Future()
                future.set_result(fn(grid, task))
                return future

        # the sweep imports the pool class when it makes a pool
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
        return asked, sent

    def test_pool_never_exceeds_the_cell_count(self, monkeypatch):
        asked, sent = self._inline_pool(monkeypatch)
        two_cells = small_grid(fft_sizes=(64,), cp_fractions=(Fraction(1, 4),),
                               ebno_points_db=(0.0, 6.0))
        assert run_grid(two_cells, workers=8) == run_grid(two_cells)
        assert run_grid(small_grid(), workers=3) == run_grid(small_grid())
        assert asked == [2, 3]
        # one task per (N, CP) config, the longest first: (N+L) * frames of a
        # repetition is 1280 at CP 1/4 and 1088 at CP 1/16, for N 64 and 128
        assert sent[2:] == [[0, 1, 2], [6, 7, 8], [3, 4, 5], [9, 10, 11]]

    def test_fewer_configs_than_workers_deal_their_cells_into_more_groups(self, monkeypatch):
        asked, sent = self._inline_pool(monkeypatch)
        one_config = small_grid(fft_sizes=(64,), cp_fractions=(Fraction(1, 4),),
                                ebno_points_db=tuple(float(e) for e in range(0, 21, 2)))
        assert run_grid(one_config, workers=8) == run_grid(one_config)
        assert asked == [8]
        assert sent == [[0, 8], [1, 9], [2, 10], [3], [4], [5], [6], [7]]
        two_configs = small_grid(fft_sizes=(64,), ebno_points_db=(0.0, 6.0, 12.0))
        assert run_grid(two_configs, workers=3) == run_grid(two_configs)
        assert asked[1:] == [3] and sent[8:] == [[0, 2], [3, 5], [1], [4]]

    def test_no_worker_outlives_the_call(self):
        run_grid(small_grid(), workers=2)
        assert not multiprocessing.active_children()

    @pytest.mark.parametrize("workers", [2.0, True])
    def test_a_worker_count_must_be_an_integer(self, workers):
        with pytest.raises(TypeError, match="^workers: expected an integer, got "):
            check_workers(workers)
        with pytest.raises(TypeError, match="^workers: expected an integer, got "):
            run_grid(small_grid(), workers=workers)

    @pytest.mark.parametrize("workers", [0, -2])
    def test_a_worker_count_below_one_is_a_config_error(self, workers):
        with pytest.raises(ConfigError, match="workers must be >= 1"):
            run_grid(small_grid(), workers=workers)

    def test_a_numpy_worker_count_is_kept_as_an_int(self):
        count = check_workers(np.int64(2))
        assert type(count) is int and count == 2
        assert run_grid(small_grid(), workers=np.int64(2)) == run_grid(small_grid())

    def test_invalid_grid_combination_rejected_up_front(self):
        with pytest.raises(ValueError):
            small_grid(cp_fractions=(Fraction(1, 3),))

    @pytest.mark.parametrize("axis,values", [
        ("fft_sizes", (64, 128, 64)),
        ("cp_fractions", (Fraction(1, 4), Fraction(2, 8))),
        ("ebno_points_db", (0.0, 6.0, 0)),
    ])
    def test_repeated_axis_value_rejected(self, axis, values):
        with pytest.raises(ValueError, match=f"{axis} must not repeat"):
            small_grid(**{axis: values})

    @pytest.mark.parametrize("bad", [float("nan"), float("-inf")])
    def test_nan_and_minus_inf_ebno_rejected(self, bad):
        with pytest.raises(ValueError, match=f"^ebno_points_db must be within .*, got {bad}$"):
            small_grid(ebno_points_db=(6.0, bad))

    def test_plus_inf_ebno_is_the_noiseless_point(self):
        grid = small_grid(ebno_points_db=(float("inf"),), channel=ChannelSpec(kind="flat"))
        assert all(r.bit_errors == 0 for r in run_grid(grid))


def _fresh_interpreter(script: str, *argv: str) -> subprocess.CompletedProcess:
    """Run ``script`` in a new Python that imports this ofdmsim and nothing
    more, so that nothing the tests imported is loaded beforehand."""
    import ofdmsim

    env = dict(os.environ)
    src = str(Path(ofdmsim.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                          text=True, env=env, timeout=120)


# each worker writes the modules its first group imported to <dir>/<pid>.json
_REPORT_FIRST_GROUP_IMPORTS = """
import json, os, sys
from fractions import Fraction
import ofdmsim.sweep as sweep
from ofdmsim.channel import ChannelSpec, exponential_pdp

original = sweep._group_result

def reporting(grid, group):
    before = set(sys.modules)
    results = original(grid, group)
    path = os.path.join(sys.argv[1], f"{os.getpid()}.json")
    if not os.path.exists(path):
        with open(path, "w") as fh:
            json.dump(sorted(set(sys.modules) - before), fh)
    return results

sweep._group_result = reporting
grid = sweep.SweepGrid(fft_sizes=(64, 128), cp_fractions=(Fraction(1, 4), Fraction(1, 16)),
                       ebno_points_db=(0.0, 10.0), max_bits_per_cell=6000,
                       channel=ChannelSpec(kind="tdl", taps=exponential_pdp(9, 1.0)))
sweep.run_grid(grid, 2)
"""


class TestWarmWorkers:
    """Importing the package loads the numpy modules the chain uses, which
    numpy otherwise imports on first use, so pool workers forked from a
    process that has only imported ofdmsim start with them loaded."""

    def test_importing_the_sweep_loads_the_chains_numpy_modules(self):
        result = _fresh_interpreter(
            "import sys, ofdmsim.sweep; "
            "print(sorted(m for m in ('numpy.random', 'numpy.fft') if m in sys.modules))")
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["['numpy.fft',", "'numpy.random']"]

    def test_importing_the_cli_loads_no_pool_machinery(self):
        # a serial run never makes a pool, so it never loads one
        result = _fresh_interpreter(
            "import sys, ofdmsim.cli; "
            "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') "
            "if m in sys.modules))")
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["[]"]

    @FORK_ONLY
    def test_a_workers_first_group_imports_nothing(self, tmp_path):
        result = _fresh_interpreter(_REPORT_FIRST_GROUP_IMPORTS, str(tmp_path))
        assert result.returncode == 0, result.stderr
        reports = sorted(tmp_path.glob("*.json"))
        assert reports  # at least one worker ran a group
        assert {path.name: json.loads(path.read_text()) for path in reports} == {
            path.name: [] for path in reports}


class TestRawModem:
    """The single-carrier cell that ``ofdmsim validate`` uses as its raw modem."""

    def test_determinism_and_flooring(self):
        from ofdmsim.validate import check_awgn_theory

        rows, baselines = check_awgn_theory(5, bits_floor=10_001)
        assert rows == check_awgn_theory(5, bits_floor=10_001)[0]
        asked = [n_bits for _, n_bits in baselines.values()]
        assert any(n % 3 for n in asked)  # not always whole 8-PSK symbols ...
        sent = [int(row.detail.rsplit("bits=", 1)[1]) for row in rows]
        assert sent == [n // 3 * 3 for n in asked]  # ... but the sent bits are

    def test_roughly_matches_theory(self):
        from ofdmsim.metrics import theoretical_mpsk_ber

        record = run_cell(RAW_MODEM, ChannelSpec(kind="awgn"), 8.0, 6, 0,
                          target_errors=2**62, max_bits=399_999)
        assert record.bits_sent == 399_999
        theory = theoretical_mpsk_ber(8.0, 8)
        assert abs(record.ber - theory) / theory < 0.15


class TestPersistence:
    @pytest.fixture
    def records(self):
        return run_grid(small_grid())

    def test_csv_roundtrip(self, records, tmp_path):
        path = tmp_path / "records.csv"
        write_records(records, str(path))
        rows = read_records(str(path))
        assert rows == [r.row() for r in records]

    def test_json_roundtrip(self, records, tmp_path):
        path = tmp_path / "records.json"
        write_records(records, str(path), "json")
        rows = read_records(str(path))
        assert rows == [r.row() for r in records]

    def test_csv_header_and_fraction_format(self, records, tmp_path):
        path = tmp_path / "records.csv"
        write_records(records, str(path))
        text = path.read_text()
        assert text.splitlines()[0] == ",".join(CSV_COLUMNS)
        assert ",1/4," in text
        assert "0.25" not in text

    def test_empty_records(self, tmp_path):
        csv_path = tmp_path / "empty.csv"
        json_path = tmp_path / "empty.json"
        write_records([], str(csv_path))
        write_records([], str(json_path), "json")
        assert csv_path.read_text().strip() == ",".join(CSV_COLUMNS)
        assert read_records(str(json_path)) == []

    def test_unknown_format_rejected(self, records, tmp_path):
        with pytest.raises(ValueError):
            write_records(records, str(tmp_path / "x.bin"), "parquet")

    def test_unwritable_path_raises_io_error(self, records, tmp_path):
        from ofdmsim.errors import IoError

        with pytest.raises(IoError):
            write_records(records, str(tmp_path / "nope" / "x.csv"))


class TestPlots:
    def test_one_svg_per_fft_size(self, tmp_path):
        records = run_grid(small_grid())
        paths = emit_plot(records, str(tmp_path / "charts"))
        assert len(paths) == 2
        assert sorted(p.split("/")[-1] for p in paths) == [
            "ber_fft128.svg",
            "ber_fft64.svg",
        ]

    def test_svgs_are_well_formed_xml(self, tmp_path):
        records = run_grid(small_grid())
        for path in emit_plot(records, str(tmp_path)):
            root = ET.parse(path).getroot()
            assert root.tag.endswith("svg")

    def test_zero_error_cells_hit_the_floor_marker(self, tmp_path):
        grid = small_grid(ebno_points_db=(NOISELESS,), target_errors=1,
                          max_bits_per_cell=6000)
        records = run_grid(grid)
        assert all(r.bit_errors == 0 for r in records)
        paths = emit_plot(records, str(tmp_path))
        svg = Path(paths[0]).read_text()
        assert "<path" in svg  # distinct floor marker, no log(0) blowup

    def test_polyline_per_cp_fraction(self, tmp_path):
        records = run_grid(small_grid())
        path = emit_plot(records, str(tmp_path))[0]
        svg = Path(path).read_text()
        assert svg.count("<polyline") == 2

    def test_four_fft_sizes_give_four_files(self, tmp_path):
        from ofdmsim.metrics import make_record

        records = []
        for i, fft_size in enumerate((64, 128, 256, 512)):
            config = OfdmConfig(fft_size, Fraction(1, 4), modulation_order=8, bit_budget=1000)
            for j, ebno in enumerate((0.0, 10.0, 20.0)):
                records.append(
                    make_record(config, "awgn", ebno, 10_000, 50 >> j, 0, 1, 3 * i + j)
                )
        paths = emit_plot(records, str(tmp_path))
        assert len(paths) == 4

    def test_empty_records_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_plot([], str(tmp_path))

    def test_plus_inf_rows_are_left_out(self, tmp_path):
        # the noiseless point has no place on the Eb/No axis: the finite points
        # keep the whole width, and an FFT size with only +inf gets no chart
        def record(fft_size, ebno, cell_id):
            config = OfdmConfig(fft_size, Fraction(1, 4), modulation_order=8, bit_budget=1000)
            return make_record(config, "awgn", ebno, 10_000, 0 if ebno > 6 else 40, 0, 1, cell_id)

        finite = [record(64, 0.0, 0), record(64, 6.0, 1)]
        noiseless = [record(64, float("inf"), 2), record(128, float("inf"), 3)]
        paths = emit_plot(finite + noiseless, str(tmp_path / "all"))
        assert [os.path.basename(p) for p in paths] == ["ber_fft64.svg"]
        svg = Path(paths[0]).read_text()
        assert "nan" not in svg and "inf" not in svg
        assert svg == Path(emit_plot(finite, str(tmp_path / "finite"))[0]).read_text()
        assert emit_plot(noiseless[1:], str(tmp_path / "none")) == []

    def test_plot_from_reread_rows(self, tmp_path):
        records = run_grid(small_grid())
        csv_path = tmp_path / "r.csv"
        write_records(records, str(csv_path))
        rows = read_records(str(csv_path))
        paths = emit_plot([BerRecord(**row) for row in rows], str(tmp_path / "again"))
        assert len(paths) == 2
        for path, swept in zip(paths, emit_plot(records, str(tmp_path / "swept"))):
            assert Path(path).read_bytes() == Path(swept).read_bytes()
