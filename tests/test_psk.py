"""Tests for PSK mapping, demapping, and the Gray-labelled constellation."""

import math
import tracemalloc
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ofdmsim.channel import ChannelSpec
from ofdmsim.errors import LengthError, OrderError
from ofdmsim.framing import OfdmConfig
from ofdmsim.metrics import count_bit_errors, theoretical_mpsk_ber
from ofdmsim.psk import (_decide, _gray_labels, bits_per_symbol, count_psk_errors, demap_psk,
                         map_psk, noise_keeps_decisions, pack_labels)
from ofdmsim.transform import unitary_dft, unitary_idft

ORDERS = [2, 4, 8, 16]
ALL_ORDERS = [2**b for b in range(1, 9)]  # 2..256


def map_bits(bits, order: int, out=None) -> np.ndarray:
    """map_psk of the labels ``bits`` pack into."""
    return map_psk(pack_labels(bits, order), order, out=out)


def bits_for(order: int, n_symbols: int, seed: int) -> np.ndarray:
    b = order.bit_length() - 1
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=n_symbols * b, dtype=np.uint8)


class TestBitsPerSymbol:
    def test_log2_of_the_order(self):
        assert [bits_per_symbol(m) for m in (2, 4, 8, 16, 256)] == [1, 2, 3, 4, 8]

    # above 256 the labels no longer fit in a byte
    @pytest.mark.parametrize("order", [-4, 0, 1, 3, 6, 512])
    def test_every_user_rejects_an_invalid_order(self, order):
        # the one check behind the config, the mapper, the receiver and the theory curve
        for call in (
            lambda: bits_per_symbol(order),
            lambda: OfdmConfig(64, 0, modulation_order=order, bit_budget=1000),
            lambda: pack_labels(np.zeros(24, dtype=np.uint8), order),
            lambda: map_psk(np.zeros(8, dtype=np.uint8), order),
            lambda: demap_psk(np.ones(4, dtype=complex), order),
            lambda: count_psk_errors(np.ones(4, dtype=complex), np.zeros(4, np.uint8), order),
            lambda: noise_keeps_decisions(np.zeros(4, dtype=complex), order),
            lambda: theoretical_mpsk_ber(10.0, order),
        ):
            with pytest.raises(OrderError):
                call()


def symbols_by_label(order: int) -> np.ndarray:
    """map_psk's symbol for each label 0..order-1."""
    b = bits_per_symbol(order)
    groups = (np.arange(order)[:, None] >> np.arange(b - 1, -1, -1)) & 1
    return map_bits(groups.astype(np.uint8), order).ravel()


def positions_by_label(order: int) -> np.ndarray:
    """Angular position p (phase 2*pi*p/order) of each label's symbol."""
    turns = np.angle(symbols_by_label(order)) / (2 * np.pi / order)
    return np.rint(turns).astype(int) % order


class TestConstellation:
    @pytest.mark.parametrize("order", ORDERS)
    def test_unit_magnitude(self, order):
        np.testing.assert_allclose(np.abs(symbols_by_label(order)), 1.0, atol=1e-12)

    @pytest.mark.parametrize("order", ORDERS)
    def test_angular_spacing(self, order):
        # every symbol sits on a multiple of 2*pi/order, label 0 at phase 0
        positions = positions_by_label(order)
        np.testing.assert_allclose(symbols_by_label(order),
                                   np.exp(2j * np.pi * positions / order), atol=1e-12)
        assert positions[0] == 0

    @pytest.mark.parametrize("order", ORDERS)
    def test_labels_are_a_bijection(self, order):
        assert sorted(positions_by_label(order)) == list(range(order))

    @pytest.mark.parametrize("order", ORDERS)
    def test_gray_adjacency(self, order):
        # angular neighbours (including the wrap) differ in exactly one bit
        label_at = np.argsort(positions_by_label(order))
        for p in range(order):
            diff = label_at[p] ^ label_at[(p + 1) % order]
            assert bin(int(diff)).count("1") == 1

    def test_bad_orders_rejected(self):
        for order in (0, 1, 3, 6, 12):
            with pytest.raises(OrderError):
                map_psk(np.zeros(12, dtype=np.uint8), order)


class TestMapPsk:
    def test_all_zero_group_is_reference_phase(self):
        np.testing.assert_allclose(map_bits([0, 0, 0], 8), [1.0 + 0.0j], atol=1e-12)

    def test_group_001_is_45_degrees(self):
        expected = np.exp(1j * np.pi / 4)
        np.testing.assert_allclose(map_bits([0, 0, 1], 8), [expected], atol=1e-12)

    def test_all_groups_cover_the_circle(self):
        bits = np.array([(g >> s) & 1 for g in range(8) for s in (2, 1, 0)])
        symbols = map_bits(bits, 8)
        phases = np.sort(np.mod(np.angle(symbols), 2 * np.pi))
        np.testing.assert_allclose(phases, np.arange(8) * np.pi / 4, atol=1e-12)
        assert len(np.unique(np.round(symbols, 9))) == 8

    def test_length_not_divisible_rejected(self):
        with pytest.raises(LengthError):
            map_bits([0, 1], 8)

    def test_bad_order_rejected(self):
        with pytest.raises(OrderError):
            map_bits([0, 1, 0], 6)

    def test_mean_energy_is_one(self):
        bits = bits_for(8, 4096, seed=3)
        energy = np.mean(np.abs(map_bits(bits, 8)) ** 2)
        assert abs(energy - 1.0) < 1e-12


class TestDemapPsk:
    def test_sector_interior_decodes_to_reference(self):
        # 20 degrees sits inside the reference sector (-22.5 .. +22.5)
        symbol = np.exp(1j * np.deg2rad(20.0))
        np.testing.assert_array_equal(demap_psk([symbol], 8), [0, 0, 0])

    def test_amplitude_invariance(self):
        symbol = np.exp(1j * np.deg2rad(44.0))
        np.testing.assert_array_equal(
            demap_psk([0.3 * symbol], 8), demap_psk([symbol], 8)
        )

    def test_sector_boundary_resolves_to_lower_index(self):
        # boundaries that are exactly representable: atan2 yields precisely
        # pi/2 (M=2) and pi/4 (M=4), so the decision sits exactly on the tie
        np.testing.assert_array_equal(demap_psk([1j], 2), [0])
        np.testing.assert_array_equal(demap_psk([1.0 + 1.0j], 4), [0, 0])

    def test_near_boundary_sides(self):
        width = 2 * np.pi / 8
        just_below = np.exp(1j * np.nextafter(width / 2, 0.0))
        just_above = np.exp(1j * np.nextafter(width / 2, np.pi))
        np.testing.assert_array_equal(demap_psk([just_below], 8), [0, 0, 0])
        np.testing.assert_array_equal(demap_psk([just_above], 8), [0, 0, 1])

    def test_zero_symbol_decodes_deterministically(self):
        np.testing.assert_array_equal(demap_psk([0.0 + 0.0j], 8), [0, 0, 0])
        np.testing.assert_array_equal(demap_psk([1e-310 + 0.0j], 8), [0, 0, 0])

    @pytest.mark.parametrize("order", ORDERS)
    def test_roundtrip_fixed(self, order):
        bits = bits_for(order, 512, seed=11)
        np.testing.assert_array_equal(demap_psk(map_bits(bits, order), order), bits)


class TestBlocks:
    def test_map_keeps_leading_axes(self):
        bits = bits_for(8, 40, seed=14).reshape(4, 30)
        symbols = map_bits(bits, 8)
        assert symbols.shape == (4, 10)
        for row_bits, row in zip(bits, symbols):
            np.testing.assert_array_equal(map_bits(row_bits, 8), row)

    @pytest.mark.parametrize("shape", [(2, 3), (3, 2)])
    def test_demap_reads_a_block_in_c_order(self, shape):
        bits = bits_for(8, 6, seed=18)
        block = map_bits(bits, 8).reshape(shape)
        np.testing.assert_array_equal(demap_psk(block, 8), bits)  # the block's C-order ravel

    def test_map_into_out(self):
        bits = bits_for(8, 20, seed=15).reshape(2, 30)
        buffer = np.zeros((2, 16), dtype=complex)
        map_bits(bits, 8, out=buffer[:, :10])
        np.testing.assert_array_equal(buffer[:, :10], map_bits(bits, 8))
        np.testing.assert_array_equal(buffer[:, 10:], 0)


class TestDecision:
    @pytest.mark.parametrize("order", ORDERS + [256])
    def test_one_read_only_gray_table(self, order):
        table = _gray_labels(order)
        assert table is _gray_labels(order)
        assert table.dtype == np.uint8 and not table.flags.writeable
        positions = np.arange(order)
        np.testing.assert_array_equal(table, positions ^ (positions >> 1))

    @pytest.mark.parametrize("order", ORDERS + [256])
    def test_decides_the_label_sent_and_keeps_the_shape(self, order):
        labels = np.random.default_rng(19).integers(0, order, size=(3, 40)).astype(np.uint8)
        decided = _decide(map_psk(labels, order), order)
        assert decided.dtype == np.uint8
        np.testing.assert_array_equal(decided, labels)

    @pytest.mark.parametrize("order", [4, 8, 16])
    def test_errors_nest_along_the_noise_ray(self, order):
        # a decision sector is a convex cone around its point, so once s + n
        # has left it, s + a*n stays outside for every a > 1
        rng = np.random.default_rng(order)
        labels = rng.integers(0, order, size=200_000).astype(np.uint8)
        symbols = map_psk(labels, order)
        noise = 0.25 * (rng.standard_normal(labels.size) + 1j * rng.standard_normal(labels.size))
        wrong = _decide(symbols + noise, order) != labels
        assert wrong.any() and not wrong.all()
        for a in (1.25, 2.0, 8.0, 100.0):
            farther = _decide(symbols + a * noise, order) != labels
            assert not (wrong & ~farther).any()
            wrong = farther


class TestCountPskErrors:
    def test_sums_over_the_last_axis(self):
        rng = np.random.default_rng(16)
        bits = bits_for(8, 60, seed=17).reshape(3, 60)
        symbols = map_bits(bits, 8) + 0.4 * (rng.standard_normal((3, 20))
                                            + 1j * rng.standard_normal((3, 20)))
        counts = count_psk_errors(symbols, pack_labels(bits, 8), 8)
        assert counts.shape == (3,)
        for row_symbols, row_bits, count in zip(symbols, bits, counts):
            assert count == count_bit_errors(row_bits, demap_psk(row_symbols, 8))[0]

    def test_ties_and_zero_follow_the_demapper(self):
        for order, symbols in ((2, [1j, 0.0]), (4, [1.0 + 1.0j, 0.0, -1e-310j])):
            b = order.bit_length() - 1
            for label in range(order):
                sent = np.array([(label >> s) & 1 for s in range(b - 1, -1, -1)] * len(symbols))
                labels = pack_labels(sent, order)
                assert count_psk_errors(symbols, labels, order) == count_bit_errors(
                    sent, demap_psk(symbols, order))[0]

    def test_length_mismatch_rejected(self):
        with pytest.raises(LengthError):
            count_psk_errors([1.0 + 0.0j], [0, 0], 8)


def certificate_radius(order: int) -> float:
    """The certified noise radius: sin a - 1e-9 with a = (pi/M)(1 - 1e-9)."""
    return math.sin(math.pi / order * (1 - 1e-9)) - 1e-9


def certified_one_by_one(noise, order: int) -> np.ndarray:
    """noise_keeps_decisions of each value on its own; any warning fails."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return np.array([noise_keeps_decisions(np.array([w]), order) for w in noise], dtype=bool)


#: Every direction of the plane: 256 steps of a turn, the axes among them.
DIRECTIONS = np.exp(2j * np.pi * np.arange(256) / 256)


class TestNoiseCertificate:
    """The certificate an AWGN window takes in place of its chain: whenever
    its transformed noise holds, the chain decides every symbol as sent,
    so every count is 0."""

    @pytest.mark.parametrize("order", ALL_ORDERS)
    def test_zero_noise_certifies(self, order):
        zeros = np.array([0.0, -0.0, complex(-0.0, 0.0), complex(0.0, -0.0), -0j])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert noise_keeps_decisions(zeros, order)
            assert noise_keeps_decisions(np.zeros((2, 3, 4)), order)  # any shape, real too
            assert noise_keeps_decisions(np.zeros((0,), complex), order)

    @pytest.mark.parametrize("order", ALL_ORDERS)
    def test_the_radius_holds_in_every_direction(self, order):
        r = certificate_radius(order)
        inside = r * (1 - 1e-12) * DIRECTIONS
        assert noise_keeps_decisions(inside, order)
        assert certified_one_by_one(inside, order).all()
        # the sector's own half-width reach, and the margin without the slack
        for radius in (math.sin(math.pi / order), r + 0.5e-9):
            assert not certified_one_by_one(radius * DIRECTIONS, order).any()

    @pytest.mark.parametrize("order", ALL_ORDERS)
    def test_nan_inf_overflow_and_subnormal_noise(self, order):
        big = np.finfo(float).max
        never = [np.nan, complex(np.nan, 0.0), complex(0.0, np.nan), np.inf, -np.inf,
                 complex(0.0, np.inf), complex(np.inf, -np.inf), 1e300, -1e300j,
                 1e300 * (1 + 1j), big, -big * 1j, 1e155]  # 1e155 squared overflows
        small = [5e-324, -5e-324j, complex(5e-324, -1e-310), 1e-308 * (1 - 1j), 1e-300, 0.0]
        assert not certified_one_by_one(never, order).any()
        assert certified_one_by_one(small, order).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert noise_keeps_decisions(np.array(small), order)
            for w in never:  # one spoils a block of small ones
                assert not noise_keeps_decisions(np.array(small + [w] + small), order)

    @pytest.mark.parametrize("order", ALL_ORDERS)
    def test_the_worst_noise_under_the_radius_is_decided_as_sent(self, order):
        # each label's point, pushed towards either sector edge along the
        # tangent, and along the direction that turns it most (the tangent
        # tilted back by arcsin |w|), by just under the radius
        labels = np.arange(order, dtype=np.uint8)
        sent = map_psk(labels, order)
        size = certificate_radius(order) * (1 - 1e-12)
        for side in (1, -1):
            for turn in (math.pi / 2, math.pi / 2 + math.asin(size)):
                noise = size * np.exp(1j * side * turn) * sent
                assert noise_keeps_decisions(noise, order)
                np.testing.assert_array_equal(_decide(sent + noise, order), labels)

    def test_peak_memory_is_two_floats_a_value(self):
        rng = np.random.default_rng(3)
        noise = 0.01 * (rng.standard_normal((1, 100_000)) + 1j * rng.standard_normal((1, 100_000)))
        assert noise_keeps_decisions(noise, 8)
        tracemalloc.start()
        try:
            noise_keeps_decisions(noise, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / noise.size <= 17  # |w|^2 and one square: 8 B each

    @given(
        order=st.sampled_from(ALL_ORDERS),
        n_fft=st.sampled_from([1, 64, 512]),
        seed=st.integers(0, 2**32 - 1),
        worst=st.booleans(),
        spread=st.one_of(st.floats(0.5, 1.5),
                         st.sampled_from([1 - 1e-12, 1 - 1e-9, 1.0, 1 + 1e-9, 1.001])),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_a_certified_window_counts_no_errors_through_the_chain(self, order, n_fft, seed,
                                                                    worst, spread, data):
        # noise whose transform peaks at ``spread`` radii: random, or on every
        # used subcarrier in the direction that turns its symbol most
        import ofdmsim.sweep as sweep_mod

        cp = Fraction(0) if n_fft == 1 else data.draw(st.sampled_from(
            [Fraction(0), Fraction(1, 32), Fraction(1, 16), Fraction(1, 4), Fraction(1, 2)]))
        k = data.draw(st.integers(1, 4))
        b = bits_per_symbol(order)
        n_bits = b * data.draw(st.integers(1, 5 * n_fft if n_fft > 1 else 2000))
        config = OfdmConfig(n_fft, cp, modulation_order=order, bit_budget=n_bits)
        work = sweep_mod._Workspace(config, ChannelSpec(kind="awgn"), n_bits, True)
        (window, used), = work.windows
        assert work.capacity >= k
        frames, cp_len = window.stop, config.cp_len
        rng = np.random.default_rng(seed)
        work.bits[:k] = rng.integers(0, 2, size=(k, n_bits), dtype=np.uint8)
        noise = work.noise[:k, :frames]
        noise[:] = rng.standard_normal(noise.shape) + 1j * rng.standard_normal(noise.shape)
        size = spread * certificate_radius(order)
        if worst:  # padding subcarriers in any direction
            side = rng.choice([-1.0, 1.0], size=(k, used))
            turn = np.exp(1j * side * (math.pi / 2 + math.asin(min(size, 1.0))))
            w = np.exp(2j * np.pi * rng.random(noise[..., cp_len:].shape))
            w.reshape(k, -1)[:, :used] = map_psk(pack_labels(work.bits[:k], order), order) * turn
            noise[..., cp_len:] = unitary_idft(size * w)
        else:
            noise *= size / np.abs(unitary_dft(noise[..., cp_len:])).max()
        drawn = noise.copy()
        certified = noise_keeps_decisions(unitary_dft(noise[..., cp_len:]), order)
        errors, clamps = sweep_mod._run_chain_once(work, k, window, used)
        noise[:] = drawn
        with mock.patch.object(sweep_mod, "noise_keeps_decisions", lambda noise, order: False):
            full, _ = sweep_mod._run_chain_once(work, k, window, used)
        np.testing.assert_array_equal(errors, full)
        assert errors.dtype == np.uint64 and errors.shape == (k,) and not clamps.any()
        if certified:
            assert not full.any()

    @pytest.mark.parametrize("order", ALL_ORDERS)
    def test_noise_on_the_padding_is_asked_too(self, order):
        # a last OFDM symbol of 13 used subcarriers, whose kept noise sits on
        # padding subcarrier N/2 alone, exactly: it swamps the sent samples,
        # so the receiver sees zero symbols, though the transformed noise is
        # exactly 0 on every used subcarrier
        import ofdmsim.sweep as sweep_mod

        n_bits = (5 * 64 + 13) * bits_per_symbol(order)
        config = OfdmConfig(64, Fraction(1, 4), modulation_order=order, bit_budget=n_bits)
        work = sweep_mod._Workspace(config, ChannelSpec(kind="awgn"), n_bits, True)
        (window, used), = work.windows
        rng = np.random.default_rng(1)
        work.bits[:1] = rng.integers(0, 2, size=(1, n_bits), dtype=np.uint8)
        work.noise[:1] = 0.0
        work.noise[0, -1, config.cp_len:] = 1e30 * (1 + 1j) * (-1.0) ** np.arange(64)
        transformed = unitary_dft(work.noise[0, -1, config.cp_len:])
        assert not transformed[:13].any()
        assert not noise_keeps_decisions(transformed, order)
        errors, _ = sweep_mod._run_chain_once(work, 1, window, used)
        labels = pack_labels(work.bits[0], order)[-13:]
        assert errors[0] == np.bitwise_count(labels).sum() > 0  # each decided as label 0


class TestProperties:
    @given(
        order=st.sampled_from(ORDERS),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_roundtrip(self, order, data):
        b = order.bit_length() - 1
        bits = np.array(
            data.draw(
                st.lists(st.integers(0, 1), min_size=0, max_size=20 * b).map(
                    lambda xs: xs[: (len(xs) // b) * b]
                )
            ),
            dtype=np.uint8,
        )
        symbols = map_bits(bits, order)
        np.testing.assert_array_equal(demap_psk(symbols, order), bits)

    @given(
        order=st.sampled_from(ORDERS),
        seed=st.integers(0, 2**32 - 1),
        n_symbols=st.integers(0, 40),
        noise=st.floats(min_value=0.0, max_value=2.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_count_matches_demap_then_count(self, order, seed, n_symbols, noise):
        rng = np.random.default_rng(seed)
        bits = bits_for(order, n_symbols, seed)
        symbols = map_bits(bits, order) + noise * (
            rng.standard_normal(n_symbols) + 1j * rng.standard_normal(n_symbols))
        expected = count_bit_errors(bits, demap_psk(symbols, order))[0]
        assert count_psk_errors(symbols, pack_labels(bits, order), order) == expected

    @given(
        scale=st.floats(min_value=1e-6, max_value=1e6),
        phase_deg=st.floats(min_value=-180.0, max_value=180.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_scaling_never_changes_the_decision(self, scale, phase_deg):
        symbol = np.exp(1j * np.deg2rad(phase_deg))
        np.testing.assert_array_equal(
            demap_psk([scale * symbol], 8), demap_psk([symbol], 8)
        )
