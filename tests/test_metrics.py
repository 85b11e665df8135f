"""Tests for error counting, theory references, and confidence intervals."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ofdmsim.errors import LengthError, OrderError
from ofdmsim.framing import OfdmConfig
from ofdmsim.metrics import (
    CSV_COLUMNS,
    count_bit_errors,
    make_record,
    theoretical_mpsk_ber,
    wilson_interval,
)
from ofdmsim.channel import ChannelSpec
from ofdmsim.sweep import run_cell
from ofdmsim.validate import RAW_MODEM

# frozen from the closed form (erfc evaluation) before the Monte Carlo build
EIGHT_PSK_BER_10DB = 0.0010113953207128907
WILSON_50_1E5_Z3 = (0.0003281698650819755, 0.0007617320437462299)


class TestCountBitErrors:
    def test_identical_blocks(self):
        bits = np.array([0, 1, 1, 0, 1], dtype=np.uint8)
        assert count_bit_errors(bits, bits) == (0, 5)

    def test_complement_blocks(self):
        bits = np.array([0, 1, 1, 0], dtype=np.uint8)
        assert count_bit_errors(bits, 1 - bits) == (4, 4)

    def test_hand_counted(self):
        assert count_bit_errors([0, 1, 1, 0], [0, 0, 1, 1]) == (2, 4)

    def test_length_mismatch_rejected(self):
        with pytest.raises(LengthError):
            count_bit_errors([0, 1], [0, 1, 0])


class TestTheoreticalBer:
    def test_noiseless_limit(self):
        assert theoretical_mpsk_ber(400.0, 2) == 0.0

    def test_pure_noise_limit(self):
        assert theoretical_mpsk_ber(float("-inf"), 2) == 0.5

    def test_frozen_eight_psk_at_10db(self):
        assert theoretical_mpsk_ber(10.0, 8) == pytest.approx(
            EIGHT_PSK_BER_10DB, rel=1e-12
        )

    def test_qpsk_equals_bpsk_per_bit(self):
        for ebno in (0.0, 4.0, 8.0):
            assert theoretical_mpsk_ber(ebno, 4) == theoretical_mpsk_ber(ebno, 2)

    def test_monotone_decreasing_in_ebno(self):
        for order in (2, 4, 8, 16):
            bers = [theoretical_mpsk_ber(e, order) for e in np.arange(-5, 16, 0.5)]
            assert all(a > b for a, b in zip(bers, bers[1:]))

    def test_order_ranking_at_fixed_ebno(self):
        for ebno in np.arange(0.0, 14.0, 2.0):
            assert theoretical_mpsk_ber(ebno, 8) > theoretical_mpsk_ber(ebno, 4)
            assert theoretical_mpsk_ber(ebno, 4) >= theoretical_mpsk_ber(ebno, 2)

    def test_bad_order_rejected(self):
        with pytest.raises(OrderError):
            theoretical_mpsk_ber(10.0, 3)


class TestWilsonInterval:
    def test_zero_errors_floor(self):
        low, high = wilson_interval(0, 1000)
        assert low == 0.0
        assert high > 0.0

    def test_all_errors_ceiling(self):
        low, high = wilson_interval(1000, 1000)
        assert high == 1.0
        assert low < 1.0

    def test_frozen_hand_evaluation(self):
        low, high = wilson_interval(50, 100_000, z=3.0)
        assert low == pytest.approx(WILSON_50_1E5_Z3[0], rel=1e-12)
        assert high == pytest.approx(WILSON_50_1E5_Z3[1], rel=1e-12)
        assert low < 5e-4 < high

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            wilson_interval(1, 0)
        with pytest.raises(ValueError):
            wilson_interval(5, 4)

    @given(
        errors=st.integers(0, 1000),
        extra=st.integers(0, 100_000),
        z=st.floats(min_value=0.5, max_value=5.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_interval_brackets_the_estimate(self, errors, extra, z):
        total = errors + extra + 1
        low, high = wilson_interval(errors, total, z)
        p = errors / total
        assert 0.0 <= low <= p <= high <= 1.0

    def test_coverage_of_theory_in_repeated_trials(self):
        # z=3 intervals from independent AWGN runs should almost always
        # bracket the closed-form BER
        ebno_db, n_bits = 6.0, 30_000
        theory = theoretical_mpsk_ber(ebno_db, RAW_MODEM.modulation_order)
        hits = 0
        trials = 100
        for trial in range(trials):
            record = run_cell(RAW_MODEM, ChannelSpec(kind="awgn"), ebno_db, 500 + trial, 0,
                              target_errors=2**62, max_bits=n_bits)
            low, high = wilson_interval(record.bit_errors, record.bits_sent, z=3.0)
            hits += low <= theory <= high
        assert hits >= 95


class TestBerRecord:
    def test_derived_fields_consistent(self):
        config = OfdmConfig(64, Fraction(1, 4))
        record = make_record(config, "awgn", 10.0, 9000, 45, 0, 42, 7)
        assert record.ber == 45 / 9000
        assert 0.0 <= record.ci_low <= record.ber <= record.ci_high <= 1.0

    def test_row_matches_csv_schema(self):
        config = OfdmConfig(128, Fraction(1, 16))
        record = make_record(config, "flat", 6.0, 1200, 3, 1, 1, 2)
        row = record.row()
        assert tuple(row) == CSV_COLUMNS
        assert row["cp_fraction"] == "1/16"
        assert row["fft_size"] == 128
