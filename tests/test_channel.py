"""Tests for channel specs, realizations, calibration, and application."""

import numpy as np
import pytest

from ofdmsim.bitsource import draw_gaussian, make_stream
from ofdmsim.channel import (
    ChannelRealization,
    ChannelSpec,
    apply_channel,
    complex_gaussian,
    ebno_to_noise_variance,
    exponential_pdp,
    realize_channel,
)
from ofdmsim.framing import add_cyclic_prefix, remove_cyclic_prefix, serial_to_parallel
from ofdmsim.psk import map_psk
from ofdmsim.transform import unitary_dft, unitary_idft


class TestNoiseCalibration:
    def test_zero_db_eight_psk(self):
        assert ebno_to_noise_variance(0.0, 8, 64, 0, False) == pytest.approx(1 / 3)

    def test_cp_overhead_scaling(self):
        sigma2 = ebno_to_noise_variance(0.0, 8, 512, 128, True)
        assert sigma2 == pytest.approx((1 / 3) * (640 / 512))

    def test_effectively_noiseless(self):
        assert ebno_to_noise_variance(300.0, 8, 64, 16, False) < 1e-29

    def test_measured_snr_matches_configured(self):
        # empirical per-sample SNR over 1e6 samples within 0.1 dB
        ebno_db = 10.0
        sigma2 = ebno_to_noise_variance(ebno_db, 8, 1, 0, False)
        stream = make_stream(31, 0)
        rng = np.random.default_rng(7)
        bits = rng.integers(0, 2, size=3_000_000, dtype=np.uint8)
        x = map_psk(bits, 8)
        noise = complex_gaussian(stream, x.size, sigma2)
        measured_db = 10 * np.log10(np.mean(np.abs(x) ** 2) / np.mean(np.abs(noise) ** 2))
        configured_db = 10 * np.log10(1.0 / sigma2)
        assert abs(measured_db - configured_db) < 0.1


class TestExponentialPdp:
    def test_single_tap(self):
        np.testing.assert_array_equal(exponential_pdp(1, 5.0), [1.0])

    def test_factor_two_decay(self):
        taps = exponential_pdp(2, 3.0102999566398120)  # 3.0103 dB = power factor 2
        np.testing.assert_allclose(taps, [2 / 3, 1 / 3], atol=1e-12)

    @pytest.mark.parametrize("length,decay", [(1, 0.0), (5, 1.0), (9, 0.0), (12, 4.5)])
    def test_normalization(self, length, decay):
        assert abs(exponential_pdp(length, decay).sum() - 1.0) <= 1e-12

    def test_bad_length_rejected(self):
        with pytest.raises(ValueError):
            exponential_pdp(0, 1.0)


class TestChannelSpec:
    def test_tdl_requires_taps(self):
        with pytest.raises(ValueError):
            ChannelSpec(kind="tdl")

    def test_tap_powers_must_sum_to_one(self):
        with pytest.raises(ValueError):
            ChannelSpec(kind="tdl", taps=(0.6, 0.3))

    def test_negative_tap_rejected(self):
        with pytest.raises(ValueError):
            ChannelSpec(kind="tdl", taps=(1.5, -0.5))

    @pytest.mark.parametrize("taps", [(float("nan"), 1.0), (1.0, float("nan")),
                                      (float("inf"), 0.0)])
    def test_non_finite_tap_rejected(self, taps):
        # the sum check cannot see a NaN: nan - 1.0 compares false to everything
        with pytest.raises(ValueError, match="finite"):
            ChannelSpec(kind="tdl", taps=taps)

    def test_taps_on_memoryless_channel_rejected(self):
        with pytest.raises(ValueError):
            ChannelSpec(kind="awgn", taps=(1.0,))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ChannelSpec(kind="rician")

    def test_summary_strings(self):
        assert ChannelSpec(kind="awgn").summary() == "awgn"
        assert ChannelSpec(kind="flat").summary() == "flat"
        assert ChannelSpec(kind="tdl", taps=(0.5, 0.5)).summary() == "tdl:0.5;0.5"


class TestRealizeChannel:
    def test_awgn_carries_no_gain(self):
        real = realize_channel(ChannelSpec(kind="awgn"), make_stream(1, 0), 4)
        assert real.gains is None and real.taps is None

    def test_awgn_consumes_no_draws(self):
        stream = make_stream(1, 1)
        realize_channel(ChannelSpec(kind="awgn"), stream, 4)
        np.testing.assert_array_equal(draw_gaussian(stream, 8),
                                      draw_gaussian(make_stream(1, 1), 8))

    def test_flat_gain_unit_mean_power(self):
        real = realize_channel(ChannelSpec(kind="flat"), make_stream(8, 0), 100_000)
        assert real.gains.shape == (100_000,)
        assert 0.99 <= np.mean(np.abs(real.gains) ** 2) <= 1.01

    def test_flat_draw_is_one_gain_per_symbol_in_order(self):
        spec = ChannelSpec(kind="flat")
        together = realize_channel(spec, make_stream(10, 0), 7).gains
        stream = make_stream(10, 0)
        one_by_one = [realize_channel(spec, stream, 1).gains[0] for _ in range(7)]
        np.testing.assert_array_equal(together, one_by_one)

    def test_tdl_per_tap_power_matches_profile(self):
        powers = (0.5, 0.3, 0.2)
        spec = ChannelSpec(kind="tdl", taps=powers)
        stream = make_stream(9, 0)
        trials = 100_000
        acc = np.zeros(3)
        for _ in range(trials):
            acc += np.abs(realize_channel(spec, stream, 1).taps) ** 2
        mean = acc / trials
        for measured, p in zip(mean, powers):
            assert abs(measured - p) <= 3 * p / np.sqrt(trials)


class TestComplexGaussian:
    def test_out_is_bit_identical_to_the_allocating_form(self):
        expected = complex_gaussian(make_stream(11, 0), 6 * 80, 0.3)
        out = np.empty((6, 80), dtype=np.complex128)
        returned = complex_gaussian(make_stream(11, 0), out.size, 0.3, out=out)
        assert returned is out
        np.testing.assert_array_equal(out.ravel(), expected)

    def test_out_must_hold_count_values(self):
        with pytest.raises(ValueError):
            complex_gaussian(make_stream(11, 1), 5, 1.0, out=np.empty(4, dtype=np.complex128))


class TestApplyChannel:
    def test_noiseless_awgn_is_identity(self):
        x = complex_gaussian(make_stream(3, 1), 256, 1.0).reshape(4, 64)
        y = apply_channel(x.copy(), ChannelRealization(kind="awgn"))
        np.testing.assert_array_equal(y, x)

    def test_single_unit_tap_is_identity(self):
        x = complex_gaussian(make_stream(4, 1), 256, 1.0).reshape(4, 64)
        real = ChannelRealization(kind="tdl", taps=np.array([1.0 + 0j]))
        np.testing.assert_allclose(apply_channel(x.copy(), real), x, atol=1e-15)

    def test_flat_gain_scales(self):
        x = complex_gaussian(make_stream(5, 1), 64, 1.0).reshape(4, 16)
        gains = np.array([0.5 + 0.5j, -1.0, 2j, 0.0])
        frames = x.copy()
        returned = apply_channel(frames, ChannelRealization(kind="flat", gains=gains))
        assert returned is frames  # in place
        np.testing.assert_allclose(frames, gains[:, None] * x, atol=1e-15)

    def test_empty_signal_rejected(self):
        real = ChannelRealization(kind="awgn")
        with pytest.raises(ValueError):
            apply_channel(np.empty((0, 16), dtype=complex), real)

    def test_two_tap_channel_is_per_subcarrier_gain(self):
        # noise-free CP-framed symbol: post-DFT payload equals H[k] * X[k]
        n_fft, cp = 64, 16
        taps = np.array([0.8 - 0.1j, 0.3 + 0.4j])
        rng = np.random.default_rng(12)
        x_freq = rng.standard_normal(n_fft) + 1j * rng.standard_normal(n_fft)
        tx = add_cyclic_prefix(unitary_idft(x_freq), cp)[None, :]
        rx = apply_channel(tx, ChannelRealization(kind="tdl", taps=taps))
        y_freq = unitary_dft(remove_cyclic_prefix(rx, n_fft, cp))[0]
        expected = np.fft.fft(taps, n=n_fft) * x_freq
        assert np.max(np.abs(y_freq - expected)) < 1e-9


class TestCpSufficiency:
    """A cyclic prefix at least as long as the channel memory makes the
    delay line look like a per-subcarrier gain; a shorter one does not."""

    @staticmethod
    def _post_dft_deviation(n_fft: int, cp: int, memory: int, seed: int) -> float:
        rng = np.random.default_rng(seed)
        taps = (rng.standard_normal(memory + 1) + 1j * rng.standard_normal(memory + 1))
        taps /= np.linalg.norm(taps)
        bits = rng.integers(0, 2, size=3 * n_fft * 4, dtype=np.uint8)
        matrix, _ = serial_to_parallel(map_psk(bits, 8), n_fft)
        tx = add_cyclic_prefix(unitary_idft(matrix, axis=-1), cp)
        rx = apply_channel(tx, ChannelRealization(kind="tdl", taps=taps))
        rx_freq = unitary_dft(remove_cyclic_prefix(rx, n_fft, cp), axis=-1)
        expected = np.fft.fft(taps, n=n_fft)[None, :] * matrix
        return float(np.max(np.abs(rx_freq - expected)))

    @pytest.mark.parametrize("cp", [8, 16, 32])
    def test_sufficient_prefix(self, cp):
        assert self._post_dft_deviation(64, cp, memory=8, seed=21) < 1e-9

    @pytest.mark.parametrize("cp", [0, 2, 4])
    def test_insufficient_prefix(self, cp):
        assert self._post_dft_deviation(64, cp, memory=8, seed=22) > 1e-3
