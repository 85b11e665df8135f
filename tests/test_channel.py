"""Tests for channel specs, realizations, calibration, and application."""

import numpy as np
import pytest

from ofdmsim.bitsource import make_stream
from ofdmsim.channel import (
    ChannelRealization,
    ChannelSpec,
    apply_channel,
    channel_freq_response,
    complex_gaussian,
    ebno_to_noise_variance,
    exponential_pdp,
    realize_channel,
)
from ofdmsim.framing import (
    OfdmConfig,
    add_cyclic_prefix,
    remove_cyclic_prefix,
)
from ofdmsim.psk import map_psk
from ofdmsim.transform import unitary_dft, unitary_idft
from reference import post_dft_deviation

AWGN = ChannelSpec(kind="awgn")


def eight_psk(fft_size: int, cp_fraction: str) -> OfdmConfig:
    return OfdmConfig(fft_size, cp_fraction, modulation_order=8, bit_budget=1000)


class TestNoiseCalibration:
    def test_zero_db_eight_psk(self):
        assert ebno_to_noise_variance(0.0, eight_psk(64, "0"), AWGN) == pytest.approx(1 / 3)

    def test_cp_overhead_scaling(self):
        overhead = ChannelSpec(kind="awgn", account_cp_overhead=True)
        sigma2 = ebno_to_noise_variance(0.0, eight_psk(512, "1/4"), overhead)
        assert sigma2 == pytest.approx((1 / 3) * (640 / 512))

    def test_effectively_noiseless(self):
        assert ebno_to_noise_variance(300.0, eight_psk(64, "1/4"), AWGN) < 1e-29

    def test_measured_snr_matches_configured(self):
        # empirical per-sample SNR over 1e6 samples within 0.1 dB
        ebno_db = 10.0
        sigma2 = ebno_to_noise_variance(ebno_db, eight_psk(1, "0"), AWGN)
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
        np.testing.assert_array_equal(complex_gaussian(stream, 8, 1.0),
                                      complex_gaussian(make_stream(1, 1), 8, 1.0))

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

    @pytest.mark.parametrize("n_taps", [1, 2, 9, 12])
    def test_windows_in_order_equal_the_whole_repetition(self, n_taps):
        # windows of 300, 1 and 99 frames of 8 samples: the delay line's carry
        # crosses every boundary, and the 12-tap line's memory of 11 samples
        # spans the whole middle window
        stream = make_stream(13, n_taps)
        whole = complex_gaussian(stream, 400 * 8, 1.0).reshape(400, 8)
        real = realize_channel(ChannelSpec(kind="tdl", taps=tuple(exponential_pdp(n_taps, 1.0))),
                               stream, 400)
        expected = apply_channel(whole.copy(), real)
        blocks = whole.copy()
        for window in (slice(0, 300), slice(300, 301), slice(301, 400)):
            apply_channel(blocks[window], real, window)
        np.testing.assert_array_equal(blocks, expected)

    def test_flat_windows_take_their_own_gains(self):
        x = complex_gaussian(make_stream(6, 1), 64, 1.0).reshape(4, 16)
        real = ChannelRealization(kind="flat", gains=np.array([0.5 + 0.5j, -1.0, 2j, 3.0]))
        frames = x.copy()
        apply_channel(frames[:3], real, slice(0, 3))
        apply_channel(frames[3:], real, slice(3, 4))
        np.testing.assert_array_equal(frames, apply_channel(x.copy(), real))
        np.testing.assert_array_equal(channel_freq_response(real, 16, slice(3, 4)), [[3.0]])

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

    @pytest.mark.parametrize("cp", [8, 16, 32])
    def test_sufficient_prefix(self, cp):
        assert post_dft_deviation(64, cp, memory=8, seed=21, n_frames=4) < 1e-9

    @pytest.mark.parametrize("cp", [0, 2, 4])
    def test_insufficient_prefix(self, cp):
        assert post_dft_deviation(64, cp, memory=8, seed=22, n_frames=4) > 1e-3
