"""Tests for channel specs, realizations, calibration, and application."""

import warnings

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
from ofdmsim.psk import map_psk, pack_labels
from ofdmsim.transform import unitary_dft, unitary_idft
from reference import post_dft_deviation, reference_cell

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
        x = map_psk(pack_labels(bits, 8), 8)
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

    def test_overflowing_decay_rejected_without_a_warning(self):
        # a steep negative decay still makes a profile while its sum is finite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert exponential_pdp(2, -3000.0)[1] == 1.0
            with pytest.raises(ValueError, match="^tdl_decay_db -4000.0 overflows"):
                exponential_pdp(2, -4000.0)


class TestChannelSpec:
    def test_tdl_requires_taps(self):
        with pytest.raises(ValueError):
            ChannelSpec(kind="tdl")
        with pytest.raises(ValueError, match="power-delay profile"):
            ChannelSpec(kind="tdl", taps=np.array([]))

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

    def test_tap_array_equals_the_tuple_form(self):
        # exponential_pdp returns an array, which the spec keeps as floats
        from_array = ChannelSpec(kind="tdl", taps=exponential_pdp(9, 1.0))
        assert from_array == ChannelSpec(kind="tdl", taps=tuple(exponential_pdp(9, 1.0)))
        assert type(from_array.taps) is tuple
        assert all(type(p) is float for p in from_array.taps)

    def test_summary_strings(self):
        assert ChannelSpec(kind="awgn").summary() == "awgn"
        assert ChannelSpec(kind="flat").summary() == "flat"
        assert ChannelSpec(kind="tdl", taps=(0.5, 0.5)).summary() == "tdl:0.5;0.5"


class TestRealizeChannel:
    def test_awgn_carries_no_gain(self):
        # AWGN has no realization; without the guard an AWGN spec would draw
        # one NaN tap
        with pytest.raises(ValueError, match="no channel realization"):
            realize_channel(AWGN, make_stream(1, 0), 4)

    def test_awgn_consumes_no_draws(self):
        # the guard comes before any draw, so the stream is left as it was
        stream = make_stream(1, 1)
        with pytest.raises(ValueError):
            realize_channel(AWGN, stream, 4)
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
    def test_noiseless_awgn_is_identity(self, monkeypatch):
        # an AWGN cell is never passed through a channel, so without noise
        # every bit comes back, whether a chunk holds many repetitions or a
        # repetition runs in windows
        import ofdmsim.sweep as sweep_mod

        def no_channel_step(*args, **kwargs):
            raise AssertionError("an AWGN cell took a channel step")

        monkeypatch.setattr(sweep_mod, "apply_channel", no_channel_step)
        for config, max_bits in [(eight_psk(64, "1/4"), 40_000),
                                 (OfdmConfig(64, "1/32", modulation_order=8,
                                             bit_budget=60_000), 150_000)]:
            record = sweep_mod.run_cell(config, AWGN, float("inf"), 3, 0,
                                        target_errors=1, max_bits=max_bits)
            assert record == reference_cell(config, AWGN, float("inf"), 3, 0,
                                            target_errors=1, max_bits=max_bits)
            assert record.bit_errors == 0 and record.bits_sent >= max_bits

    def test_single_unit_tap_is_identity(self):
        x = complex_gaussian(make_stream(4, 1), 256, 1.0).reshape(2, 2, 64)
        real = ChannelRealization(kind="tdl", taps=np.array([1.0 + 0j]))
        frames = x.copy()
        apply_channel(frames, [real, real], 64)
        np.testing.assert_allclose(frames, x, atol=1e-15)

    def test_flat_gain_scales(self):
        # a chunk of two repetitions of two frames, each frame by its own gain
        x = complex_gaussian(make_stream(5, 1), 64, 1.0).reshape(2, 2, 16)
        gains = np.array([[0.5 + 0.5j, -1.0], [2j, 0.0]])
        frames = x.copy()
        reals = [ChannelRealization(kind="flat", gains=g) for g in gains]
        response = apply_channel(frames, reals, 16)
        np.testing.assert_array_equal(frames, gains[..., None] * x)  # in place
        np.testing.assert_array_equal(response, gains[..., None])

    def test_empty_signal_rejected(self):
        real = ChannelRealization(kind="flat", gains=np.ones(0, dtype=complex))
        with pytest.raises(ValueError):
            apply_channel(np.empty((1, 0, 16), dtype=complex), [real], 16)

    def test_one_realization_per_row(self):
        real = ChannelRealization(kind="flat", gains=np.ones(4))
        with pytest.raises(ValueError):
            apply_channel(np.ones((2, 4, 16), dtype=complex), [real], 16)

    @pytest.mark.parametrize("kind", ["flat", "tdl"])
    def test_chunk_rows_take_their_own_channels(self, kind):
        # a chunk of three repetitions gives each row what its channel gives
        # it alone, and its response is each row's own
        taps = exponential_pdp(9, 1.0) if kind == "tdl" else None
        spec = ChannelSpec(kind=kind, taps=taps)
        stream = make_stream(14, 0)
        reals = [realize_channel(spec, stream, 5) for _ in range(3)]
        x = complex_gaussian(stream, 3 * 5 * 80, 1.0).reshape(3, 5, 80)
        chunk = x.copy()
        response = np.broadcast_to(apply_channel(chunk, reals, 64), (3, 5, 64))
        for row, real, alone, h in zip(x, reals, chunk, response):
            frames = row.copy()[None]
            apply_channel(frames, [real], 64)
            np.testing.assert_array_equal(frames[0], alone)
            own = real.gains[:, None] if kind == "flat" else np.fft.fft(real.taps, n=64)
            np.testing.assert_array_equal(h, np.broadcast_to(own, (5, 64)))

    @pytest.mark.parametrize("kind", ["flat", "tdl"])
    def test_returns_the_response_it_applied(self, kind):
        # one call changes the frames in place and hands back the window's
        # response, which the receiver divides by: for a chunk of three
        # repetitions, and for one repetition's windows in order
        taps = exponential_pdp(9, 1.0) if kind == "tdl" else None
        stream = make_stream(15, 0)
        reals = [realize_channel(ChannelSpec(kind=kind, taps=taps), stream, 6) for _ in range(3)]
        x = complex_gaussian(stream, 3 * 6 * 80, 1.0).reshape(3, 6, 80)
        if kind == "flat":
            expected = x * np.array([real.gains for real in reals])[..., None]
        else:
            expected = np.array([np.convolve(row.ravel(), real.taps)[:row.size].reshape(row.shape)
                                 for row, real in zip(x, reals)])
        chunk = x.copy()
        response = apply_channel(chunk, reals, 64)
        np.testing.assert_array_equal(response, channel_freq_response(reals, 64))
        np.testing.assert_array_equal(chunk, expected)
        frames = x[:1].copy()
        for window in (slice(0, 2), slice(2, 3), slice(3, 6)):
            response = apply_channel(frames[:, window], reals[:1], 64, window)
            np.testing.assert_array_equal(response,
                                          channel_freq_response(reals[:1], 64, window))
        np.testing.assert_array_equal(frames, expected[:1])

    @pytest.mark.parametrize("n_taps", [1, 2, 9, 12])
    def test_windows_in_order_equal_the_whole_repetition(self, n_taps):
        # windows of 300, 1 and 99 frames of 8 samples: the delay line's carry
        # crosses every boundary, and the 12-tap line's memory of 11 samples
        # spans the whole middle window
        stream = make_stream(13, n_taps)
        whole = complex_gaussian(stream, 400 * 8, 1.0).reshape(400, 8)
        real = realize_channel(ChannelSpec(kind="tdl", taps=exponential_pdp(n_taps, 1.0)),
                               stream, 400)
        expected = whole.copy()
        apply_channel(expected[None], [real], 8)
        blocks = whole.copy()
        for window in (slice(0, 300), slice(300, 301), slice(301, 400)):
            apply_channel(blocks[None, window], [real], 8, window)
        np.testing.assert_array_equal(blocks, expected)

    def test_flat_windows_take_their_own_gains(self):
        x = complex_gaussian(make_stream(6, 1), 64, 1.0).reshape(1, 4, 16)
        real = ChannelRealization(kind="flat", gains=np.array([0.5 + 0.5j, -1.0, 2j, 3.0]))
        frames = x.copy()
        apply_channel(frames[:, :3], [real], 16, slice(0, 3))
        last = apply_channel(frames[:, 3:], [real], 16, slice(3, 4))
        whole = x.copy()
        apply_channel(whole, [real], 16)
        np.testing.assert_array_equal(frames, whole)
        np.testing.assert_array_equal(last, [[[3.0]]])

    def test_two_tap_channel_is_per_subcarrier_gain(self):
        # noise-free CP-framed symbol: post-DFT payload equals H[k] * X[k]
        n_fft, cp = 64, 16
        taps = np.array([0.8 - 0.1j, 0.3 + 0.4j])
        rng = np.random.default_rng(12)
        x_freq = rng.standard_normal(n_fft) + 1j * rng.standard_normal(n_fft)
        tx = add_cyclic_prefix(unitary_idft(x_freq), cp)[None, None, :]
        apply_channel(tx, [ChannelRealization(kind="tdl", taps=taps)], n_fft)
        y_freq = unitary_dft(remove_cyclic_prefix(tx, n_fft, cp))[0, 0]
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
