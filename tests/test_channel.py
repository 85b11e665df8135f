"""Tests for channel specs, channel states, calibration, and application."""

import warnings

import numpy as np
import pytest

from ofdmsim.bitsource import make_stream
from ofdmsim.channel import (
    ChannelSpec,
    ChannelState,
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
from ofdmsim.sweep import SweepGrid
from ofdmsim.transform import unitary_dft, unitary_idft
from reference import channel_state, cp_shortfall_model, post_dft_deviation, reference_cell

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
        # AWGN has no channel state; without the guard an AWGN spec would
        # draw one NaN tap
        with pytest.raises(ValueError, match="no channel realization"):
            realize_channel(ChannelState(AWGN, 1, 4), 0, make_stream(1, 0))

    def test_awgn_consumes_no_draws(self):
        # the guard comes before any draw, so the stream is left as it was
        stream = make_stream(1, 1)
        with pytest.raises(ValueError):
            realize_channel(ChannelState(AWGN, 1, 4), 0, stream)
        np.testing.assert_array_equal(complex_gaussian(stream, 8, 1.0),
                                      complex_gaussian(make_stream(1, 1), 8, 1.0))

    def test_flat_gain_unit_mean_power(self):
        state = ChannelState(ChannelSpec(kind="flat"), 1, 100_000)
        assert realize_channel(state, 0, make_stream(8, 0)) is state
        assert state.gains.shape == (1, 100_000)
        assert 0.99 <= np.mean(np.abs(state.gains) ** 2) <= 1.01

    def test_flat_draw_is_one_gain_per_symbol_in_order(self):
        # one repetition of 7 symbols draws what 7 stacked rows of one do
        spec = ChannelSpec(kind="flat")
        together = realize_channel(ChannelState(spec, 1, 7), 0, make_stream(10, 0)).gains[0]
        stacked, stream = ChannelState(spec, 7, 1), make_stream(10, 0)
        for row in range(7):
            realize_channel(stacked, row, stream)
        np.testing.assert_array_equal(together, stacked.gains[:, 0])

    def test_tdl_row_is_the_scaled_draw(self):
        # a row's taps are its unit-power Gaussians times sqrt(p), whichever row
        spec = ChannelSpec(kind="tdl", taps=exponential_pdp(9, 1.0))
        state = ChannelState(spec, 3, 4)
        realize_channel(state, 2, make_stream(16, 0))
        expected = complex_gaussian(make_stream(16, 0), 9, 1.0) * np.sqrt(exponential_pdp(9, 1.0))
        np.testing.assert_array_equal(state.taps[2], expected)

    def test_tdl_per_tap_power_matches_profile(self):
        powers = (0.5, 0.3, 0.2)
        trials = 100_000
        state = ChannelState(ChannelSpec(kind="tdl", taps=powers), trials, 1)
        stream = make_stream(9, 0)
        for row in range(trials):
            realize_channel(state, row, stream)
        mean = np.mean(np.abs(state.taps) ** 2, axis=0)
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

    @pytest.mark.parametrize("out", [None, np.full((3, 4), 7 + 7j)], ids=["allocating", "out"])
    def test_zero_variance_draws_nothing_and_writes_minus_zero(self, out):
        stream = make_stream(12, 3)
        noise = complex_gaussian(stream, 12, 0.0, out=out)
        assert noise.size == 12
        # both parts -0.0, the imaginary one too (complex(-0.0) has +0.0 there)
        assert np.all(np.signbit(noise.real)) and np.all(np.signbit(noise.imag))
        assert not np.any(noise.view(np.float64))
        # the stream is where it was: its next normals are an untouched stream's
        np.testing.assert_array_equal(complex_gaussian(stream, 8, 1.0),
                                      complex_gaussian(make_stream(12, 3), 8, 1.0))

    def test_zero_variance_noise_adds_nothing(self):
        # x + noise is x bit for bit: signed zeros in either part, subnormals,
        # the largest and smallest normals, and ordinary values
        parts = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -1.5,
                          1.7976931348623157e308, -1.7976931348623157e308])
        x = np.empty(parts.size ** 2, dtype=np.complex128)
        x.real, x.imag = np.repeat(parts, parts.size), np.tile(parts, parts.size)
        assert np.signbit(x.imag).sum() == 4 * parts.size  # -0.0 kept in the imaginary part
        total = x + complex_gaussian(make_stream(1, 1), x.size, 0.0)
        assert total.view(np.uint64).tobytes() == x.view(np.uint64).tobytes()


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
        frames = x.copy()
        apply_channel(frames, channel_state("tdl", [[1.0], [1.0]]), 64)
        np.testing.assert_allclose(frames, x, atol=1e-15)

    def test_flat_gain_scales(self):
        # a chunk of two repetitions of two frames, each frame by its own gain
        x = complex_gaussian(make_stream(5, 1), 64, 1.0).reshape(2, 2, 16)
        gains = np.array([[0.5 + 0.5j, -1.0], [2j, 0.0]])
        frames = x.copy()
        response = apply_channel(frames, channel_state("flat", gains), 16)
        np.testing.assert_array_equal(frames, gains[..., None] * x)  # in place
        np.testing.assert_array_equal(response, gains[..., None])

    def test_empty_signal_rejected(self):
        with pytest.raises(ValueError):
            apply_channel(np.empty((1, 0, 16), dtype=complex), channel_state("flat", [[]]), 16)

    def test_one_realization_per_row(self):
        with pytest.raises(ValueError):
            apply_channel(np.ones((2, 4, 16), dtype=complex), channel_state("flat", [[1] * 4]), 16)

    def test_a_chunk_takes_the_first_rows_of_the_state(self):
        # a chunk of two repetitions of a state of three rows: its response
        # and channel are those of the first two rows
        gains = np.array([[0.5j, 2.0], [-1.0, 1j], [3.0, 4.0]])
        x = complex_gaussian(make_stream(17, 1), 64, 1.0).reshape(2, 2, 16)
        frames = x.copy()
        response = apply_channel(frames, channel_state("flat", gains), 16)
        np.testing.assert_array_equal(response, gains[:2, :, None])
        np.testing.assert_array_equal(frames, gains[:2, :, None] * x)

    @pytest.mark.parametrize("kind", ["flat", "tdl"])
    def test_chunk_rows_take_their_own_channels(self, kind):
        # a chunk of three repetitions gives each row what its channel gives
        # it alone, and its response is each row's own
        taps = exponential_pdp(9, 1.0) if kind == "tdl" else None
        spec = ChannelSpec(kind=kind, taps=taps)
        stream = make_stream(14, 0)
        state = ChannelState(spec, 3, 5)
        for row in range(3):
            realize_channel(state, row, stream)
        own_rows = state.gains if kind == "flat" else state.taps
        x = complex_gaussian(stream, 3 * 5 * 80, 1.0).reshape(3, 5, 80)
        chunk = x.copy()
        response = np.broadcast_to(apply_channel(chunk, state, 64), (3, 5, 64))
        for row, values, alone, h in zip(x, own_rows, chunk, response):
            frames = row.copy()[None]
            apply_channel(frames, channel_state(kind, [values], 5), 64)
            np.testing.assert_array_equal(frames[0], alone)
            own = values[:, None] if kind == "flat" else np.fft.fft(values, n=64)
            np.testing.assert_array_equal(h, np.broadcast_to(own, (5, 64)))

    @pytest.mark.parametrize("kind", ["flat", "tdl"])
    def test_returns_the_response_it_applied(self, kind):
        # one call changes the frames in place and hands back the window's
        # response, which the receiver divides by: for a chunk of three
        # repetitions, and for one repetition's windows in order
        taps = exponential_pdp(9, 1.0) if kind == "tdl" else None
        stream = make_stream(15, 0)
        state = ChannelState(ChannelSpec(kind=kind, taps=taps), 3, 6)
        for row in range(3):
            realize_channel(state, row, stream)
        x = complex_gaussian(stream, 3 * 6 * 80, 1.0).reshape(3, 6, 80)
        if kind == "flat":
            expected = x * state.gains[..., None]
        else:
            expected = np.array([np.convolve(row.ravel(), taps)[:row.size].reshape(row.shape)
                                 for row, taps in zip(x, state.taps)])
        chunk = x.copy()
        response = apply_channel(chunk, state, 64)
        np.testing.assert_array_equal(response, channel_freq_response(state, 64))
        np.testing.assert_array_equal(chunk, expected)
        frames = x[:1].copy()
        for window in (slice(0, 2), slice(2, 3), slice(3, 6)):
            response = apply_channel(frames[:, window], state, 64, window)
            np.testing.assert_array_equal(response,
                                          channel_freq_response(state, 64, window, rows=1))
        np.testing.assert_array_equal(frames, expected[:1])

    @pytest.mark.parametrize("n_taps", [1, 2, 9, 12])
    def test_windows_in_order_equal_the_whole_repetition(self, n_taps):
        # windows of 300, 1 and 99 frames of 8 samples: the delay line's carry
        # crosses every boundary, and the 12-tap line's memory of 11 samples
        # spans the whole middle window
        stream = make_stream(13, n_taps)
        whole = complex_gaussian(stream, 400 * 8, 1.0).reshape(400, 8)
        state = ChannelState(ChannelSpec(kind="tdl", taps=exponential_pdp(n_taps, 1.0)), 1, 400)
        realize_channel(state, 0, stream)
        expected = whole.copy()
        apply_channel(expected[None], state, 8)
        blocks = whole.copy()
        for window in (slice(0, 300), slice(300, 301), slice(301, 400)):
            apply_channel(blocks[None, window], state, 8, window)
            # every call keeps the last min(L, samples so far) pre-channel samples
            passed = whole[:window.stop].ravel()
            kept = min(n_taps - 1, passed.size)
            np.testing.assert_array_equal(state.carry, passed[None, passed.size - kept:])
        np.testing.assert_array_equal(blocks, expected)

    @pytest.mark.parametrize("n_taps", [2, 12])
    def test_a_repetitions_first_window_ignores_the_carry_left_before_it(self, n_taps):
        # two rows of 10 frames of 8 samples: the first repetition's windows
        # leave a carry, which the next repetition's first window (start 0)
        # does not read; it starts the line silent, as the whole repetition does
        stream = make_stream(19, n_taps)
        spec = ChannelSpec(kind="tdl", taps=exponential_pdp(n_taps, 1.0))
        state = ChannelState(spec, 2, 10)
        earlier = complex_gaussian(stream, 2 * 10 * 8, 1.0).reshape(2, 10, 8)
        for row in range(2):
            realize_channel(state, row, stream)
        for window in (slice(0, 6), slice(6, 10)):
            apply_channel(earlier[:, window], state, 8, window)
        assert state.carry.shape == (2, n_taps - 1) and state.carry.any()

        later = complex_gaussian(stream, 2 * 10 * 8, 1.0).reshape(2, 10, 8)
        for row in range(2):
            realize_channel(state, row, stream)
        # the repetition run whole, from a silent line
        expected = np.array([np.convolve(row.ravel(), taps)[:row.size].reshape(row.shape)
                             for row, taps in zip(later, state.taps)])
        blocks = later.copy()
        first = slice(0, 4)
        apply_channel(blocks[:, first], state, 8, first)
        np.testing.assert_array_equal(blocks[:, first], expected[:, first])
        apply_channel(blocks[:, 4:], state, 8, slice(4, 10))
        np.testing.assert_array_equal(blocks, expected)

    def test_carry_shorter_than_the_memory_when_fewer_samples_passed(self):
        # a 12-tap line after windows of one 4-sample frame: the carry holds
        # every sample so far until the memory of 11 is full
        stream = make_stream(18, 0)
        whole = complex_gaussian(stream, 6 * 4, 1.0).reshape(6, 4)
        state = ChannelState(ChannelSpec(kind="tdl", taps=exponential_pdp(12, 1.0)), 1, 6)
        realize_channel(state, 0, stream)
        expected = whole.copy()
        apply_channel(expected[None], state, 4)
        blocks = whole.copy()
        for start in range(6):
            window = slice(start, start + 1)
            apply_channel(blocks[None, window], state, 4, window)
            if start < 5:
                assert state.carry.shape == (1, min(11, 4 * (start + 1)))
        # a signal shorter than the taps is padded to their length, so
        # np.convolve sums in the order it does over the whole repetition
        np.testing.assert_array_equal(blocks, expected)

    def test_flat_windows_take_their_own_gains(self):
        x = complex_gaussian(make_stream(6, 1), 64, 1.0).reshape(1, 4, 16)
        state = channel_state("flat", [[0.5 + 0.5j, -1.0, 2j, 3.0]])
        frames = x.copy()
        apply_channel(frames[:, :3], state, 16, slice(0, 3))
        last = apply_channel(frames[:, 3:], state, 16, slice(3, 4))
        whole = x.copy()
        apply_channel(whole, state, 16)
        np.testing.assert_array_equal(frames, whole)
        np.testing.assert_array_equal(last, [[[3.0]]])

    def test_two_tap_channel_is_per_subcarrier_gain(self):
        # noise-free CP-framed symbol: post-DFT payload equals H[k] * X[k]
        n_fft, cp = 64, 16
        taps = np.array([0.8 - 0.1j, 0.3 + 0.4j])
        rng = np.random.default_rng(12)
        x_freq = rng.standard_normal(n_fft) + 1j * rng.standard_normal(n_fft)
        tx = add_cyclic_prefix(unitary_idft(x_freq), cp)[None, None, :]
        apply_channel(tx, channel_state("tdl", [taps]), n_fft)
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


class TestCpShortfallModel:
    """Received subcarriers are G X_t + K X_(t-1): the in-window part of the
    delay line and the spill from the previous OFDM symbol, as matrices."""

    @pytest.mark.parametrize("n_fft", SweepGrid.fft_sizes)
    @pytest.mark.parametrize("fraction", SweepGrid.cp_fractions)
    def test_noiseless_frames_follow_the_matrix_model(self, n_fft, fraction):
        cp = OfdmConfig(n_fft, fraction, modulation_order=8, bit_budget=1000).cp_len
        n_frames = 3
        spec = ChannelSpec(kind="tdl", taps=exponential_pdp(9, 1.0))
        state = realize_channel(ChannelState(spec, 1, n_frames), 0, make_stream(n_fft, cp))
        taps = state.taps[0]
        labels = np.random.default_rng(cp).integers(0, 8, size=(n_frames, n_fft), dtype=np.uint8)
        symbols = map_psk(labels, 8)
        tx = add_cyclic_prefix(unitary_idft(symbols), cp)
        apply_channel(tx[None], state, n_fft)  # in place
        received = unitary_dft(remove_cyclic_prefix(tx, n_fft, cp))

        g, k = cp_shortfall_model(n_fft, cp, taps)
        previous = np.vstack((np.zeros(n_fft), symbols[:-1]))
        expected = symbols @ g.T + previous @ k.T
        assert np.max(np.abs(received - expected)) < 1e-12
        if cp >= taps.size - 1:
            assert not k.any()
            np.testing.assert_allclose(g, np.diag(np.fft.fft(taps, n=n_fft)), rtol=0, atol=1e-12)
        else:
            assert np.max(np.abs(k)) > 1e-3
