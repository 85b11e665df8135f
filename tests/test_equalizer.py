"""Tests for the genie-aided zero-forcing equalizer."""

from dataclasses import replace

import numpy as np
import pytest

from ofdmsim.channel import ChannelSpec, channel_freq_response
from ofdmsim.equalizer import ZF_CLAMP_EPS, zero_forcing
from ofdmsim.framing import OfdmConfig
from reference import channel_state


def random_complex(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


class TestFreqResponse:
    def test_unit_tap_is_flat(self):
        state = channel_state("tdl", [[1.0]])
        np.testing.assert_allclose(channel_freq_response(state, 8)[0, 0], np.ones(8), atol=1e-15)

    def test_flat_gain_repeats(self):
        # a flat gain is its own response, one per OFDM symbol, on every subcarrier
        gains = np.array([0.5 + 0.5j, -2.0, 1j])
        response = np.broadcast_to(channel_freq_response(channel_state("flat", [gains]), 16),
                                   (1, 3, 16))
        np.testing.assert_array_equal(response[0], np.repeat(gains[:, None], 16, axis=1))

    def test_awgn_gives_all_ones(self, monkeypatch):
        # an AWGN cell forms no response and is not equalized, which is what
        # zero forcing by an all-ones response would give: its record is the
        # same with the equalizer on or off, but for its label
        import ofdmsim.channel as channel_mod
        import ofdmsim.sweep as sweep_mod

        def no_response(*args, **kwargs):
            raise AssertionError("an AWGN cell formed a channel response")

        # apply_channel forms the response with the channel module's function
        monkeypatch.setattr(channel_mod, "channel_freq_response", no_response)
        monkeypatch.setattr(sweep_mod, "zero_forcing", no_response)
        config = OfdmConfig(64, "1/4", modulation_order=8, bit_budget=1000)
        records = [sweep_mod.run_cell(config, ChannelSpec(kind="awgn"), 6.0, 3, 0,
                                      target_errors=200, use_equalizer=on)
                   for on in (True, False)]
        assert records[0] == replace(records[1], channel="awgn")
        assert records[0].bit_errors >= 200 and records[0].zf_clamps == 0

    def test_two_taps_closed_form(self):
        h0, h1 = 0.9 - 0.2j, 0.1 + 0.3j
        state = channel_state("tdl", [[h0, h1]])
        k = np.arange(4)
        expected = h0 + h1 * np.exp(-1j * np.pi * k / 2)
        np.testing.assert_allclose(channel_freq_response(state, 4)[0, 0], expected,
                                   atol=1e-12)


class TestZeroForcing:
    def test_all_ones_is_identity(self):
        rx = random_complex(64, 1)
        out, clamps = zero_forcing(rx.copy(), np.ones(64))
        np.testing.assert_array_equal(out, rx)
        assert clamps == 0

    def test_algebraic_inverse(self):
        x = random_complex(64, 2)
        h = random_complex(64, 3)
        h += 2.0  # keep min |H| comfortably above 1e-6
        out, clamps = zero_forcing(h * x, h)
        assert np.max(np.abs(out - x)) < 1e-9
        assert clamps == 0

    def test_inverse_property_well_conditioned(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            x = random_complex(128, rng.integers(2**31))
            mag = rng.uniform(0.01, 2.0, size=128)
            h = mag * np.exp(2j * np.pi * rng.uniform(size=128))
            out, _ = zero_forcing(h * x, h)
            assert np.max(np.abs(out - x)) < 1e-8

    def test_clamped_subcarrier(self):
        rx = random_complex(8, 5)
        h = np.ones(8, dtype=complex)
        h[3] = 0.0
        out, clamps = zero_forcing(rx.copy(), h)
        assert clamps == 1
        assert out[3] == 0.0
        np.testing.assert_array_equal(np.delete(out, 3), np.delete(rx, 3))

    def test_clamp_threshold(self):
        rx = np.ones(2, dtype=complex)
        h = np.array([ZF_CLAMP_EPS, ZF_CLAMP_EPS / 2], dtype=complex)
        out, clamps = zero_forcing(rx, h)
        assert clamps == 1  # only the entry strictly below the threshold
        assert out[1] == 0.0

    def test_response_broadcasts_over_rows(self):
        rx = random_complex(32, 6).reshape(4, 8)
        h = random_complex(8, 7) + 2.0
        out, clamps = zero_forcing(rx.copy(), h[None, :])
        np.testing.assert_allclose(out, rx / h[None, :], atol=1e-12)
        assert clamps == 0

    def test_divides_in_place(self):
        rx = random_complex(16, 9).reshape(2, 8)
        h = random_complex(8, 10) + 2.0
        expected = rx / h
        out, _ = zero_forcing(rx, h)
        assert out is rx
        np.testing.assert_array_equal(rx, expected)

    def test_masked_division_matches_the_plain_one(self):
        # a clamp anywhere in the response leaves every other entry as the
        # unmasked division gives it
        rx = random_complex(24, 11).reshape(3, 8)
        h = random_complex(8, 12) + 2.0
        plain, _ = zero_forcing(rx.copy(), h)
        h[5] = 0.0
        masked, clamps = zero_forcing(rx.copy(), h)
        assert clamps == 3
        np.testing.assert_array_equal(masked[:, 5], 0.0)
        np.testing.assert_array_equal(np.delete(masked, 5, axis=1), np.delete(plain, 5, axis=1))

    def test_all_zero_response_counts_every_entry(self):
        rx = random_complex(16, 8)
        out, clamps = zero_forcing(rx, np.zeros(16))
        assert clamps == 16
        np.testing.assert_array_equal(out, np.zeros(16))
