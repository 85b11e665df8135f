"""Tests for the unitary transforms against the direct-sum oracle."""

import numpy as np
import pytest

from ofdmsim.errors import SizeError
from ofdmsim.transform import (
    FREQUENCY,
    TIME,
    SpectralBlock,
    dft,
    dft_direct,
    direct_transform,
    idft,
    unitary_dft,
    unitary_idft,
)

SIZES = [64, 128, 256, 512]


def random_block(n: int, seed: int, domain: str = FREQUENCY) -> SpectralBlock:
    rng = np.random.default_rng(seed)
    samples = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return SpectralBlock(samples, domain)


class TestKnownTransforms:
    def test_impulse_spreads_to_constant(self):
        x = np.zeros(64, dtype=complex)
        x[0] = 1.0
        out = idft(SpectralBlock(x, FREQUENCY))
        assert out.domain == TIME
        np.testing.assert_allclose(out.samples, np.full(64, 1 / 8.0), atol=1e-12)

    def test_all_ones_collapses_to_scaled_impulse(self):
        out = unitary_idft(np.ones(4, dtype=complex))
        np.testing.assert_allclose(out, [2.0, 0.0, 0.0, 0.0], atol=1e-12)

    def test_forward_impulse(self):
        out = dft(SpectralBlock([1.0, 0.0, 0.0, 0.0], TIME))
        assert out.domain == FREQUENCY
        np.testing.assert_allclose(out.samples, np.full(4, 0.5), atol=1e-12)


class TestOracleAgreement:
    @pytest.mark.parametrize("n", SIZES)
    def test_fast_matches_direct_sum(self, n):
        for trial in range(100):
            block = random_block(n, seed=1000 * n + trial)
            fast = idft(block).samples
            direct = dft_direct(block, "inverse").samples
            assert np.max(np.abs(fast - direct)) < 1e-10
            fwd_block = SpectralBlock(block.samples, TIME)
            fast_f = dft(fwd_block).samples
            direct_f = dft_direct(fwd_block, "forward").samples
            assert np.max(np.abs(fast_f - direct_f)) < 1e-10

    def test_direct_identity_at_n1(self):
        np.testing.assert_allclose(direct_transform([3.0 + 1j], inverse=False), [3.0 + 1j])

    def test_direct_forward_then_inverse_is_identity(self):
        x = random_block(37, seed=5, domain=TIME).samples  # non power of two on purpose
        back = direct_transform(direct_transform(x, inverse=False), inverse=True)
        assert np.max(np.abs(back - x)) < 1e-10

    def test_direct_rejects_bad_direction(self):
        with pytest.raises(ValueError):
            dft_direct(random_block(8, 1), "sideways")


class TestTransformProperties:
    @pytest.mark.parametrize("n", SIZES)
    def test_inverse_pair(self, n):
        block = random_block(n, seed=n)
        back = dft(idft(block)).samples
        assert np.max(np.abs(back - block.samples)) < 1e-12

    @pytest.mark.parametrize("n", SIZES)
    def test_parseval(self, n):
        block = random_block(n, seed=n + 1)
        time = idft(block).samples
        e_time = np.sum(np.abs(time) ** 2)
        e_freq = np.sum(np.abs(block.samples) ** 2)
        assert abs(e_time - e_freq) / e_freq < 1e-10

    @pytest.mark.parametrize("n", SIZES)
    def test_norm_preserved(self, n):
        block = random_block(n, seed=n + 2)
        assert abs(
            np.linalg.norm(idft(block).samples) - np.linalg.norm(block.samples)
        ) / np.linalg.norm(block.samples) < 1e-10

    def test_linearity(self):
        x = random_block(128, seed=8, domain=TIME).samples
        y = random_block(128, seed=9, domain=TIME).samples
        a, b = 1.7 - 0.3j, -2.2 + 0.9j
        combined = unitary_dft(a * x + b * y)
        separate = a * unitary_dft(x) + b * unitary_dft(y)
        assert np.max(np.abs(combined - separate)) < 1e-10

    def test_circular_shift_is_phase_ramp(self):
        # this equivalence is what makes the cyclic prefix work
        n, m = 256, 37
        x = random_block(n, seed=12, domain=TIME).samples
        shifted = np.roll(x, m)
        lhs = unitary_dft(shifted)
        rhs = unitary_dft(x) * np.exp(-2j * np.pi * np.arange(n) * m / n)
        assert np.max(np.abs(lhs - rhs)) < 1e-9


class TestOutArgument:
    @pytest.mark.parametrize("transform", [unitary_dft, unitary_idft])
    def test_out_receives_the_same_values(self, transform):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((3, 2, 64)) + 1j * rng.standard_normal((3, 2, 64))
        buffer = np.zeros((3, 2, 80), dtype=complex)
        out = transform(x, axis=-1, out=buffer[..., 16:])  # a strided view
        assert np.shares_memory(out, buffer)
        np.testing.assert_array_equal(buffer[..., 16:], transform(x, axis=-1))
        np.testing.assert_array_equal(buffer[..., :16], 0)


class TestValidation:
    def test_non_power_of_two_rejected(self):
        with pytest.raises(SizeError):
            unitary_dft(np.ones(96, dtype=complex))

    def test_domain_mismatch_rejected(self):
        block = random_block(64, seed=3, domain=TIME)
        with pytest.raises(ValueError):
            idft(block)
        with pytest.raises(ValueError):
            dft(random_block(64, seed=3, domain=FREQUENCY))

    def test_bad_domain_tag_rejected(self):
        with pytest.raises(ValueError):
            SpectralBlock(np.ones(4), "spacetime")

    def test_multidimensional_block_rejected(self):
        with pytest.raises(SizeError):
            SpectralBlock(np.ones((2, 2)), TIME)
