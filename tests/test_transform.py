"""Tests for the unitary transforms against the direct-sum oracle."""

import numpy as np
import pytest

from ofdmsim.transform import unitary_dft, unitary_idft
from reference import direct_transform

SIZES = [64, 128, 256, 512]


def random_samples(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


class TestKnownTransforms:
    def test_impulse_spreads_to_constant(self):
        x = np.zeros(64, dtype=complex)
        x[0] = 1.0
        out = unitary_idft(x)
        np.testing.assert_allclose(out, np.full(64, 1 / 8.0), atol=1e-12)
        np.testing.assert_allclose(out, direct_transform(x, inverse=True), atol=1e-12)

    def test_all_ones_collapses_to_scaled_impulse(self):
        out = unitary_idft(np.ones(4, dtype=complex))
        np.testing.assert_allclose(out, [2.0, 0.0, 0.0, 0.0], atol=1e-12)

    def test_forward_impulse(self):
        x = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
        out = unitary_dft(x)
        np.testing.assert_allclose(out, np.full(4, 0.5), atol=1e-12)
        np.testing.assert_allclose(out, direct_transform(x, inverse=False), atol=1e-12)


class TestOracleAgreement:
    @pytest.mark.parametrize("n", SIZES)
    def test_fast_matches_direct_sum(self, n):
        for trial in range(100):
            x = random_samples(n, seed=1000 * n + trial)
            fast = unitary_idft(x)
            direct = direct_transform(x, inverse=True)
            assert np.max(np.abs(fast - direct)) < 1e-10
            fast_f = unitary_dft(x)
            direct_f = direct_transform(x, inverse=False)
            assert np.max(np.abs(fast_f - direct_f)) < 1e-10

    @pytest.mark.parametrize("n", [1, 96])
    def test_fast_matches_direct_sum_at_any_length(self, n):
        # the size policy is OfdmConfig's and SweepGrid's: the transforms take any length
        x = random_samples(n, seed=n)
        np.testing.assert_allclose(unitary_idft(x), direct_transform(x, inverse=True), atol=1e-12)
        np.testing.assert_allclose(unitary_dft(x), direct_transform(x, inverse=False), atol=1e-12)

    def test_direct_identity_at_n1(self):
        np.testing.assert_allclose(direct_transform([3.0 + 1j], inverse=False), [3.0 + 1j])

    def test_direct_forward_then_inverse_is_identity(self):
        x = random_samples(37, seed=5)  # non power of two on purpose
        back = direct_transform(direct_transform(x, inverse=False), inverse=True)
        assert np.max(np.abs(back - x)) < 1e-10


class TestTransformProperties:
    @pytest.mark.parametrize("n", SIZES)
    def test_inverse_pair(self, n):
        x = random_samples(n, seed=n)
        back = unitary_dft(unitary_idft(x))
        assert np.max(np.abs(back - x)) < 1e-12

    @pytest.mark.parametrize("n", SIZES)
    def test_parseval(self, n):
        freq = random_samples(n, seed=n + 1)
        time = unitary_idft(freq)
        e_time = np.sum(np.abs(time) ** 2)
        e_freq = np.sum(np.abs(freq) ** 2)
        assert abs(e_time - e_freq) / e_freq < 1e-10

    @pytest.mark.parametrize("n", SIZES)
    def test_norm_preserved(self, n):
        x = random_samples(n, seed=n + 2)
        assert abs(
            np.linalg.norm(unitary_idft(x)) - np.linalg.norm(x)
        ) / np.linalg.norm(x) < 1e-10

    def test_linearity(self):
        x = random_samples(128, seed=8)
        y = random_samples(128, seed=9)
        a, b = 1.7 - 0.3j, -2.2 + 0.9j
        combined = unitary_dft(a * x + b * y)
        separate = a * unitary_dft(x) + b * unitary_dft(y)
        assert np.max(np.abs(combined - separate)) < 1e-10

    def test_circular_shift_is_phase_ramp(self):
        # this equivalence is what makes the cyclic prefix work
        n, m = 256, 37
        x = random_samples(n, seed=12)
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
        out = transform(x, out=buffer[..., 16:])  # a strided view
        assert np.shares_memory(out, buffer)
        np.testing.assert_array_equal(buffer[..., 16:], transform(x))
        np.testing.assert_array_equal(buffer[..., :16], 0)
