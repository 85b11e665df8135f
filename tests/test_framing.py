"""Tests for OFDM configs, serial/parallel reshaping, and cyclic prefixes."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ofdmsim.errors import ConfigError, CpLengthError, SizeError
from ofdmsim.framing import (
    OfdmConfig,
    add_cyclic_prefix,
    as_number,
    remove_cyclic_prefix,
    serial_to_parallel,
)
from ofdmsim.psk import map_psk, demap_psk, pack_labels
from ofdmsim.transform import unitary_dft, unitary_idft

GRID_FRACTIONS = [Fraction(0), Fraction(1, 32), Fraction(1, 16),
                  Fraction(1, 8), Fraction(1, 4), Fraction(1, 2)]


def random_complex(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


class TestAsNumber:
    @pytest.mark.parametrize("value", [3, np.int64(-2), 0.5, np.float32(1.5), Fraction(1, 4),
                                       10**308, -(10**308)])
    def test_real_values_become_floats(self, value):
        assert type(as_number("x", value)) is float and as_number("x", value) == float(value)

    @pytest.mark.parametrize("value", [10**400, -(10**309), Fraction(10**400, 3)],
                             ids=["1e400", "-1e309", "1e400/3"])
    def test_beyond_float_range_is_a_config_error_naming_the_setting(self, value):
        with pytest.raises(ConfigError, match="^tdl_decay_db must be within the range of a float"):
            as_number("tdl_decay_db", value)

    @pytest.mark.parametrize("value", [True, "1.0", 1j, None])
    def test_non_reals_are_type_errors(self, value):
        with pytest.raises(TypeError, match="^x: expected a number"):
            as_number("x", value)


class TestOfdmConfig:
    @pytest.mark.parametrize("fft_size", [64, 128, 256, 512])
    @pytest.mark.parametrize("frac", GRID_FRACTIONS)
    def test_grid_configs_valid(self, fft_size, frac):
        config = OfdmConfig(fft_size, frac, modulation_order=8, bit_budget=1000)
        assert config.cp_len == int(frac * fft_size)

    def test_cp_string_accepted(self):
        assert OfdmConfig(512, "1/4", modulation_order=8, bit_budget=1000).cp_len == 128

    def test_non_integer_cp_rejected(self):
        with pytest.raises(CpLengthError):
            OfdmConfig(64, Fraction(1, 3), modulation_order=8, bit_budget=1000)

    def test_cp_beyond_symbol_rejected(self):
        with pytest.raises(CpLengthError):
            OfdmConfig(64, Fraction(2), modulation_order=8, bit_budget=1000)

    def test_negative_cp_rejected(self):
        with pytest.raises(CpLengthError):
            OfdmConfig(64, Fraction(-1, 4), modulation_order=8, bit_budget=1000)

    def test_unsupported_fft_size_rejected(self):
        with pytest.raises(SizeError):
            OfdmConfig(100, Fraction(1, 4), modulation_order=8, bit_budget=1000)

    def test_bits_per_symbol(self):
        assert OfdmConfig(64, 0, modulation_order=8, bit_budget=1000).bits_per_symbol == 3


class TestSerialToParallel:
    def test_exact_division(self):
        matrix, used = serial_to_parallel(random_complex(128, 0), 64)
        assert matrix.shape == (2, 64)
        assert used == 128

    def test_partial_row_zero_padded(self):
        symbols = random_complex(100, 1)
        matrix, used = serial_to_parallel(symbols, 64)
        assert matrix.shape == (2, 64)
        assert used == 100
        np.testing.assert_array_equal(matrix.ravel()[:100], symbols)
        np.testing.assert_array_equal(matrix.ravel()[100:], np.zeros(28))

    def test_empty_input(self):
        matrix, used = serial_to_parallel(np.empty(0, dtype=complex), 64)
        assert matrix.shape == (0, 64)
        assert used == 0


class TestCyclicPrefix:
    def test_definition(self):
        x = np.arange(8, dtype=complex)
        out = add_cyclic_prefix(x, 2)
        np.testing.assert_array_equal(out, [6, 7, 0, 1, 2, 3, 4, 5, 6, 7])

    def test_quarter_prefix_length(self):
        out = add_cyclic_prefix(random_complex(512, 2), 128)
        assert out.size == 640

    def test_zero_prefix_is_identity(self):
        x = random_complex(16, 3)
        np.testing.assert_array_equal(add_cyclic_prefix(x, 0), x)

    def test_too_long_prefix_rejected(self):
        with pytest.raises(CpLengthError):
            add_cyclic_prefix(random_complex(8, 4), 9)
        with pytest.raises(CpLengthError):
            add_cyclic_prefix(random_complex(8, 4), -1)

    def test_remove_takes_middle_slice(self):
        rx = np.concatenate([[91.0, 92.0], np.arange(8.0)]).astype(complex)
        np.testing.assert_array_equal(remove_cyclic_prefix(rx, 8, 2), np.arange(8.0))

    def test_remove_rejects_wrong_length(self):
        with pytest.raises(SizeError):
            remove_cyclic_prefix(random_complex(9, 5), 8, 2)

    def test_matrix_rows(self):
        rows = random_complex(32, 6).reshape(4, 8)
        framed = add_cyclic_prefix(rows, 2)
        assert framed.shape == (4, 10)
        np.testing.assert_array_equal(remove_cyclic_prefix(framed, 8, 2), rows)

    @given(seed=st.integers(0, 2**32 - 1), cp=st.integers(0, 8))
    @settings(max_examples=40, deadline=None)
    def test_add_remove_roundtrip(self, seed, cp):
        x = random_complex(8, seed)
        np.testing.assert_array_equal(remove_cyclic_prefix(add_cyclic_prefix(x, cp), 8, cp), x)

    @pytest.mark.parametrize("fft_size", [64, 128, 256, 512])
    @pytest.mark.parametrize("frac", GRID_FRACTIONS)
    def test_roundtrip_on_grid_shapes(self, fft_size, frac):
        cp = int(frac * fft_size)
        x = random_complex(fft_size, fft_size + cp)
        np.testing.assert_array_equal(
            remove_cyclic_prefix(add_cyclic_prefix(x, cp), fft_size, cp), x
        )


class TestChainInvariants:
    @pytest.mark.parametrize("fft_size", [64, 128, 256, 512])
    @pytest.mark.parametrize("frac", GRID_FRACTIONS)
    def test_identity_channel_end_to_end(self, fft_size, frac):
        order = 8
        cp = int(frac * fft_size)
        rng = np.random.default_rng(fft_size * 100 + cp)
        bits = rng.integers(0, 2, size=3 * 2 * fft_size - 3, dtype=np.uint8)
        symbols = map_psk(pack_labels(bits, order), order)
        matrix, used = serial_to_parallel(symbols, fft_size)
        tx = add_cyclic_prefix(unitary_idft(matrix), cp).ravel()

        # overhead accounting: transmitted vs payload sample count
        n_frames = matrix.shape[0]
        assert Fraction(tx.size, n_frames * fft_size) == Fraction(fft_size + cp, fft_size)

        rx = tx.reshape(n_frames, fft_size + cp)
        if cp:  # CP copy invariant on every transmitted frame
            np.testing.assert_array_equal(rx[:, :cp], rx[:, fft_size:])
        freq = unitary_dft(remove_cyclic_prefix(rx, fft_size, cp))
        out = demap_psk(freq.ravel()[:used], order)
        np.testing.assert_array_equal(out, bits)

    @pytest.mark.parametrize("order", [2, 4, 16])
    def test_identity_channel_other_orders(self, order):
        b = order.bit_length() - 1
        rng = np.random.default_rng(order)
        bits = rng.integers(0, 2, size=b * 150, dtype=np.uint8)
        symbols = map_psk(pack_labels(bits, order), order)
        matrix, used = serial_to_parallel(symbols, 64)
        tx = add_cyclic_prefix(unitary_idft(matrix), 16)
        freq = unitary_dft(remove_cyclic_prefix(tx, 64, 16))
        np.testing.assert_array_equal(demap_psk(freq.ravel()[:used], order), bits)
