"""Tests for PSK mapping, demapping, and the Gray-labelled constellation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ofdmsim.errors import LengthError, OrderError
from ofdmsim.framing import OfdmConfig
from ofdmsim.metrics import count_bit_errors, theoretical_mpsk_ber
from ofdmsim.psk import bits_per_symbol, count_psk_errors, demap_psk, map_psk

ORDERS = [2, 4, 8, 16]


def bits_for(order: int, n_symbols: int, seed: int) -> np.ndarray:
    b = order.bit_length() - 1
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=n_symbols * b, dtype=np.uint8)


class TestBitsPerSymbol:
    def test_log2_of_the_order(self):
        assert [bits_per_symbol(m) for m in (2, 4, 8, 16, 256)] == [1, 2, 3, 4, 8]

    # above 256 the labels no longer fit in a byte, and the error table grows as M^2
    @pytest.mark.parametrize("order", [-4, 0, 1, 3, 6, 512])
    def test_every_user_rejects_an_invalid_order(self, order):
        # the one check behind the config, the mapper and the theory curve
        for call in (
            lambda: bits_per_symbol(order),
            lambda: OfdmConfig(64, 0, modulation_order=order, bit_budget=1000),
            lambda: map_psk(np.zeros(24, dtype=np.uint8), order),
            lambda: theoretical_mpsk_ber(10.0, order),
        ):
            with pytest.raises(OrderError):
                call()


def symbols_by_label(order: int) -> np.ndarray:
    """map_psk's symbol for each label 0..order-1."""
    b = bits_per_symbol(order)
    groups = (np.arange(order)[:, None] >> np.arange(b - 1, -1, -1)) & 1
    return map_psk(groups.astype(np.uint8), order).ravel()


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
        np.testing.assert_allclose(map_psk([0, 0, 0], 8), [1.0 + 0.0j], atol=1e-12)

    def test_group_001_is_45_degrees(self):
        expected = np.exp(1j * np.pi / 4)
        np.testing.assert_allclose(map_psk([0, 0, 1], 8), [expected], atol=1e-12)

    def test_all_groups_cover_the_circle(self):
        bits = np.array([(g >> s) & 1 for g in range(8) for s in (2, 1, 0)])
        symbols = map_psk(bits, 8)
        phases = np.sort(np.mod(np.angle(symbols), 2 * np.pi))
        np.testing.assert_allclose(phases, np.arange(8) * np.pi / 4, atol=1e-12)
        assert len(np.unique(np.round(symbols, 9))) == 8

    def test_length_not_divisible_rejected(self):
        with pytest.raises(LengthError):
            map_psk([0, 1], 8)

    def test_bad_order_rejected(self):
        with pytest.raises(OrderError):
            map_psk([0, 1, 0], 6)

    def test_mean_energy_is_one(self):
        bits = bits_for(8, 4096, seed=3)
        energy = np.mean(np.abs(map_psk(bits, 8)) ** 2)
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
        np.testing.assert_array_equal(demap_psk(map_psk(bits, order), order), bits)


class TestBlocks:
    def test_map_keeps_leading_axes(self):
        bits = bits_for(8, 40, seed=14).reshape(4, 30)
        symbols = map_psk(bits, 8)
        assert symbols.shape == (4, 10)
        for row_bits, row in zip(bits, symbols):
            np.testing.assert_array_equal(map_psk(row_bits, 8), row)

    def test_map_into_out(self):
        bits = bits_for(8, 20, seed=15).reshape(2, 30)
        buffer = np.zeros((2, 16), dtype=complex)
        map_psk(bits, 8, out=buffer[:, :10])
        np.testing.assert_array_equal(buffer[:, :10], map_psk(bits, 8))
        np.testing.assert_array_equal(buffer[:, 10:], 0)


class TestCountPskErrors:
    def test_sums_over_the_last_axis(self):
        rng = np.random.default_rng(16)
        bits = bits_for(8, 60, seed=17).reshape(3, 60)
        symbols = map_psk(bits, 8) + 0.4 * (rng.standard_normal((3, 20))
                                            + 1j * rng.standard_normal((3, 20)))
        counts = count_psk_errors(symbols, bits, 8)
        assert counts.shape == (3,)
        for row_symbols, row_bits, count in zip(symbols, bits, counts):
            assert count == count_bit_errors(row_bits, demap_psk(row_symbols, 8))[0]

    def test_ties_and_zero_follow_the_demapper(self):
        for order, symbols in ((2, [1j, 0.0]), (4, [1.0 + 1.0j, 0.0, -1e-310j])):
            b = order.bit_length() - 1
            for label in range(order):
                sent = np.array([(label >> s) & 1 for s in range(b - 1, -1, -1)] * len(symbols))
                assert count_psk_errors(symbols, sent, order) == count_bit_errors(
                    sent, demap_psk(symbols, order))[0]

    def test_length_mismatch_rejected(self):
        with pytest.raises(LengthError):
            count_psk_errors([1.0 + 0.0j], [0, 0], 8)


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
        symbols = map_psk(bits, order)
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
        symbols = map_psk(bits, order) + noise * (
            rng.standard_normal(n_symbols) + 1j * rng.standard_normal(n_symbols))
        expected = count_bit_errors(bits, demap_psk(symbols, order))[0]
        assert count_psk_errors(symbols, bits, order) == expected

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
