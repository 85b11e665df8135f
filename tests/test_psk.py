"""Tests for PSK mapping, demapping, and the Gray-labelled constellation."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ofdmsim.errors import LengthError, OrderError
from ofdmsim.framing import OfdmConfig
from ofdmsim.metrics import count_bit_errors, theoretical_mpsk_ber
from ofdmsim.psk import (_decide, _gray_labels, _sector_test, bits_per_symbol, count_psk_errors,
                         decided_as_sent, demap_psk, map_psk, pack_labels)

ORDERS = [2, 4, 8, 16]
ALL_ORDERS = [2**b for b in range(1, 9)]  # 2..256


def map_bits(bits, order: int, out=None) -> np.ndarray:
    """map_psk of the labels ``bits`` pack into."""
    return map_psk(pack_labels(bits, order), order, out=out)


def bits_for(order: int, n_symbols: int, seed: int) -> np.ndarray:
    b = order.bit_length() - 1
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=n_symbols * b, dtype=np.uint8)


class TestBitsPerSymbol:
    def test_log2_of_the_order(self):
        assert [bits_per_symbol(m) for m in (2, 4, 8, 16, 256)] == [1, 2, 3, 4, 8]

    # above 256 the labels no longer fit in a byte
    @pytest.mark.parametrize("order", [-4, 0, 1, 3, 6, 512])
    def test_every_user_rejects_an_invalid_order(self, order):
        # the one check behind the config, the mapper, the receiver and the theory curve
        for call in (
            lambda: bits_per_symbol(order),
            lambda: OfdmConfig(64, 0, modulation_order=order, bit_budget=1000),
            lambda: pack_labels(np.zeros(24, dtype=np.uint8), order),
            lambda: map_psk(np.zeros(8, dtype=np.uint8), order),
            lambda: demap_psk(np.ones(4, dtype=complex), order),
            lambda: count_psk_errors(np.ones(4, dtype=complex), np.zeros(4, np.uint8), order),
            lambda: decided_as_sent(np.ones(4, dtype=complex), np.zeros(4, np.uint8), order),
            lambda: theoretical_mpsk_ber(10.0, order),
        ):
            with pytest.raises(OrderError):
                call()


def symbols_by_label(order: int) -> np.ndarray:
    """map_psk's symbol for each label 0..order-1."""
    b = bits_per_symbol(order)
    groups = (np.arange(order)[:, None] >> np.arange(b - 1, -1, -1)) & 1
    return map_bits(groups.astype(np.uint8), order).ravel()


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
        np.testing.assert_allclose(map_bits([0, 0, 0], 8), [1.0 + 0.0j], atol=1e-12)

    def test_group_001_is_45_degrees(self):
        expected = np.exp(1j * np.pi / 4)
        np.testing.assert_allclose(map_bits([0, 0, 1], 8), [expected], atol=1e-12)

    def test_all_groups_cover_the_circle(self):
        bits = np.array([(g >> s) & 1 for g in range(8) for s in (2, 1, 0)])
        symbols = map_bits(bits, 8)
        phases = np.sort(np.mod(np.angle(symbols), 2 * np.pi))
        np.testing.assert_allclose(phases, np.arange(8) * np.pi / 4, atol=1e-12)
        assert len(np.unique(np.round(symbols, 9))) == 8

    def test_length_not_divisible_rejected(self):
        with pytest.raises(LengthError):
            map_bits([0, 1], 8)

    def test_bad_order_rejected(self):
        with pytest.raises(OrderError):
            map_bits([0, 1, 0], 6)

    def test_mean_energy_is_one(self):
        bits = bits_for(8, 4096, seed=3)
        energy = np.mean(np.abs(map_bits(bits, 8)) ** 2)
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
        np.testing.assert_array_equal(demap_psk(map_bits(bits, order), order), bits)


class TestBlocks:
    def test_map_keeps_leading_axes(self):
        bits = bits_for(8, 40, seed=14).reshape(4, 30)
        symbols = map_bits(bits, 8)
        assert symbols.shape == (4, 10)
        for row_bits, row in zip(bits, symbols):
            np.testing.assert_array_equal(map_bits(row_bits, 8), row)

    @pytest.mark.parametrize("shape", [(2, 3), (3, 2)])
    def test_demap_reads_a_block_in_c_order(self, shape):
        bits = bits_for(8, 6, seed=18)
        block = map_bits(bits, 8).reshape(shape)
        np.testing.assert_array_equal(demap_psk(block, 8), bits)  # the block's C-order ravel

    def test_map_into_out(self):
        bits = bits_for(8, 20, seed=15).reshape(2, 30)
        buffer = np.zeros((2, 16), dtype=complex)
        map_bits(bits, 8, out=buffer[:, :10])
        np.testing.assert_array_equal(buffer[:, :10], map_bits(bits, 8))
        np.testing.assert_array_equal(buffer[:, 10:], 0)


class TestDecision:
    @pytest.mark.parametrize("order", ORDERS + [256])
    def test_one_read_only_gray_table(self, order):
        table = _gray_labels(order)
        assert table is _gray_labels(order)
        assert table.dtype == np.uint8 and not table.flags.writeable
        positions = np.arange(order)
        np.testing.assert_array_equal(table, positions ^ (positions >> 1))

    @pytest.mark.parametrize("order", ORDERS + [256])
    def test_decides_the_label_sent_and_keeps_the_shape(self, order):
        labels = np.random.default_rng(19).integers(0, order, size=(3, 40)).astype(np.uint8)
        decided = _decide(map_psk(labels, order), order)
        assert decided.dtype == np.uint8
        np.testing.assert_array_equal(decided, labels)

    @pytest.mark.parametrize("order", [4, 8, 16])
    def test_errors_nest_along_the_noise_ray(self, order):
        # a decision sector is a convex cone around its point, so once s + n
        # has left it, s + a*n stays outside for every a > 1
        rng = np.random.default_rng(order)
        labels = rng.integers(0, order, size=200_000).astype(np.uint8)
        symbols = map_psk(labels, order)
        noise = 0.25 * (rng.standard_normal(labels.size) + 1j * rng.standard_normal(labels.size))
        wrong = _decide(symbols + noise, order) != labels
        assert wrong.any() and not wrong.all()
        for a in (1.25, 2.0, 8.0, 100.0):
            farther = _decide(symbols + a * noise, order) != labels
            assert not (wrong & ~farther).any()
            wrong = farther


class TestCountPskErrors:
    def test_sums_over_the_last_axis(self):
        rng = np.random.default_rng(16)
        bits = bits_for(8, 60, seed=17).reshape(3, 60)
        symbols = map_bits(bits, 8) + 0.4 * (rng.standard_normal((3, 20))
                                            + 1j * rng.standard_normal((3, 20)))
        counts = count_psk_errors(symbols, pack_labels(bits, 8), 8)
        assert counts.shape == (3,)
        for row_symbols, row_bits, count in zip(symbols, bits, counts):
            assert count == count_bit_errors(row_bits, demap_psk(row_symbols, 8))[0]

    def test_ties_and_zero_follow_the_demapper(self):
        for order, symbols in ((2, [1j, 0.0]), (4, [1.0 + 1.0j, 0.0, -1e-310j])):
            b = order.bit_length() - 1
            for label in range(order):
                sent = np.array([(label >> s) & 1 for s in range(b - 1, -1, -1)] * len(symbols))
                labels = pack_labels(sent, order)
                assert count_psk_errors(symbols, labels, order) == count_bit_errors(
                    sent, demap_psk(symbols, order))[0]

    def test_length_mismatch_rejected(self):
        with pytest.raises(LengthError):
            count_psk_errors([1.0 + 0.0j], [0, 0], 8)


def certified_one_by_one(symbols, labels, order: int) -> np.ndarray:
    """decided_as_sent of each (symbol, label) pair on its own; any warning fails."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return np.array([decided_as_sent(np.array([symbol]), np.array([label], np.uint8), order)
                         for symbol, label in zip(symbols, labels)], dtype=bool)


def phases_by_label(order: int) -> np.ndarray:
    """Phase of each label's point, 2*pi*p/order at its angular position p."""
    return 2 * np.pi * positions_by_label(order) / order


class TestDecidedAsSent:
    """The certificate an AWGN window takes in place of the angle decision:
    whenever it holds, the decision gives the labels sent, so every count
    is 0."""

    @staticmethod
    def assert_only_sent_labels_certified(symbols, order: int, shifts) -> np.ndarray:
        """Try each symbol against the labels ``shifts`` angular positions
        from its decided one; only shift 0 may be certified.  Returns the
        (symbol, shift) verdicts."""
        symbols = np.asarray(symbols, dtype=complex)
        with np.errstate(invalid="ignore"):  # the decision casts a NaN angle
            decided = np.argsort(_gray_labels(order))[_decide(symbols, order)]
        verdicts = np.column_stack([
            certified_one_by_one(symbols, _gray_labels(order)[(decided + shift) % order], order)
            for shift in shifts])
        assert not verdicts[:, np.asarray(shifts) != 0].any()
        return verdicts

    @pytest.mark.parametrize("order", ALL_ORDERS)
    def test_one_read_only_table_per_order(self, order):
        rotations = _sector_test(order)[0]
        assert rotations is _sector_test(order)[0] and not rotations.flags.writeable
        np.testing.assert_allclose(rotations, np.exp(-1j * phases_by_label(order)) / 2,
                                   atol=1e-15)

    @pytest.mark.parametrize("order", ALL_ORDERS)
    def test_noiseless_symbols_are_certified_as_sent_only(self, order):
        labels = np.arange(order, dtype=np.uint8)
        symbols = map_psk(labels, order)
        assert decided_as_sent(symbols, labels, order)
        verdicts = self.assert_only_sent_labels_certified(symbols, order, [0, -1, 1, order // 2])
        assert verdicts[:, 0].all()

    @pytest.mark.parametrize("order", ALL_ORDERS)
    def test_symbols_at_the_sector_boundaries_are_decided_as_certified(self, order):
        # boundary p | p+1 at phase (p + 1/2) * 2*pi/M, taken into (-pi, pi] as
        # the decision's angle is; the larger steps fall on either side of
        # the margin (pi/M)*1e-9, depending on the order and the boundary
        boundaries = (np.arange(order) + 0.5) * (2 * np.pi / order)
        boundaries[boundaries > np.pi] -= 2 * np.pi
        ulps = np.abs(np.spacing(boundaries))
        steps = [k * ulps for k in (1, 2, 1e3, 1e6)] + [np.pi / order * 1e-9]
        phases = np.concatenate([boundaries + side * step for step in steps for side in (-1, 1)])
        # and subnormal ones, whose parts are whole multiples of the least
        # subnormal, 5e-324: rounding there is absolute, so only the 1e-290
        # floor keeps them from being certified across the boundary
        near = [np.round(r * np.exp(1j * boundaries)) + dx + 1j * dy
                for r in (7, 1000) for dx in (-1, 0, 1) for dy in (-1, 0, 1)]
        symbols = np.concatenate([np.exp(1j * phases), 5e-324 * np.concatenate(near)])
        self.assert_only_sent_labels_certified(symbols, order, [0, -1, 1, 2])

    @pytest.mark.parametrize("order", ALL_ORDERS)
    def test_the_margin_is_a_billionth_of_the_half_sector(self, order):
        labels = np.arange(order, dtype=np.uint8)
        phases = phases_by_label(order)
        for side in (-1, 1):
            inside = np.exp(1j * (phases + side * np.pi / order * (1 - 2e-9)))
            at_the_edge = np.exp(1j * (phases + side * np.pi / order * (1 - 0.5e-9)))
            assert decided_as_sent(inside, labels, order)
            assert not certified_one_by_one(at_the_edge, labels, order).any()

    @pytest.mark.parametrize("order", ALL_ORDERS)
    def test_zero_tiny_huge_inf_and_nan_symbols(self, order):
        big = np.finfo(float).max
        never = [0.0, -0.0j, -1e-310j, 1e-300, 1e-300j, np.inf, -np.inf, 1j * np.inf,
                 complex(np.inf, np.inf), np.nan, complex(np.nan, 1.0), complex(1.0, np.nan)]
        maybe = [1e300, 1e300j, big, big * (1 + 1j), -big * (1 + 1j)]
        # a finite rotation of a huge symbol cannot overflow: at M = 16, big*(1+1j)
        # lies in position 2's sector, and Re z for position 1 would exceed big
        shifts = range(-(order // 2), order - order // 2)
        verdicts = self.assert_only_sent_labels_certified(never + maybe, order, shifts)
        assert not verdicts[:len(never)].any()
        # one of them spoils a block of sent symbols
        labels = np.zeros(4, np.uint8)
        for symbol in never:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert not decided_as_sent(np.array([1.0, symbol, 1.0, 1.0]), labels, order)

    def test_the_test_runs_in_the_rotated_symbols_memory(self):
        # the rotated symbols (16 B a symbol) are the only float array; np.take
        # casts the uint8 labels to intp indices (8 B) and the verdicts are bools
        rng = np.random.default_rng(3)
        labels = rng.integers(0, 8, size=(1, 100_000)).astype(np.uint8)
        noise = rng.standard_normal((1, 100_000)) + 1j * rng.standard_normal((1, 100_000))
        symbols = map_psk(labels, 8) + 0.1 * noise
        assert not decided_as_sent(symbols, labels, 8)  # and the cached table is built
        tracemalloc.start()
        try:
            decided_as_sent(symbols, labels, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / labels.size <= 26

    def test_shapes_must_match(self):
        assert decided_as_sent(np.ones((0,), complex), np.zeros((0,), np.uint8), 8)
        assert decided_as_sent(np.ones((2, 3), complex), np.zeros((2, 3), np.uint8), 8)
        with pytest.raises(LengthError):
            decided_as_sent(np.ones((2, 3), complex), np.zeros(3, np.uint8), 8)

    @given(
        order=st.sampled_from(ALL_ORDERS),
        seed=st.integers(0, 2**32 - 1),
        shape=st.tuples(st.integers(1, 4), st.integers(1, 60)),
        spread=st.floats(min_value=0.0, max_value=1.5),
    )
    @settings(max_examples=100, deadline=None)
    def test_certified_blocks_count_no_errors(self, order, seed, shape, spread):
        # noise of about ``spread`` half-sectors: certified at small spreads,
        # not at large ones, and at the edge in between
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, order, size=shape).astype(np.uint8)
        noise = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)
        symbols = map_psk(labels, order) + spread * np.sin(np.pi / order) * noise
        counts = count_psk_errors(symbols, labels, order)
        assert counts.dtype == np.uint64 and counts.shape == shape[:1]
        # the chain's counts with the certificate equal those without it
        chain = (np.zeros(shape[0], np.uint64) if decided_as_sent(symbols, labels, order)
                 else counts)
        np.testing.assert_array_equal(chain, counts)
        for row_symbols, row_labels, count in zip(symbols, labels, counts):
            if decided_as_sent(row_symbols, row_labels, order):
                assert count == 0


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
        symbols = map_bits(bits, order)
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
        symbols = map_bits(bits, order) + noise * (
            rng.standard_normal(n_symbols) + 1j * rng.standard_normal(n_symbols))
        expected = count_bit_errors(bits, demap_psk(symbols, order))[0]
        assert count_psk_errors(symbols, pack_labels(bits, order), order) == expected

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
