"""Tests for the seeded per-cell random substreams."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ofdmsim.bitsource import draw_bits, make_stream
from ofdmsim.channel import complex_gaussian

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_bits_seed42_cell0.txt"


def normals(stream, count: int) -> np.ndarray:
    """``count`` standard normals (``count`` even), drawn as every Gaussian is:
    through complex_gaussian, whose variance 2 leaves them unscaled."""
    return complex_gaussian(stream, count // 2, 2.0).view(np.float64)


class TestDeterminism:
    def test_same_seed_same_cell_identical_outputs(self):
        a = draw_bits(make_stream(42, 0), 1000)
        b = draw_bits(make_stream(42, 0), 1000)
        np.testing.assert_array_equal(a, b)

    def test_distinct_cells_differ(self):
        a = draw_bits(make_stream(42, 0), 1000)
        b = draw_bits(make_stream(42, 1), 1000)
        assert not np.array_equal(a, b)

    def test_distinct_seeds_differ(self):
        a = draw_bits(make_stream(42, 0), 1000)
        b = draw_bits(make_stream(43, 0), 1000)
        assert not np.array_equal(a, b)

    def test_golden_replay(self):
        # frozen once from this implementation; any drift breaks replayability
        golden = GOLDEN_PATH.read_text().strip()
        bits = draw_bits(make_stream(42, 0), 64)
        assert "".join(str(int(b)) for b in bits) == golden

    def test_gaussian_pairs_replay(self):
        s1 = make_stream(7, 3)
        s2 = make_stream(7, 3)
        np.testing.assert_array_equal(normals(s1, 2), normals(s2, 2))
        np.testing.assert_array_equal(normals(s1, 2), normals(s2, 2))


class TestBitDraws:
    def test_zero_count_gives_empty_block(self):
        assert draw_bits(make_stream(1, 0), 0).size == 0

    def test_exact_length_no_byte_rounding(self):
        assert draw_bits(make_stream(1, 0), 999).size == 999

    def test_values_are_bits(self):
        bits = draw_bits(make_stream(5, 9), 10_000)
        assert set(np.unique(bits)) <= {0, 1}

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            draw_bits(make_stream(1, 0), -1)

    @given(
        seed=st.integers(0, 2**64 - 1),
        draws=st.lists(
            st.tuples(
                st.sampled_from(["bits", "normal"]),
                st.one_of(st.integers(0, 40), st.sampled_from([999, 1000, 1001, 4097])),
            ),
            max_size=30,
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_same_as_generator_integers_between_normal_draws(self, seed, draws):
        # the raw-word bits, including the high half an odd word count leaves
        # over, reproduce Generator.integers on a twin stream
        stream, twin = make_stream(seed, 5), make_stream(seed, 5).rng
        for kind, count in draws:
            if kind == "bits":
                np.testing.assert_array_equal(
                    draw_bits(stream, count), twin.integers(0, 2, count, dtype=np.uint8))
            else:
                np.testing.assert_array_equal(normals(stream, 2 * count),
                                              twin.standard_normal(2 * count))

    def test_draws_into_out_across_raw_blocks(self):
        # draws longer than one block of raw outputs, written into out, with
        # a high half left over before and after, still follow the stream
        stream, twin = make_stream(77, 3), make_stream(77, 3).rng
        for count in (3, 2 * 65_536 + 7, 6, 200_001, 65_536 + 4, 3):
            out = np.full(count, 9, dtype=np.uint8)
            assert draw_bits(stream, count, out=out) is out
            np.testing.assert_array_equal(out, twin.integers(0, 2, count, dtype=np.uint8))
            np.testing.assert_array_equal(normals(stream, 4), twin.standard_normal(4))

    def test_out_must_have_count_elements(self):
        with pytest.raises(ValueError):
            draw_bits(make_stream(1, 0), 8, out=np.empty(7, dtype=np.uint8))

    def test_mean_of_a_million_draws(self):
        bits = draw_bits(make_stream(123, 0), 1_000_000)
        assert 0.498 <= bits.mean() <= 0.502


class TestGaussianDraws:
    def test_moments_of_a_million_draws(self):
        g = normals(make_stream(99, 4), 1_000_000)
        assert abs(g.mean()) <= 0.005
        assert 0.99 <= g.var() <= 1.01

    def test_substream_correlation_negligible(self):
        a = normals(make_stream(2024, 0), 100_000)
        b = normals(make_stream(2024, 1), 100_000)
        r = np.corrcoef(a, b)[0, 1]
        assert abs(r) < 0.01
