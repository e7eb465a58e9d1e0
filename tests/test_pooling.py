import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import slots_of
from potsim.descriptors import HISTOGRAM_DIM
from potsim.pooling import (
    SLOTS,
    build_intervals,
    gradient_pool,
    max_pool,
    pot_vector,
    slot_bounds,
    sum_pool,
)


def series_from(values):
    """Series where every histogram dim carries the same scalar per step."""
    return np.tile(np.asarray(values, dtype=float)[:, None], (1, HISTOGRAM_DIM))


class TestBuildIntervals:
    def test_pyramid_124(self):
        assert build_intervals(8, [1, 2, 4]) == [
            (0, 8),
            (0, 4),
            (4, 8),
            (0, 2),
            (2, 4),
            (4, 6),
            (6, 8),
        ]

    def test_uneven_remainder_goes_first(self):
        assert build_intervals(7, [2]) == [(0, 4), (4, 7)]

    def test_single_level(self):
        assert build_intervals(5, [1]) == [(0, 5)]

    def test_too_short(self):
        with pytest.raises(ValueError, match="too short"):
            build_intervals(3, [1, 2, 4])

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(min_value=1, max_value=50),
        st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=4),
    )
    def test_each_level_partitions_range(self, series_len, levels):
        if series_len < max(levels):
            return
        intervals = build_intervals(series_len, levels)
        assert len(intervals) == sum(levels)
        pos = 0
        for level in levels:
            chunk = intervals[pos : pos + level]
            assert chunk[0][0] == 0 and chunk[-1][1] == series_len
            lengths = [e - s for s, e in chunk]
            assert max(lengths) - min(lengths) <= 1
            assert lengths == sorted(lengths, reverse=True)
            for (_, e1), (s2, _) in zip(chunk, chunk[1:]):
                assert e1 == s2
            pos += level


class TestPoolOperators:
    def test_sum_constant(self):
        series = series_from([3.0, 3.0, 3.0, 3.0])
        np.testing.assert_allclose(sum_pool(series, (0, 4)), 12.0)

    def test_sum_single_entry(self):
        series = series_from([5.0, 9.0])
        np.testing.assert_allclose(sum_pool(series, (1, 2)), 9.0)

    def test_sum_hand_example(self):
        series = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(sum_pool(series, (0, 2)), [4.0, 6.0])

    def test_max(self):
        series = series_from([1.0, 7.0, 3.0])
        np.testing.assert_allclose(max_pool(series, (0, 3)), 7.0)

    def test_max_all_zero(self):
        np.testing.assert_array_equal(max_pool(series_from([0, 0]), (0, 2)), 0.0)

    def test_gradient_constant(self):
        out = gradient_pool(series_from([2.0, 2.0, 2.0]), (0, 3))
        np.testing.assert_array_equal(out, np.zeros(2 * HISTOGRAM_DIM))

    def test_gradient_increasing(self):
        out = gradient_pool(series_from([0.0, 1.0, 3.0]), (0, 3))
        np.testing.assert_allclose(out[:HISTOGRAM_DIM], 3.0)
        np.testing.assert_allclose(out[HISTOGRAM_DIM:], 0.0)

    def test_gradient_mixed(self):
        out = gradient_pool(series_from([5.0, 2.0, 4.0]), (0, 3))
        np.testing.assert_allclose(out[:HISTOGRAM_DIM], 2.0)
        np.testing.assert_allclose(out[HISTOGRAM_DIM:], 3.0)

    def test_gradient_single_entry(self):
        out = gradient_pool(series_from([5.0]), (0, 1))
        np.testing.assert_array_equal(out, np.zeros(2 * HISTOGRAM_DIM))

    def test_out_of_bounds(self):
        with pytest.raises(ValueError, match="out of bounds"):
            sum_pool(series_from([1.0]), (0, 2))


def random_series(length, seed):
    return np.random.default_rng(seed).uniform(0, 100, size=(length, HISTOGRAM_DIM))


class TestPoolProperties:
    def test_sum_splits_additively(self):
        # bitwise equality does not survive the change in accumulation order
        series = random_series(9, seed=1)
        whole = sum_pool(series, (1, 8))
        np.testing.assert_allclose(
            whole, sum_pool(series, (1, 5)) + sum_pool(series, (5, 8)), rtol=1e-12
        )

    def test_max_splits_by_elementwise_max(self):
        series = random_series(9, seed=2)
        whole = max_pool(series, (0, 9))
        np.testing.assert_array_equal(
            whole, np.maximum(max_pool(series, (0, 4)), max_pool(series, (4, 9)))
        )

    def test_reversal_swaps_gradient_blocks(self):
        series = random_series(7, seed=3)
        reversed_series = series[::-1].copy()
        fwd = gradient_pool(series, (0, 7))
        rev = gradient_pool(reversed_series, (0, 7))
        np.testing.assert_allclose(fwd[:HISTOGRAM_DIM], rev[HISTOGRAM_DIM:], rtol=1e-12)
        np.testing.assert_allclose(fwd[HISTOGRAM_DIM:], rev[:HISTOGRAM_DIM], rtol=1e-12)


class TestSlotBounds:
    def test_layout(self):
        """Per series n values of sum, 2n of gradient and n of max."""
        assert slot_bounds(16) == (0, 2, 6, 8, 10, 14, 16)
        assert slot_bounds(0) == (0,) * 7

    @pytest.mark.parametrize("size", [1, 12, 97])
    def test_length_not_a_multiple_of_8_rejected(self, size):
        with pytest.raises(ValueError, match="multiple of 8"):
            slot_bounds(size)


class TestPotVector:
    def test_dimensions(self):
        hof = random_series(8, seed=4)
        hog = random_series(8, seed=5)
        feature = pot_vector(hof, hog, [1, 2, 4])
        assert feature.shape == (11200,) and feature.dtype == np.float64
        assert [len(vec) for vec in slots_of(feature)] == [1400, 2800, 1400] * 2

    def test_all_zero_series(self):
        zero = np.zeros((8, HISTOGRAM_DIM))
        feature = pot_vector(zero, zero, [1, 2, 4])
        np.testing.assert_array_equal(feature, 0.0)

    def test_degenerate_single_entry(self):
        hof = random_series(1, seed=6)
        hog = random_series(1, seed=7)
        feature = pot_vector(hof, hog, [1])
        by_slot = dict(zip(SLOTS, slots_of(feature)))
        np.testing.assert_array_equal(by_slot[("hof", "sum")], hof[0])
        np.testing.assert_array_equal(by_slot[("hof", "max")], hof[0])
        np.testing.assert_array_equal(by_slot[("hof", "gradient")], np.zeros(2 * HISTOGRAM_DIM))
        np.testing.assert_array_equal(by_slot[("hog", "sum")], hog[0])

    def test_nonnegative(self):
        feature = pot_vector(random_series(6, 8), random_series(6, 9), [1, 2])
        assert (feature >= 0).all()

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="lengths differ"):
            pot_vector(random_series(4, 1), random_series(5, 2), [1])

    def test_width_mismatch(self):
        """The feature's length alone gives its slots, so both series must
        be equally wide."""
        with pytest.raises(ValueError, match="widths differ"):
            pot_vector(np.ones((4, HISTOGRAM_DIM)), np.ones((4, 40)), [1])
