import re

import numpy as np
import pytest

from hankelfill import make_mask


class TestRandomVoxel:
    def test_realized_fraction_matches_request(self):
        q = make_mask((256, 256, 3), "random-voxel", seed=1, fraction=0.99)
        missing = 1.0 - q.mean()
        assert abs(missing - 0.99) <= 0.005

    def test_deterministic_given_seed(self):
        a = make_mask((20, 20), "random-voxel", seed=7, fraction=0.5)
        b = make_mask((20, 20), "random-voxel", seed=7, fraction=0.5)
        assert np.array_equal(a, b)
        c = make_mask((20, 20), "random-voxel", seed=8, fraction=0.5)
        assert not np.array_equal(a, c)

    def test_zero_and_full_fractions(self):
        assert make_mask((5, 5), "random-voxel", fraction=0.0).all()
        assert not make_mask((5, 5), "random-voxel", fraction=1.0).any()

    def test_fraction_out_of_range(self):
        with pytest.raises(ValueError, match="fraction"):
            make_mask((5, 5), "random-voxel", fraction=1.5)


class TestSlices:
    def test_contiguous_slices_missing(self):
        q = make_mask((32, 64, 3), "slices", mode=1, start=20, count=11)
        assert not q[:, 20:31, :].any()
        assert q[:, :20, :].all() and q[:, 31:, :].all()
        assert (~q).sum() == 32 * 11 * 3

    def test_zero_count_is_all_observed(self):
        q = make_mask((8, 8), "slices", mode=0, start=3, count=0)
        assert q.all()

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValueError, match="out of bounds"):
            make_mask((8, 8), "slices", mode=0, start=5, count=4)

    def test_missing_parameters_rejected(self):
        with pytest.raises(ValueError, match="needs"):
            make_mask((8, 8), "slices", mode=0)


class TestRandomSlices:
    def test_slice_count_matches_fraction(self):
        q = make_mask((10, 40), "random-slices", seed=3, mode=1, fraction=0.25)
        missing_cols = (~q).all(axis=0)
        partially = (~q).any(axis=0)
        assert missing_cols.sum() == 10
        np.testing.assert_array_equal(missing_cols, partially)  # whole slices only

    def test_deterministic(self):
        a = make_mask((6, 6, 6), "random-slices", seed=4, mode=2, fraction=0.5)
        b = make_mask((6, 6, 6), "random-slices", seed=4, mode=2, fraction=0.5)
        assert np.array_equal(a, b)


class TestRectangles:
    def test_single_rectangle(self):
        q = make_mask((10, 12, 3), "rectangles", rects=[(2, 3, 4, 5)])
        assert not q[2:6, 3:8, :].any()
        assert (~q).sum() == 4 * 5 * 3

    def test_cross_occlusion_from_two_rectangles(self):
        q = make_mask((9, 9), "rectangles", rects=[(0, 4, 9, 1), (4, 0, 1, 9)])
        assert not q[:, 4].any() and not q[4, :].any()
        assert (~q).sum() == 9 + 9 - 1

    def test_out_of_bounds_rectangle(self):
        with pytest.raises(ValueError, match="out of bounds"):
            make_mask((5, 5), "rectangles", rects=[(3, 3, 4, 1)])

    @pytest.mark.parametrize("rect", [(1, 2, 3), (1, 2, 3, 4, 5)])
    def test_a_rectangle_needs_four_values(self, rect):
        with pytest.raises(ValueError, match=re.escape(
                f"rectangle {rect} needs 4 values (row0, col0, height, width), "
                f"got {len(rect)}")):
            make_mask((8, 8), "rectangles", rects=[rect])


@pytest.mark.parametrize("pattern, kwargs, message", [
    ("slices", {"mode": 1.0, "start": 0, "count": 1}, "mode must be an integer, got 1.0"),
    ("slices", {"mode": 0, "start": 1.5, "count": 1}, "start must be an integer, got 1.5"),
    ("slices", {"mode": 0, "start": 0, "count": 2.0}, "count must be an integer, got 2.0"),
    ("random-slices", {"mode": np.float64(1), "fraction": 0.5}, "mode must be an integer"),
    ("rectangles", {"rects": [(1.5, 2, 3, 3)]},
     "a value of rectangle (1.5, 2, 3, 3) must be an integer, got 1.5"),
    ("random-voxel", {"fraction": "0.5"}, "random-voxel needs fraction in [0, 1], got '0.5'"),
    ("random-slices", {"mode": 0, "fraction": "0.5"},
     "random-slices needs mode and fraction in [0, 1]"),
])
def test_a_position_or_fraction_of_the_wrong_type_is_refused(pattern, kwargs, message):
    # a float rectangle was truncated to its integer part, and a float mode,
    # start or count failed with a raw TypeError from the indexing, as did a
    # string fraction from its range check
    with pytest.raises(ValueError, match=re.escape(message)):
        make_mask((8, 8), pattern, **kwargs)


def test_unknown_pattern():
    with pytest.raises(ValueError, match="unknown pattern"):
        make_mask((5, 5), "swiss-cheese")
