import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import bounds, group_cell

from rdematel.errors import InsufficientExpertsError, IntervalOrderError, InvalidArgumentError, ShapeError
from rdematel.pipeline import check_intervals, crisp_convert, rough_group_matrix

multisets = st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=12)


def intervals(lower, upper):
    """Intervals as one array whose last axis is [lower, upper]."""
    return np.stack([np.asarray(lower, float), np.asarray(upper, float)], axis=-1)


def group_cell_of(values):
    """Cell (0, 1) of ``rough_group_matrix`` on a panel whose experts judge it ``values``, in order."""
    panel = np.zeros((len(values), 2, 2), dtype=np.int64)
    panel[:, 0, 1] = values
    panel[:, 1, 0] = 2
    lo, up = rough_group_matrix(panel)[0, 1]
    return lo, up


class TestApproximations:
    def test_lower_retains_duplicates(self):
        # mean of 0, 1, 1; the distinct values 0, 1 would give 1/2
        assert bounds((0, 1, 1, 3), 1)[0] == 2 / 3

    def test_upper_retains_duplicates(self):
        # mean of 1, 1, 3; the distinct values 1, 3 would give 2
        assert bounds((0, 1, 1, 3), 1)[1] == 5 / 3

    def test_all_equal_set(self):
        assert bounds((2, 2, 2), 2) == (2.0, 2.0)

    def test_extremes(self):
        assert bounds((0, 4), 0) == (0.0, 2.0)
        assert bounds((0, 4), 4) == (2.0, 4.0)


class TestRoughBounds:
    def test_worked_example(self):
        lo, up = bounds((0, 1, 1, 3), 1)
        assert lo == pytest.approx(2 / 3, abs=1e-9)
        assert up == pytest.approx(5 / 3, abs=1e-9)

    def test_unanimity_collapses(self):
        assert bounds((3, 3, 3), 3) == (3.0, 3.0)

    def test_maximum_judgment(self):
        lo, up = bounds((0, 1, 1, 3), 3)
        assert lo == pytest.approx(1.25, abs=1e-9)
        assert up == pytest.approx(3.0, abs=1e-9)

    @given(multisets)
    def test_brackets_every_judgment(self, values):
        for k in values:
            lo, up = bounds(values, k)
            assert lo <= k <= up
            assert min(values) <= lo and up <= max(values)

    @given(multisets)
    def test_monotone_in_judgment(self, values):
        forms = [bounds(values, k) for k in sorted(values)]
        for (lo_a, up_a), (lo_b, up_b) in zip(forms, forms[1:]):
            assert lo_a <= lo_b
            assert up_a <= up_b

    @given(multisets)
    def test_endpoint_laws(self, values):
        assert bounds(values, min(values))[0] == min(values)
        assert bounds(values, max(values))[1] == max(values)


class TestAverageRough:
    """The group cell: ``rough_group_matrix``'s mean of the experts' rough numbers."""

    def test_two_intervals(self):
        # judgment 1 -> [1, 2], judgment 3 -> [2, 3]
        assert group_cell_of((1, 3)) == (1.5, 2.5)

    def test_singleton(self):
        # one distinct judgment: every expert's rough number is the same point, and so is their mean
        assert group_cell_of((2, 2, 2, 2)) == (2.0, 2.0)

    def test_component_means(self):
        # rough forms 0 -> [0, 5/4], 1 -> [2/3, 5/3] twice, 3 -> [5/4, 3]
        lo, up = group_cell_of((0, 1, 1, 3))
        assert lo == pytest.approx(31 / 48, abs=1e-15)  # 0.6458
        assert up == pytest.approx(91 / 48, abs=1e-15)  # 1.8958
        assert (lo, up) == pytest.approx(group_cell((0, 1, 1, 3)), abs=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(InsufficientExpertsError):
            rough_group_matrix(np.zeros((0, 2, 2), dtype=np.int64))

    @given(multisets.filter(lambda vs: len(vs) >= 2))
    def test_within_judgment_range(self, values):
        lo, up = group_cell_of(values)
        assert min(values) <= lo <= up <= max(values)


class TestCrispConvert:
    def test_two_intervals(self):
        out = crisp_convert(intervals([0, 1], [1, 2]))
        assert out[0] == pytest.approx(1 / 3, abs=1e-9)
        assert out[1] == pytest.approx(5 / 3, abs=1e-9)

    def test_degenerate_envelope(self):
        out = crisp_convert(intervals([2.5, 2.5], [2.5, 2.5]))
        assert out.tolist() == [2.5, 2.5]

    def test_point_intervals_are_fixed(self):
        # crisping a list of points is the identity, which is what makes the
        # crisp method the degenerate case of the rough pipeline
        pts = [0.5, 1.0, 3.5]
        out = crisp_convert(intervals(pts, pts))
        assert out == pytest.approx(pts, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(InvalidArgumentError):
            crisp_convert(np.empty((0, 2)))

    def test_grid_peaks_below_four_and_a_half_of_its_bounds(self):
        # nl, nu and the fraction's two terms, each the size of one bound matrix, and no temporary beside them
        grid = np.sort(np.random.default_rng(0).random((200, 200, 2)), axis=-1)
        tracemalloc.start()
        try:
            crisp_convert(grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.5 * grid[..., 0].nbytes

    @given(st.lists(st.floats(min_value=-10, max_value=10), min_size=1, max_size=8))
    def test_point_list_preserves_order(self, vs):
        out = crisp_convert(intervals(vs, vs))
        for (a, oa), (b, ob) in zip(zip(vs, out), zip(vs[1:], out[1:])):
            if a < b:
                assert oa <= ob

    @given(
        st.lists(
            st.tuples(st.floats(min_value=-5, max_value=5), st.floats(min_value=0, max_value=5)),
            min_size=1,
            max_size=8,
        ),
        st.randoms(use_true_random=False),
    )
    def test_envelope_and_permutation_equivariance(self, pairs, rng):
        lower = np.array([lo for lo, _ in pairs])
        upper = np.array([lo + w for lo, w in pairs])
        out = crisp_convert(intervals(lower, upper))
        assert out.tolist() == scalar_crisp_convert(lower.tolist(), upper.tolist())
        assert np.all((lower.min() - 1e-9 <= out) & (out <= upper.max() + 1e-9))
        perm = list(range(len(pairs)))
        rng.shuffle(perm)
        out_p = crisp_convert(intervals(lower[perm], upper[perm]))
        assert out_p == pytest.approx(out[perm], abs=1e-12)


def scalar_crisp_convert(lower, upper):
    """The conversion one interval at a time in plain floats, as a reference."""
    lo, hi = min(lower), max(upper)
    span = hi - lo
    if span == 0.0:
        return [lo] * len(lower)
    out = []
    for a, b in zip(lower, upper):
        nl, nu = (a - lo) / span, (b - lo) / span
        out.append(lo + (nl * (1.0 - nl) + nu * nu) / (1.0 - nl + nu) * span)
    return out


def test_reversed_bounds_rejected():
    with pytest.raises(IntervalOrderError, match=r"^entry \(0,1\) has lower 2.0 > upper 1.0$"):
        check_intervals(intervals([[0.0, 2.0], [0.0, 0.0]], [[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(IntervalOrderError, match=r"^entry \(1\) has lower 2.0 > upper 1.5$"):
        crisp_convert(intervals([0.0, 2.0], [1.0, 1.5]))


def test_single_reversed_interval_rejected():
    with pytest.raises(IntervalOrderError, match=r"^entry \(\) has lower 3.0 > upper 1.0$"):
        crisp_convert([3.0, 1.0])


@pytest.mark.parametrize("grid, message", [
    ([[np.nan, 1.0], [0.0, 2.0]], r"^entry \(0\) has a non-finite bound: lower nan, upper 1.0$"),
    ([[0.0, np.inf], [0.0, 2.0]], r"^entry \(0\) has a non-finite bound: lower 0.0, upper inf$"),
    ([[[0.0, 0.0], [1.0, 2.0]], [[0.5, 1.0], [-np.inf, 0.0]]], r"^entry \(1,1\) has a non-finite bound"),
], ids=["nan", "inf", "grid"])
def test_non_finite_bounds_rejected_naming_the_entry(grid, message):
    # a non-finite bound used to give NaN crisp values, or a divide warning
    with pytest.raises(InvalidArgumentError, match=message):
        crisp_convert(grid)
    with pytest.raises(InvalidArgumentError, match=message):
        check_intervals(grid)


def test_intervals_need_a_bound_axis():
    for shape in [(3,), (2, 3), ()]:
        with pytest.raises(ShapeError, match="last axis"):
            crisp_convert(np.zeros(shape))
