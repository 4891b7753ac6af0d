import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rdematel.errors import IntervalOrderError, InvalidArgumentError
from rdematel.rough import (
    JudgmentSet,
    RoughNumber,
    average_rough,
    crisp_convert,
    lower_approximation,
    rough_bounds,
    upper_approximation,
)

judgment_sets = st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=12).map(
    lambda vs: JudgmentSet(tuple(vs))
)


class TestApproximations:
    def test_lower_retains_duplicates(self):
        js = JudgmentSet((0, 1, 1, 3))
        assert lower_approximation(js, 1).values == (0, 1, 1)

    def test_upper_retains_duplicates(self):
        js = JudgmentSet((0, 1, 1, 3))
        assert upper_approximation(js, 1).values == (1, 1, 3)

    def test_all_equal_set(self):
        js = JudgmentSet((2, 2, 2))
        assert lower_approximation(js, 2).values == (2, 2, 2)
        assert upper_approximation(js, 2).values == (2, 2, 2)

    def test_extremes(self):
        assert lower_approximation(JudgmentSet((0, 4)), 0).values == (0,)
        assert upper_approximation(JudgmentSet((0, 4)), 4).values == (4,)

    def test_absent_judgment_rejected(self):
        with pytest.raises(InvalidArgumentError):
            lower_approximation(JudgmentSet((0, 1)), 3)
        with pytest.raises(InvalidArgumentError):
            upper_approximation(JudgmentSet((0, 1)), 3)

    def test_empty_set_rejected(self):
        with pytest.raises(InvalidArgumentError):
            JudgmentSet(())


class TestRoughBounds:
    def test_worked_example(self):
        rn = rough_bounds(JudgmentSet((0, 1, 1, 3)), 1)
        assert rn.lower == pytest.approx(2 / 3, abs=1e-9)
        assert rn.upper == pytest.approx(5 / 3, abs=1e-9)

    def test_unanimity_collapses(self):
        rn = rough_bounds(JudgmentSet((3, 3, 3)), 3)
        assert rn == RoughNumber(3.0, 3.0)

    def test_maximum_judgment(self):
        rn = rough_bounds(JudgmentSet((0, 1, 1, 3)), 3)
        assert rn.lower == pytest.approx(1.25, abs=1e-9)
        assert rn.upper == pytest.approx(3.0, abs=1e-9)

    @given(judgment_sets)
    def test_brackets_every_judgment(self, js):
        for k in js:
            rn = rough_bounds(js, k)
            assert rn.lower <= k <= rn.upper
            assert min(js.values) <= rn.lower and rn.upper <= max(js.values)

    @given(judgment_sets)
    def test_monotone_in_judgment(self, js):
        bounds = [rough_bounds(js, k) for k in js.values]
        for a, b in zip(bounds, bounds[1:]):
            assert a.lower <= b.lower
            assert a.upper <= b.upper

    @given(judgment_sets)
    def test_endpoint_laws(self, js):
        assert rough_bounds(js, min(js.values)).lower == min(js.values)
        assert rough_bounds(js, max(js.values)).upper == max(js.values)


class TestAverageRough:
    def test_two_intervals(self):
        assert average_rough([RoughNumber(1, 2), RoughNumber(3, 4)]) == RoughNumber(2, 3)

    def test_singleton(self):
        assert average_rough([RoughNumber(5, 5)]) == RoughNumber(5, 5)

    def test_component_means(self):
        seq = [
            RoughNumber(2 / 3, 5 / 3),
            RoughNumber(2 / 3, 5 / 3),
            RoughNumber(1.25, 3.0),
            RoughNumber(1 / 3, 1.25),
        ]
        avg = average_rough(seq)
        assert avg.lower == pytest.approx(35 / 48, abs=1e-12)  # 0.7292
        assert avg.upper == pytest.approx(91 / 48, abs=1e-12)  # 1.8958

    def test_empty_rejected(self):
        with pytest.raises(InvalidArgumentError):
            average_rough([])


class TestCrispConvert:
    def test_two_intervals(self):
        out = crisp_convert([0, 1], [1, 2])
        assert out[0] == pytest.approx(1 / 3, abs=1e-9)
        assert out[1] == pytest.approx(5 / 3, abs=1e-9)

    def test_degenerate_envelope(self):
        out = crisp_convert([2.5, 2.5], [2.5, 2.5])
        assert out.tolist() == [2.5, 2.5]

    def test_point_intervals_are_fixed(self):
        # crisping a list of points is the identity, which is what makes the
        # crisp method the degenerate case of the rough pipeline
        pts = [0.5, 1.0, 3.5]
        out = crisp_convert(pts, pts)
        assert out == pytest.approx(pts, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(InvalidArgumentError):
            crisp_convert([], [])

    @given(st.lists(st.floats(min_value=-10, max_value=10), min_size=1, max_size=8))
    def test_point_list_preserves_order(self, vs):
        out = crisp_convert(vs, vs)
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
        out = crisp_convert(lower, upper)
        assert out.tolist() == scalar_crisp_convert(lower.tolist(), upper.tolist())
        assert np.all((lower.min() - 1e-9 <= out) & (out <= upper.max() + 1e-9))
        perm = list(range(len(pairs)))
        rng.shuffle(perm)
        out_p = crisp_convert(lower[perm], upper[perm])
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
    with pytest.raises(IntervalOrderError):
        RoughNumber(2, 1)
    with pytest.raises(IntervalOrderError):
        crisp_convert([0.0, 2.0], [1.0, 1.5])


def test_width_and_midpoint():
    rn = RoughNumber(1.0, 3.0)
    assert rn.width == 2.0
    assert rn.midpoint == 2.0
    assert not rn.is_point()
    assert RoughNumber(2, 2).is_point()
    assert math.isclose(rough_bounds(JudgmentSet((1, 2)), 1).width, 0.5)
