import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rdematel import crisp as crisp_mod
from rdematel.errors import (
    BundleValidationError,
    DegenerateInputError,
    InsufficientExpertsError,
    InvalidArgumentError,
    ShapeError,
    SingularMatrixError,
)
from rdematel.fixtures import load_study_bundle
from rdematel.ingest import parse_study_bundle
from rdematel.pipeline import (
    TAU_MAX_TOTAL_SUM,
    TAU_MAX_UPPER_SUM,
    RoughMatrix,
    RoughScores,
    Scale,
    analyze_rough,
    classify,
    normalize_rough,
    prominence_relation,
    rough_group_matrix,
    rough_sums,
    rough_total_relation,
    weights,
)
from oracles import group_cell

RNG = np.random.default_rng(7121)


def random_expert_panel(n, m, rng=RNG):
    """An (m, n, n) panel of judgments on 0..4 with zero diagonals."""
    panel = rng.integers(0, 5, size=(m, n, n))
    panel[:, range(n), range(n)] = 0
    return panel


@pytest.fixture(scope="module")
def paper_group():
    return load_study_bundle().rough_group


def oracle_group_matrix(panel):
    """Per-cell brute-force enumeration of the group matrix."""
    n = panel.shape[1]
    lower, upper = np.zeros((n, n)), np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                lower[i, j], upper[i, j] = group_cell(panel[:, i, j].tolist())
    return lower, upper


@st.composite
def expert_panels(draw):
    n = draw(st.integers(2, 8))
    m = draw(st.integers(2, 25))
    lo = draw(st.integers(0, 5))
    hi = draw(st.integers(lo + 1, 9))
    # off-diagonal judgments on lo..hi (e.g. 1..9) around the structural-zero diagonal
    grids = draw(hnp.arrays(np.int64, (m, n, n), elements=st.integers(lo, hi)))
    grids[:, np.arange(n), np.arange(n)] = 0
    order = draw(st.permutations(range(m)))
    return grids, grids[order]


class TestScale:
    def test_negative_scale_minimum_rejected(self):
        with pytest.raises(InvalidArgumentError, match="non-negative"):
            Scale(-1, 4)

    def test_scale_above_zero_keeps_structural_zero_diagonal(self):
        doc = {
            "scale": {"min": 1, "max": 9},
            "criteria": [{"id": "A"}, {"id": "B"}],
            "respondents": [{"id": "e"}, {"id": "f"}],
            "matrices": {"e": [[0, 9], [1, 0]], "f": [[0, 1], [9, 0]]},
        }
        assert parse_study_bundle(json.dumps(doc)).panel.tolist() == [[[0, 9], [1, 0]], [[0, 1], [9, 0]]]
        doc["matrices"]["e"][1][0] = 0
        with pytest.raises(BundleValidationError) as exc_info:
            parse_study_bundle(json.dumps(doc))
        assert exc_info.value.errors == ["matrices[e]: cell (B,A) = 0 outside scale 1..9"]


class TestRoughGroupMatrix:
    def test_two_judgment_cell(self):
        r = rough_group_matrix(np.array([[[0, 2], [1, 0]], [[0, 4], [1, 0]]]))
        # {2,4}: judgment 2 -> [2,3], judgment 4 -> [3,4]; averaged [2.5, 3.5]
        assert r.lower[0, 1] == pytest.approx(2.5)
        assert r.upper[0, 1] == pytest.approx(3.5)
        assert r.lower[1, 0] == r.upper[1, 0] == 1.0

    def test_unanimous_cell_collapses(self):
        r = rough_group_matrix(np.tile([[0, 3], [2, 0]], (3, 1, 1)))
        assert np.array_equal(r.lower, r.upper)

    def test_diagonal_is_point_zero(self):
        r = rough_group_matrix(random_expert_panel(5, 4))
        assert not np.diag(r.lower).any() and not np.diag(r.upper).any()

    def test_single_expert_rejected(self):
        with pytest.raises(InsufficientExpertsError):
            rough_group_matrix(random_expert_panel(3, 1))

    def test_dimension_mismatch_rejected(self):
        for shape in [(2, 3, 4), (3, 3), (2, 2, 2, 2)]:
            with pytest.raises(ShapeError, match="panel must be an"):
                rough_group_matrix(np.zeros(shape, dtype=np.int64))

    def test_judgments_near_the_int64_limit_do_not_wrap(self):
        # two judgments of 2**62 sum to 2**63, one past the largest int64
        big = 2**62
        doc = {
            "scale": {"min": 0, "max": big},
            "criteria": [{"id": "A"}, {"id": "B"}],
            "respondents": [{"id": "e1"}, {"id": "e2"}],
            "matrices": {"e1": [[0, big], [0, 0]], "e2": [[0, big], [0, 0]]},
        }
        r = rough_group_matrix(parse_study_bundle(json.dumps(doc)).panel)
        assert r.lower[0, 1] == r.upper[0, 1] == float(big)

    @settings(deadline=None)
    @given(expert_panels())
    def test_matches_per_cell_oracle_in_any_expert_order(self, panel):
        experts, shuffled = panel
        r = rough_group_matrix(experts)
        lower, upper = oracle_group_matrix(experts)
        assert np.abs(r.lower - lower).max() <= 1e-12
        assert np.abs(r.upper - upper).max() <= 1e-12
        again = rough_group_matrix(shuffled)
        assert np.array_equal(r.lower, again.lower) and np.array_equal(r.upper, again.upper)


class TestNormalizeRough:
    def test_paper_tau_total(self, paper_group):
        normalized, tau = normalize_rough(paper_group, TAU_MAX_TOTAL_SUM)
        assert tau == pytest.approx(28.2619, abs=1e-4)
        assert normalized.lower[0, 1] == pytest.approx(0.0643, abs=5e-5)
        assert normalized.upper[0, 1] == pytest.approx(0.1153, abs=5e-5)

    def test_paper_tau_upper(self, paper_group):
        normalized, tau = normalize_rough(paper_group, TAU_MAX_UPPER_SUM)
        assert tau == pytest.approx(18.9857, abs=1e-4)
        assert normalized.lower[0, 1] == pytest.approx(0.0958, abs=5e-5)
        assert normalized.upper[0, 1] == pytest.approx(0.1717, abs=5e-5)

    def test_already_normalized_with_unit_tau(self):
        r = RoughMatrix(np.array([[0, 0.2], [0.3, 0]]), np.array([[0, 0.5], [0.5, 0]]))
        normalized, tau = normalize_rough(r, TAU_MAX_UPPER_SUM)
        rescaled = RoughMatrix(normalized.lower * tau, normalized.upper * tau)
        assert np.allclose(rescaled.lower, r.lower) and np.allclose(rescaled.upper, r.upper)

    def test_unknown_strategy_rejected(self, paper_group):
        with pytest.raises(InvalidArgumentError):
            normalize_rough(paper_group, "median")

    def test_zero_matrix_rejected(self):
        z = RoughMatrix(np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(DegenerateInputError):
            normalize_rough(z)

    def test_normalized_uppers_at_most_one(self, paper_group):
        for strategy in (TAU_MAX_TOTAL_SUM, TAU_MAX_UPPER_SUM):
            normalized, _ = normalize_rough(paper_group, strategy)
            assert normalized.upper.max() <= 1.0


class TestRoughTotalRelation:
    def test_zero_matrix(self):
        z = RoughMatrix(np.zeros((3, 3)), np.zeros((3, 3)))
        t = rough_total_relation(z)
        assert not t.lower.any() and not t.upper.any()

    def test_degenerate_intervals_match_crisp(self):
        d = crisp_mod.normalize_crisp(random_expert_panel(5, 1)[0].astype(float)) * 0.9
        t = rough_total_relation(RoughMatrix(d, d))
        t_crisp = crisp_mod.solve_total_relation(d)
        assert np.allclose(t.lower, t_crisp, atol=1e-12)
        assert np.allclose(t.upper, t_crisp, atol=1e-12)

    def test_interval_order_preserved(self, paper_group):
        normalized, _ = normalize_rough(paper_group)
        t = rough_total_relation(normalized)
        assert np.all(t.lower <= t.upper + 1e-12)

    def test_near_singular_bound_named(self):
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(SingularMatrixError, match=r"^upper-bound matrix: .*rho\(D\)"):
            rough_total_relation(RoughMatrix(0.5 * swap, (1 - 1e-10) * swap))

    def test_negative_bound_named(self):
        lower = np.array([[0.0, -0.1], [0.2, 0.0]])
        with pytest.raises(InvalidArgumentError, match="^lower-bound matrix: .*non-negative"):
            rough_total_relation(RoughMatrix(lower, np.abs(lower)))

    def test_paper_anchor(self, paper_group):
        normalized, _ = normalize_rough(paper_group, TAU_MAX_TOTAL_SUM)
        t = rough_total_relation(normalized)
        assert t.lower[0, 1] == pytest.approx(0.0870, abs=2e-3)


class TestRoughSums:
    def test_interval_sums_balance(self, paper_group):
        normalized, _ = normalize_rough(paper_group)
        scores = rough_sums(rough_total_relation(normalized))
        assert scores.x_lower.sum() == pytest.approx(scores.y_lower.sum(), abs=1e-9)
        assert scores.x_upper.sum() == pytest.approx(scores.y_upper.sum(), abs=1e-9)

    def test_constant_matrix(self):
        c = 0.05
        t = RoughMatrix(np.full((4, 4), c), np.full((4, 4), c))
        scores = rough_sums(t)
        assert np.allclose(scores.x_lower, 4 * c) and np.allclose(scores.y_upper, 4 * c)


class TestScoresToResults:
    def test_prominence_relation_from_table3(self):
        x = np.array([3.6135, 2.8362])
        y = np.array([3.4314, 3.1900])
        z = np.zeros(2)
        m, n = prominence_relation(RoughScores(z, z, z, z, x_crisp=x, y_crisp=y))
        assert m[0] == pytest.approx(7.0448, abs=1e-3)
        assert n[0] == pytest.approx(0.1821, abs=1e-9)
        assert n[1] == pytest.approx(-0.3539, abs=1e-4)

    def test_weights_from_table3_values(self):
        x = np.array([3.6135, 3.4416, 3.3429, 3.1392, 2.8362, 2.9834, 3.2453])
        y = np.array([3.4314, 3.4031, 3.1950, 3.1560, 3.1900, 3.2142, 3.3505])
        omega, w, ranks = weights(x + y, x - y)
        assert omega[0] == pytest.approx(7.047184, abs=1e-3)
        assert w[0] == pytest.approx(0.1547, abs=1e-3)
        assert w[4] == pytest.approx(0.1325, abs=1e-3)
        assert list(ranks) == [1, 2, 4, 5, 7, 6, 3]
        assert w.sum() == pytest.approx(1.0, abs=1e-9)

    def test_single_criterion(self):
        omega, w, ranks = weights(np.array([4.2]), np.array([0.1]))
        assert w[0] == 1.0 and ranks[0] == 1

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateInputError):
            weights(np.zeros(3), np.zeros(3))

    def test_tied_omegas_rank_by_input_order(self):
        omega, w, ranks = weights(np.array([3.0, 3.0, 5.0]), np.zeros(3))
        assert list(ranks) == [2, 3, 1]

    def test_ranking_invariant_under_scaling(self):
        m = np.array([2.0, 5.0, 3.0])
        n = np.array([0.5, -1.0, 0.2])
        _, _, r1 = weights(m, n)
        _, _, r2 = weights(10 * m, 10 * n)
        assert list(r1) == list(r2)

    def test_classify_signs(self):
        assert classify(np.array([0.18, -0.35, 0.0])) == ["cause", "effect", "neutral"]

    def test_classify_crisp_example(self):
        assert classify(np.array([1.0, -1.0])) == ["cause", "effect"]


class TestAnalyzeRough:
    def test_degenerate_experts_match_crisp_dematel(self):
        base = random_expert_panel(6, 1)[0]
        analysis = analyze_rough(
            [f"C{i}" for i in range(6)],
            panel=np.tile(base, (4, 1, 1)),
            tau_strategy=TAU_MAX_UPPER_SUM,
        )
        d = crisp_mod.normalize_crisp(base.astype(float))
        s = crisp_mod.crisp_scores(crisp_mod.solve_total_relation(d))
        assert np.allclose(analysis.scores.x_crisp, s.r, atol=1e-9)
        assert np.allclose(analysis.scores.y_crisp, s.d, atol=1e-9)

    def test_expert_order_invariance(self):
        experts = random_expert_panel(5, 7)
        crit = [f"C{i}" for i in range(5)]
        a1 = analyze_rough(crit, panel=experts)
        a2 = analyze_rough(crit, panel=experts[::-1])
        assert np.array_equal(a1.total.lower, a2.total.lower)
        assert np.array_equal(a1.total.upper, a2.total.upper)
        assert a1.results == a2.results

    def test_criterion_permutation_equivariance(self):
        experts = random_expert_panel(5, 4)
        crit = [f"C{i}" for i in range(5)]
        perm = list(RNG.permutation(5))
        permuted = experts[:, perm][:, :, perm]
        a1 = analyze_rough(crit, panel=experts)
        a2 = analyze_rough([crit[i] for i in perm], panel=permuted)
        for pos, i in enumerate(perm):
            r1, r2 = a1.results[i], a2.results[pos]
            assert r1.criterion_id == r2.criterion_id
            assert r1.omega == pytest.approx(r2.omega, abs=1e-9)
            assert r1.rank == r2.rank
            assert r1.group == r2.group

    def test_duplicate_expert_changes_multiset_means(self):
        experts = random_expert_panel(3, 3)
        crit = ["A", "B", "C"]
        a1 = analyze_rough(crit, panel=experts)
        dup = np.concatenate([experts, experts[:1]])
        a2 = analyze_rough(crit, panel=dup)
        # group bounds must equal the enumeration over the enlarged multiset
        lower, upper = group_cell(dup[:, 0, 1].tolist())
        assert a2.group_matrix.lower[0, 1] == pytest.approx(lower, abs=1e-12)
        assert a2.group_matrix.upper[0, 1] == pytest.approx(upper, abs=1e-12)
        assert a1.group_matrix.n == a2.group_matrix.n

    def test_interval_order_through_all_stages(self):
        experts = random_expert_panel(6, 5)
        a = analyze_rough([f"C{i}" for i in range(6)], panel=experts)
        for m in (a.group_matrix, a.normalized, a.total):
            assert np.all(m.lower <= m.upper + 1e-12)

    def test_unanimous_panel_at_unit_row_sums_rejected(self):
        # every row of D sums to 1 under max-upper-sum, so rho(D) = 1 and (I - D) is singular
        grid = np.full((4, 4), 4)
        np.fill_diagonal(grid, 0)
        with pytest.raises(SingularMatrixError, match=r"^lower-bound matrix: .*rho\(D\) = 1"):
            analyze_rough(list("ABCD"), panel=np.tile(grid, (3, 1, 1)), tau_strategy=TAU_MAX_UPPER_SUM)

    def test_one_criterion_rejected(self):
        with pytest.raises(InvalidArgumentError):
            analyze_rough(["only"], group_matrix=RoughMatrix(np.zeros((1, 1)), np.zeros((1, 1))))

    def test_requires_exactly_one_input_mode(self):
        with pytest.raises(InvalidArgumentError):
            analyze_rough(["a", "b"])
