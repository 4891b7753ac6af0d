import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rdematel.crisp import COND_LIMIT, solve_total_relation
from rdematel.errors import InvalidArgumentError, ShapeError, SingularMatrixError
from rdematel.fixtures import _read, load_study_bundle
from rdematel.ingest import CriterionMeta, RespondentMeta, StudyBundle, parse_expert_csv
from rdematel.pipeline import TAU_MAX_UPPER_SUM, TAU_STRATEGIES, normalize_rough
from rdematel.report import AnalysisConfig, run_analysis
from oracles import crisp_dematel, crisp_normalized

RNG = np.random.default_rng(20240817)
FIRST_EXPERT = parse_expert_csv(_read("expert1_direct_relation.csv")).astype(float)


def random_direct_matrix(n, rng=RNG, high=4):
    z = rng.integers(0, high + 1, size=(n, n)).astype(float)
    np.fill_diagonal(z, 0.0)
    return z


def neumann_series(d, tail_norm=1e-13, max_terms=20000):
    """Independent oracle: T as the truncated sum of D^k, k >= 1."""
    total = np.zeros_like(d)
    power = np.eye(d.shape[0])
    for _ in range(max_terms):
        power = power @ d
        total += power
        if np.abs(power).sum(axis=1).max() < tail_norm:
            break
    return total


def guard_cond(d):
    """cond(I - D) as the closure's guard reads it: the smaller of its 1- and inf-norm values, here from an LU inverse."""
    a = np.eye(d.shape[0]) - d
    inv = np.linalg.inv(a)
    return min(np.linalg.norm(a, p) * np.linalg.norm(inv, p) for p in (1, np.inf))


class TestAverage:
    def test_idempotent_on_identical(self):
        a = random_direct_matrix(4)
        assert np.array_equal(crisp_normalized([a, a]), crisp_normalized([a]))

    def test_mean_with_zero_matrix(self):
        a = np.array([[0.0, 2.0], [4.0, 0.0]])
        out = crisp_normalized([a, np.zeros((2, 2))])
        assert np.array_equal(out, [[0, 0.5], [1, 0]])

    def test_single_matrix_unchanged(self):
        a = FIRST_EXPERT
        assert np.array_equal(crisp_normalized([a]), a / a.sum(axis=1).max())


class TestNormalize:
    def test_reference_expert_matrix_row_sums(self):
        z = FIRST_EXPERT
        assert list(z.sum(axis=1)) == [12, 7, 11, 13, 11, 12, 11]
        d = crisp_normalized([z])
        assert np.allclose(d, z / 13.0)
        assert d.sum(axis=1).max() == pytest.approx(1.0)

    def test_small_example(self):
        d = crisp_normalized([[[0.0, 2.0], [1.0, 0.0]]])
        assert np.allclose(d, [[0, 1], [0.5, 0]])


class TestTotalRelation:
    def test_closed_form_2x2(self):
        t = solve_total_relation(np.array([[0.0, 1.0], [0.5, 0.0]]))
        assert np.allclose(t, [[1, 2], [1, 1]], atol=1e-12)

    def test_zero_matrix(self):
        assert np.allclose(solve_total_relation(np.zeros((3, 3))), 0.0)

    def test_neumann_equivalence_on_reference_matrix(self):
        d = crisp_normalized([FIRST_EXPERT])
        t = solve_total_relation(d)
        assert np.abs(t - neumann_series(d)).max() < 1e-9

    @pytest.mark.parametrize("shape", [(2, 3), (4,), (2, 2, 2)])
    def test_non_square_rejected(self, shape):
        with pytest.raises(ShapeError, match=r"must be square, got shape"):
            solve_total_relation(np.zeros(shape))

    def test_singular_rejected(self):
        # spectral radius exactly 1
        with pytest.raises(SingularMatrixError):
            solve_total_relation(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_near_singular_rejected(self):
        # rho(D) = 1 - 1e-10 < 1, but cond(I - D) is about 2e10
        with pytest.raises(SingularMatrixError, match=r"cond = 2\.0+e\+10.*rho\(D\) = 1"):
            solve_total_relation((1 - 1e-10) * np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_nilpotent_near_unit_sums_solves(self):
        # row and column sums near 1 take the series ~38 rounds, yet rho(D) = 0 and D^2 = 0, so T = D
        d = np.array([[0.0, 1 - 1e-10], [0.0, 0.0]])
        assert np.array_equal(solve_total_relation(d), d)

    @pytest.mark.parametrize(
        "d",
        [
            2 * np.array([[0.0, 1.0], [1.0, 0.0]]),  # rho = 2
            1e300 * np.array([[0.0, 1.0], [1.0, 0.0]]),  # the first product overflows
            # every row sums to 1.2: the series grows past float64's range and runs to MAX_ROUNDS
            (lambda raw: raw * (1.2 / raw.sum(axis=1, keepdims=True)))(np.random.default_rng(2).random((200, 200))),
        ],
        ids=["rho-2", "overflow", "round-cap"],
    )
    def test_divergent_series_rejected_without_warnings(self, d):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(SingularMatrixError, match=r"rho\(D\) = [\d.e+]+ >= 1"):
                solve_total_relation(d)

    def test_no_linalg_on_accepted_inputs(self, monkeypatch):
        # the series is its own guard: eigenvalues, cond and any solve or inverse are for error messages only.
        # Under max-upper-sum the bundled study's upper bound has s >= 1, so its series measures each power's norm
        panel = np.random.default_rng(3).integers(0, 5, size=(4, 9, 9))
        panel[:, range(9), range(9)] = 0
        raw = StudyBundle([CriterionMeta(f"C{i}") for i in range(9)], [RespondentMeta(f"X{k}") for k in range(4)],
                          panel=panel)

        def forbidden(*args, **kwargs):
            raise AssertionError("np.linalg called on an accepted input")

        for name in ("eigvals", "cond", "solve", "inv"):
            monkeypatch.setattr(np.linalg, name, forbidden)
        for bundle in (load_study_bundle(), raw):
            for tau in TAU_STRATEGIES:
                run_analysis(bundle, AnalysisConfig(tau_strategy=tau))

    @pytest.mark.parametrize("bad", [-0.1, np.nan, np.inf], ids=["negative", "nan", "inf"])
    def test_negative_or_non_finite_rejected(self, bad):
        with pytest.raises(InvalidArgumentError, match="finite and non-negative"):
            solve_total_relation(np.array([[0.0, bad], [0.5, 0.0]]))

    @settings(max_examples=200, deadline=None)
    @given(
        hnp.arrays(float, st.integers(1, 6).map(lambda n: (n, n)), elements=st.floats(0, 1)),
        st.floats(0, 0.99),
    )
    def test_matches_neumann_oracle_below_unit_radius(self, raw, radius):
        rho = np.abs(np.linalg.eigvals(raw)).max()
        d = raw * (radius / rho) if rho > radius else raw
        cond = guard_cond(d)
        # below unit radius, exactly the ill-conditioned inputs are rejected, up to rounding in either cond
        if cond > COND_LIMIT * (1 + 1e-6):
            with pytest.raises(SingularMatrixError, match=r"ill-conditioned"):
                solve_total_relation(d)
            return
        try:
            t = solve_total_relation(d)
        except SingularMatrixError:
            assert cond >= COND_LIMIT * (1 - 1e-6)
            return
        oracle = neumann_series(d)
        # forward error of the closure grows with cond(I - D); T >= 0 holds up to that rounding
        tol = 1e-11 * cond * max(1.0, oracle.max())
        assert np.abs(t - oracle).max() <= tol
        assert t.min() >= -tol

    def test_matches_lu_oracle_past_unit_sum_bound(self):
        # under max-upper-sum the bundled study's upper bound has s >= 1, so its series measures each power's norm;
        # an LU solve of (I - D)^T T^T = D^T is the oracle
        group = load_study_bundle().rough_group
        rn = group / normalize_rough(group, TAU_MAX_UPPER_SUM)
        upper = rn[..., 1]
        assert min(upper.sum(axis=1).max(), upper.sum(axis=0).max()) >= 1.0
        for d in (rn[..., 0], upper):
            a = np.eye(d.shape[0]) - d
            oracle = np.linalg.solve(a.T, d.T).T
            tol = 1e-11 * np.linalg.cond(a) * max(1.0, oracle.max())
            assert np.abs(solve_total_relation(d) - oracle).max() <= tol

    @pytest.mark.parametrize("s", [1e-300, 0.5, 0.9, 0.999, 1 - 1e-7])
    def test_doubling_product_sums_the_whole_series(self, s):
        # every row of D sums to s, so every row of T sums to s / (1 - s) and the series' tail is as large as the
        # bound s^(2^k) allows; rounding D's entries alone moves those sums by about eps / (1 - s), relative
        raw = np.random.default_rng(1).random((60, 60))
        np.fill_diagonal(raw, 0.0)
        d = raw * (s / raw.sum(axis=1, keepdims=True))
        rows = solve_total_relation(d).sum(axis=1)
        assert np.abs(rows / (s / (1 - s)) - 1).max() <= 16 * np.finfo(float).eps / (1 - s)

    @pytest.mark.parametrize("trial", range(10))
    def test_neumann_equivalence_random(self, trial):
        n = int(RNG.integers(2, 8))
        d = crisp_normalized([random_direct_matrix(n)]) * 0.95
        t = solve_total_relation(d)
        assert np.abs(t - neumann_series(d)).max() < 1e-9


class TestScores:
    def test_2x2_example(self):
        t, r, d = crisp_dematel([[[0.0, 2.0], [1.0, 0.0]]])
        assert np.allclose(t, [[1, 2], [1, 1]], atol=1e-12)
        assert np.allclose(r, [3, 2], atol=1e-12)
        assert np.allclose(d, [2, 3], atol=1e-12)
        assert np.allclose(r + d, [5, 5], atol=1e-12)
        assert np.allclose(r - d, [1, -1], atol=1e-12)

    def test_row_and_column_sums_balance(self):
        _, r, d = crisp_dematel([random_direct_matrix(6)])
        assert r.sum() == pytest.approx(d.sum(), abs=1e-12)


class TestInvariances:
    def test_uniform_scaling_leaves_outputs_unchanged(self):
        z = random_direct_matrix(5)
        d1, d2 = crisp_normalized([z]), crisp_normalized([3.7 * z])
        assert np.allclose(d1, d2, atol=1e-12)

    def test_criterion_permutation_equivariance(self):
        z = random_direct_matrix(5)
        perm = RNG.permutation(5)
        zp = z[np.ix_(perm, perm)]
        t = solve_total_relation(crisp_normalized([z]))
        tp = solve_total_relation(crisp_normalized([zp]))
        assert np.allclose(tp, t[np.ix_(perm, perm)], atol=1e-10)
        (_, r, d), (_, rp, dp) = crisp_dematel([z]), crisp_dematel([zp])
        assert np.allclose(rp, r[perm], atol=1e-10)
        assert np.allclose(dp, d[perm], atol=1e-10)
