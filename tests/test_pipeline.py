import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rdematel import crisp as crisp_mod
from rdematel import pipeline
from rdematel.cli import main as cli_main
from rdematel.errors import (
    BundleValidationError,
    DegenerateInputError,
    InsufficientExpertsError,
    IntervalOrderError,
    InvalidArgumentError,
    ShapeError,
    SingularMatrixError,
)
from rdematel.fixtures import load_study_bundle
from rdematel.ingest import Scale, parse_study_bundle
from rdematel.pipeline import (
    TAU_MAX_TOTAL_SUM,
    TAU_MAX_UPPER_SUM,
    TAU_STRATEGIES,
    analyze_rough,
    classify,
    normalize_rough,
    rough_group_matrix,
    interval_sums,
    rough_sums,
    rough_total_relation,
    weights,
)
from oracles import crisp_dematel, crisp_normalized, group_cell, stacked_total_relation

RNG = np.random.default_rng(7121)


def random_expert_panel(n, m, rng=RNG):
    """An (m, n, n) panel of judgments on 0..4 with zero diagonals."""
    panel = rng.integers(0, 5, size=(m, n, n))
    panel[:, range(n), range(n)] = 0
    return panel


def rough(lower, upper):
    """An (n, n, 2) interval grid from its lower and upper bound matrices."""
    return np.stack([np.asarray(lower, float), np.asarray(upper, float)], axis=-1)


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
    hi = draw(st.integers(lo + 1, 2 ** draw(st.integers(3, 40))))
    # off-diagonal judgments on lo..hi (e.g. 1..9, or 0..2**40) around the structural-zero diagonal
    grids = draw(hnp.arrays(np.int64, (m, n, n), elements=st.integers(lo, hi)))
    grids[:, np.arange(n), np.arange(n)] = 0
    order = draw(st.permutations(range(m)))
    return grids, grids[order], hi


def walk_oracle(panel):
    """The rough group matrix from the walk as first written, kept as the oracle of its leaner form: a ``np.where``
    at each position, and each bound written through a strided column of the (n, n, 2) grid."""
    m, n = panel.shape[:2]
    cells = np.sort(panel.reshape(m, n * n), axis=0)
    group = np.zeros((n, n, 2))
    for bound, walk in zip(group.reshape(n * n, 2).T, (cells, cells[::-1])):
        seen_sum = np.zeros(n * n)
        run = np.zeros(n * n)
        for seen, k in enumerate(walk, 1):
            run += 1
            c = np.where(walk[seen] != k if seen < m else True, run, 0.0)
            seen_sum += c * k
            bound += c * (seen_sum / seen)
            run -= c
    return group / m


@st.composite
def walk_panels(draw):
    """An int16, int32 or int64 (m, n, n) panel, m up to 50, on a band of its dtype's range: from 0, or a few
    values wide so that runs form; an int64 band may reach past 2**62, where the float sums round."""
    dtype = draw(st.sampled_from([np.int16, np.int32, np.int64]))
    top = np.iinfo(dtype).max if dtype is not np.int64 else 2**62 + 2**20
    hi = draw(st.integers(1, top) | st.integers(top - 2**10, top))
    lo = draw(st.sampled_from([0, max(hi - 3, 0)]))
    m, n = draw(st.integers(2, 50)), draw(st.integers(1, 6))
    return draw(hnp.arrays(dtype, (m, n, n), elements=st.integers(lo, hi)))


@st.composite
def int16_panels(draw):
    """An int16 (m, n, n) panel on 0..hi, hi anywhere up to the int16 maximum, or up to the int8 one."""
    m, n, hi = draw(st.integers(2, 25)), draw(st.integers(2, 8)), draw(st.integers(1, 127) | st.integers(1, 2**15 - 1))
    return draw(hnp.arrays(np.int16, (m, n, n), elements=st.integers(0, hi)))


def level_panel(m, levels, dtype, seed=0, unanimous=True):
    """An (m, 3, 3) ``dtype`` panel whose values span exactly ``levels`` levels, from -100 on or as low as the
    dtype fits them: both ends in cell (0, 0), and, if ``unanimous``, one cell where all m experts agree."""
    lo = min(max(int(np.iinfo(dtype).min), -100), int(np.iinfo(dtype).max) - levels + 1)
    panel = np.random.default_rng(seed).integers(lo, lo + levels, size=(m, 3, 3)).astype(dtype)
    panel[:, 0, 0] = lo
    panel[-1, 0, 0] = lo + levels - 1
    if unanimous:
        panel[:, 2, 1] = lo + levels // 2
    return panel


@st.composite
def level_panels(draw):
    """A panel on as many levels as the count path takes from m experts, or one more or one fewer, or as many as
    m, or one more or one fewer: m in {2, 21, 255, 256, 300} (counts of one byte and of two), in an int8, uint8,
    int16 or int64 panel wide enough for the levels."""
    m = draw(st.sampled_from([2, 21, 255, 256, 300]))
    cap = pipeline._count_levels(m)
    levels = draw(st.sampled_from(sorted({cap - 1, cap, cap + 1, m - 1, m, m + 1} - {0})) | st.integers(1, m + 1))
    dtypes = [t for t in (np.int8, np.uint8, np.int16, np.int64) if levels <= 256 or np.iinfo(t).bits > 8]
    return level_panel(m, levels, draw(st.sampled_from(dtypes)), draw(st.integers(0, 2**16)), draw(st.booleans()))


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
        assert r[0, 1, 0] == pytest.approx(2.5)
        assert r[0, 1, 1] == pytest.approx(3.5)
        assert r[1, 0, 0] == r[1, 0, 1] == 1.0

    def test_unanimous_cell_collapses(self):
        r = rough_group_matrix(np.tile([[0, 3], [2, 0]], (3, 1, 1)))
        assert np.array_equal(r[..., 0], r[..., 1])

    def test_diagonal_is_point_zero(self):
        r = rough_group_matrix(random_expert_panel(5, 4))
        assert not np.diagonal(r).any()

    def test_single_expert_rejected(self):
        with pytest.raises(InsufficientExpertsError):
            rough_group_matrix(random_expert_panel(3, 1))

    def test_dimension_mismatch_rejected(self):
        for shape in [(2, 3, 4), (3, 3), (2, 2, 2, 2)]:
            with pytest.raises(ShapeError, match="panel must be an"):
                rough_group_matrix(np.zeros(shape, dtype=np.int64))

    def test_empty_panel_gives_empty_group(self):
        assert rough_group_matrix(np.zeros((3, 0, 0), dtype=np.int64)).shape == (0, 0, 2)

    def test_peak_memory_below_one_and_a_half_panels(self):
        # a 0..4 panel takes the count path: one block's comparisons with a level (a byte a judgment), its counts
        # and their floats, 2**18 bytes at most, and the (n*n, 2) result; no panel-sized array is made
        panel = random_expert_panel(120, 21, np.random.default_rng(0))
        tracemalloc.start()
        try:
            rough_group_matrix(panel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * panel.nbytes

    def test_peak_memory_does_not_grow_with_the_scale(self):
        # on 0..10**9 nearly every judgment is distinct; the n x n rows, each a third of this panel, set the peak
        panel = np.random.default_rng(0).integers(0, 10**9 + 1, size=(3, 40, 40))
        panel[:, range(40), range(40)] = 0
        tracemalloc.start()
        try:
            rough_group_matrix(panel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * panel.nbytes

    def test_int16_likert_panel_peaks_below_its_own_size(self):
        # an int16 0..4 panel; the count path makes no panel-sized array, where a sorted copy would be one
        panel = random_expert_panel(200, 21, np.random.default_rng(1)).astype(np.int16)
        tracemalloc.start()
        try:
            rough_group_matrix(panel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < panel.nbytes

    def test_narrow_scale_panel_is_not_sorted(self, monkeypatch):
        # 0..4 with six experts: five levels fit in m, so each cell is counted per value; the walk sorts with the
        # array's own sort method, which cannot be patched, so the count path is seen through _level_sums
        panel = random_expert_panel(6, 6, np.random.default_rng(2))
        expected = walk_oracle(panel)
        counted = []
        level_sums = pipeline._level_sums
        monkeypatch.setattr(pipeline, "_level_sums", lambda *args: counted.append(1) or level_sums(*args))
        assert rough_group_matrix(panel).tobytes() == expected.tobytes()
        assert counted

    @settings(max_examples=100, deadline=None)
    @given(int16_panels())
    @example(np.arange(18, dtype=np.int16).reshape(2, 3, 3) * 7)  # 0..119 from two experts: 1-byte panels walked
    def test_bit_identical_for_any_panel_dtype(self, panel):
        # a parsed panel is as narrow as its scale allows; the sorted copy takes its dtype, or int16 for 1 byte
        dtypes = (np.int16, np.int32, np.int64) + ((np.int8, np.uint8) if panel.max() <= 127 else ())
        groups = {rough_group_matrix(panel.astype(dtype)).tobytes() for dtype in dtypes}
        assert len(groups) == 1

    @settings(max_examples=200, deadline=None)
    @given(walk_panels())
    @example(np.full((50, 2, 2), 2**62, dtype=np.int64))
    @example(np.array([[[2**62 - 1]], [[2**62]], [[2**62]], [[2**62 + 1]]], dtype=np.int64))
    # values spanning exactly m levels (counted per value), m + 1 levels (walked), and a uint8 band at its top
    @example(np.array([[[0, 3], [1, 2]], [[3, 0], [2, 1]], [[1, 1], [0, 3]], [[2, 2], [3, 0]]], dtype=np.int16))
    @example(np.array([[[0, 4], [1, 2]], [[3, 0], [2, 1]], [[1, 1], [0, 3]], [[2, 2], [3, 0]]], dtype=np.int16))
    @example(np.array([[[251, 255], [252, 253]], [[255, 251], [254, 252]], [[253, 253], [251, 255]],
                       [[254, 254], [255, 251]], [[251, 252], [253, 254]]], dtype=np.uint8))
    def test_walk_matches_its_first_form_bit_for_bit(self, panel):
        group = rough_group_matrix(panel)
        assert group.flags.c_contiguous
        assert group.tobytes() == walk_oracle(panel).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(level_panels())
    # the count path's limit at 21 and 256 experts, less one, itself, and one more (walked)
    @example(level_panel(21, 19, np.int8))
    @example(level_panel(21, 20, np.uint8))
    @example(level_panel(21, 21, np.int16))
    @example(level_panel(256, 47, np.uint8))
    @example(level_panel(256, 48, np.int8))  # counts of 256 in a unanimous cell, which a byte would wrap to 0
    @example(level_panel(256, 49, np.int64))
    # levels around m: 2 experts on 1, 2 and 3 levels, 255 and 256 on 254 to 257, 300 on 299 to 301
    @example(level_panel(2, 1, np.int64))
    @example(level_panel(2, 2, np.int8))
    @example(level_panel(2, 3, np.uint8))
    @example(level_panel(255, 254, np.uint8))
    @example(level_panel(255, 256, np.int16))
    @example(level_panel(256, 255, np.int8))
    @example(level_panel(256, 257, np.int16))
    @example(level_panel(300, 299, np.int16))
    @example(level_panel(300, 300, np.int64))
    @example(level_panel(300, 301, np.int16))
    def test_count_path_matches_the_walk_bit_for_bit(self, panel):
        assert rough_group_matrix(panel).tobytes() == walk_oracle(panel).tobytes()

    @pytest.mark.parametrize("m", [2, 21, 255, 256, 300])
    def test_count_path_takes_up_to_its_level_limit(self, m, monkeypatch):
        # the limit's levels are counted (one block of 9 cells), one more level is walked
        cap = pipeline._count_levels(m)
        for levels, blocks in ((cap, 1), (cap + 1, 0)):
            counted = []
            level_sums = pipeline._level_sums
            monkeypatch.setattr(pipeline, "_level_sums", lambda *args: counted.append(1) or level_sums(*args))
            rough_group_matrix(level_panel(m, levels, np.int16))
            monkeypatch.undo()
            assert len(counted) == blocks

    def test_uint64_panel_is_walked(self, monkeypatch):
        # five levels at the top of uint64 from six experts, few enough to count, but lo + np.arange(levels) would
        # not fit an int64
        panel = level_panel(6, 5, np.uint8).astype(np.uint64) + np.uint64(2**64 - 5)
        monkeypatch.setattr(pipeline, "_level_sums", None)
        assert rough_group_matrix(panel).tobytes() == walk_oracle(panel).tobytes()

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
        assert r[0, 1, 0] == r[0, 1, 1] == float(big)

    @settings(deadline=None)
    @given(expert_panels())
    def test_matches_per_cell_oracle_in_any_expert_order(self, panel):
        experts, shuffled, hi = panel
        r = rough_group_matrix(experts)
        lower, upper = oracle_group_matrix(experts)
        assert np.abs(r[..., 0] - lower).max() <= 1e-13 * hi
        assert np.abs(r[..., 1] - upper).max() <= 1e-13 * hi
        again = rough_group_matrix(shuffled)
        assert np.array_equal(r, again)


class TestNormalizeRough:
    @pytest.mark.parametrize("shape", [(2, 2), (2, 3, 2), (2, 2, 3), (4,)])
    def test_needs_an_n_by_n_interval_grid(self, shape):
        # a 2-d grid used to raise numpy's AxisError
        with pytest.raises(ShapeError, match=rf"got shape \({shape[0]},"):
            normalize_rough(np.ones(shape))
        with pytest.raises(ShapeError, match=r"need an \(n, n, 2\) grid"):
            interval_sums(np.ones(shape), axis=1)

    def test_paper_tau_total(self, paper_group):
        tau = normalize_rough(paper_group, TAU_MAX_TOTAL_SUM)
        normalized = paper_group / tau
        assert tau == pytest.approx(28.2619, abs=1e-4)
        assert normalized[0, 1, 0] == pytest.approx(0.0643, abs=5e-5)
        assert normalized[0, 1, 1] == pytest.approx(0.1153, abs=5e-5)

    def test_paper_tau_upper(self, paper_group):
        tau = normalize_rough(paper_group, TAU_MAX_UPPER_SUM)
        normalized = paper_group / tau
        assert tau == pytest.approx(18.9857, abs=1e-4)
        assert normalized[0, 1, 0] == pytest.approx(0.0958, abs=5e-5)
        assert normalized[0, 1, 1] == pytest.approx(0.1717, abs=5e-5)

    def test_already_normalized_with_unit_tau(self):
        r = rough([[0, 0.2], [0.3, 0]], [[0, 0.5], [0.5, 0]])
        assert normalize_rough(r, TAU_MAX_UPPER_SUM) == 0.5  # the largest row sum of upper bounds

    def test_unknown_strategy_rejected(self, paper_group):
        with pytest.raises(InvalidArgumentError):
            normalize_rough(paper_group, "median")

    def test_zero_matrix_rejected(self):
        z = np.zeros((2, 2, 2))
        with pytest.raises(DegenerateInputError):
            normalize_rough(z)

    @pytest.mark.parametrize("strategy, tau", [(TAU_MAX_TOTAL_SUM, -4.0), (TAU_MAX_UPPER_SUM, -2.0)])
    def test_negative_tau_rejected(self, strategy, tau):
        # dividing by a negative tau flips every sign back, so without the check this would be a full report
        with pytest.raises(DegenerateInputError) as exc_info:
            analyze_rough(["A", "B"], group_matrix=-np.ones((2, 2, 2)), tau_strategy=strategy)
        assert str(exc_info.value).startswith(f"normalization: tau ({strategy}) is {tau}; ")

    def test_normalized_uppers_at_most_one(self, paper_group):
        for strategy in (TAU_MAX_TOTAL_SUM, TAU_MAX_UPPER_SUM):
            normalized = paper_group / normalize_rough(paper_group, strategy)
            assert normalized[..., 1].max() <= 1.0


class TestRoughTotalRelation:
    def test_zero_matrix(self):
        t = rough_total_relation(np.zeros((3, 3, 2)), 1.0)
        assert t.shape == (3, 3, 2) and not t.any()

    def test_degenerate_intervals_match_crisp(self):
        z = random_expert_panel(5, 1)[0]
        d = crisp_normalized([z])
        t = rough_total_relation(rough(d, d), 1.0)
        t_crisp, _, _ = crisp_dematel([z])
        assert np.allclose(t[..., 0], t_crisp, atol=1e-12)
        assert np.allclose(t[..., 1], t_crisp, atol=1e-12)

    def test_interval_order_preserved(self, paper_group):
        t = rough_total_relation(paper_group, normalize_rough(paper_group))
        assert np.all(t[..., 0] <= t[..., 1] + 1e-12)

    def test_near_singular_bound_named(self):
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(SingularMatrixError, match=r"^upper-bound matrix: .*rho\(D\)"):
            rough_total_relation(rough(0.5 * swap, (1 - 1e-10) * swap), 1.0)

    def test_negative_bound_named(self):
        lower = np.array([[0.0, -0.1], [0.2, 0.0]])
        with pytest.raises(InvalidArgumentError, match="^lower-bound matrix: .*non-negative"):
            rough_total_relation(rough(lower, np.abs(lower)), 1.0)

    def test_paper_anchor(self, paper_group):
        t = rough_total_relation(paper_group, normalize_rough(paper_group, TAU_MAX_TOTAL_SUM))
        assert t[0, 1, 0] == pytest.approx(0.0870, abs=2e-3)

    @pytest.fixture(scope="class")
    def synth_group(self, tmp_path_factory):
        """The rough group of ``synth --criteria 200 --experts 21 --seed 1``, whose upper bound has s >= 1 under
        max-upper-sum, so its closure measures each power's norm, as CI's end-to-end run does."""
        path = tmp_path_factory.mktemp("synth") / "synth.json"
        cli_main(["synth", "--criteria", "200", "--experts", "21", "--seed", "1", "--out", str(path)])
        return rough_group_matrix(parse_study_bundle(path.read_bytes()).panel)

    @pytest.mark.parametrize("strategy", TAU_STRATEGIES)
    def test_total_matches_stacked_closures_byte_for_byte(self, paper_group, synth_group, strategy):
        # each bound closed in its own contiguous matrix has the bits of the normalized grid's strided bound
        walk = rough_group_matrix(random_expert_panel(40, 3, np.random.default_rng(3)))
        for group in (paper_group, walk, synth_group):
            analysis = analyze_rough([f"C{i}" for i in range(len(group))], group_matrix=group, tau_strategy=strategy)
            assert analysis.total.flags.c_contiguous
            assert analysis.total.tobytes() == stacked_total_relation(group, analysis.tau).tobytes()
            if group is synth_group and strategy == TAU_MAX_UPPER_SUM:
                upper = group[..., 1] / analysis.tau
                assert min(upper.sum(axis=1).max(), upper.sum(axis=0).max()) >= 1.0


class TestRoughSums:
    def test_interval_sums_balance(self, paper_group):
        t = rough_total_relation(paper_group, normalize_rough(paper_group))
        x, y = interval_sums(t, axis=1), interval_sums(t, axis=0)
        assert x[:, 0].sum() == pytest.approx(y[:, 0].sum(), abs=1e-9)
        assert x[:, 1].sum() == pytest.approx(y[:, 1].sum(), abs=1e-9)

    def test_interval_sums_round_like_each_closed_bound_alone(self):
        group = rough_group_matrix(random_expert_panel(40, 3))
        tau = normalize_rough(group)
        t = rough_total_relation(group, tau)
        bounds = [crisp_mod.solve_total_relation((group / tau)[..., k]) for k in (0, 1)]
        for axis in (0, 1):
            assert np.array_equal(interval_sums(t, axis), np.stack([b.sum(axis=axis) for b in bounds], axis=-1))

    def test_constant_matrix(self):
        c = 0.05
        x, y = rough_sums(np.full((4, 4, 2), c))
        assert np.allclose(x, 4 * c) and np.allclose(y, 4 * c)


class TestScoresToResults:
    def test_prominence_relation_from_table3(self):
        x = np.array([3.6135, 2.8362])
        y = np.array([3.4314, 3.1900])
        m, n = x + y, x - y
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

    def test_no_criteria_rejected(self):
        with pytest.raises(InvalidArgumentError, match="need at least one criterion"):
            weights([], [])

    @pytest.mark.parametrize("prominence, relation, message", [
        ([np.nan, 1.0], [0.0, 0.0], "criterion 0 has prominence nan and relation 0.0"),
        ([1.0, 2.0], [0.0, -np.inf], "criterion 1 has prominence 2.0 and relation -inf"),
    ])
    def test_non_finite_scores_rejected(self, prominence, relation, message):
        # a NaN prominence used to give NaN weights and ranks [2, 1]
        with pytest.raises(InvalidArgumentError, match=f"^weights: {message}; both must be finite$"):
            weights(prominence, relation)

    @pytest.mark.parametrize("prominence, relation, message", [
        ([1e200, 1.0], [0.0, 0.0], "criterion 0 has prominence 1e+200 and relation 0.0"),
        ([1.0, 2.0], [0.0, -1e200], "criterion 1 has prominence 2.0 and relation -1e+200"),
    ])
    def test_overflowing_square_rejected(self, prominence, relation, message):
        # the square of 1e200 is inf: this used to warn and return weights [nan, 0.0]; RuntimeWarnings are errors here
        pattern = f"^weights: {re.escape(message)}; the sum of their squares overflows$"
        with pytest.raises(InvalidArgumentError, match=pattern):
            weights(prominence, relation)

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
        _, r, d = crisp_dematel([base])
        assert np.allclose([res.x for res in analysis.results], r, atol=1e-9)
        assert np.allclose([res.y for res in analysis.results], d, atol=1e-9)

    def test_expert_order_invariance(self):
        experts = random_expert_panel(5, 7)
        crit = [f"C{i}" for i in range(5)]
        a1 = analyze_rough(crit, panel=experts)
        a2 = analyze_rough(crit, panel=experts[::-1])
        assert np.array_equal(a1.total, a2.total)
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
            assert r1.criterion == r2.criterion
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
        assert a2.group_matrix[0, 1, 0] == pytest.approx(lower, abs=1e-12)
        assert a2.group_matrix[0, 1, 1] == pytest.approx(upper, abs=1e-12)
        assert a1.group_matrix.shape == a2.group_matrix.shape

    def test_interval_order_through_all_stages(self):
        experts = random_expert_panel(6, 5)
        a = analyze_rough([f"C{i}" for i in range(6)], panel=experts)
        for m in (a.group_matrix, a.group_matrix / a.tau, a.total):
            assert np.all(m[..., 0] <= m[..., 1] + 1e-12)

    def test_unanimous_panel_at_unit_row_sums_rejected(self):
        # every row of D sums to 1 under max-upper-sum, so rho(D) = 1 and (I - D) is singular
        grid = np.full((4, 4), 4)
        np.fill_diagonal(grid, 0)
        with pytest.raises(SingularMatrixError, match=r"^lower-bound matrix: .*rho\(D\) = 1"):
            analyze_rough(list("ABCD"), panel=np.tile(grid, (3, 1, 1)), tau_strategy=TAU_MAX_UPPER_SUM)

    def test_one_criterion_rejected(self):
        with pytest.raises(InvalidArgumentError):
            analyze_rough(["only"], group_matrix=np.zeros((1, 1, 2)))

    @pytest.mark.parametrize(
        "shape, why",
        [((3, 3, 3), "last axis"), ((3, 4, 2), "shape"), ((2, 2, 2), "3 criteria"), ((3, 3), "last axis")],
        ids=["last-axis-3", "non-square", "size-mismatch", "no-interval-axis"],
    )
    def test_group_matrix_shape_rejected(self, shape, why):
        with pytest.raises(ShapeError, match=why):
            analyze_rough(["A", "B", "C"], group_matrix=np.zeros(shape))

    def test_reversed_group_interval_names_cell(self):
        g = np.zeros((3, 3, 2))
        g[0, 1] = [0.5000000000004, 0.5]
        with pytest.raises(IntervalOrderError, match=r"^entry \(0,1\) has lower 0.5000000000004 > upper 0.5$"):
            analyze_rough(["A", "B", "C"], group_matrix=g)

    def test_requires_exactly_one_input_mode(self):
        with pytest.raises(InvalidArgumentError):
            analyze_rough(["a", "b"])
