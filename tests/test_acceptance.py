"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import random
from contextlib import contextmanager

import numpy as np
import pytest

from rdematel import crisp as crisp_mod
from rdematel.fixtures import load_reference_tables, load_study_bundle
from rdematel.network import extract_network
from rdematel.pipeline import (
    TAU_MAX_TOTAL_SUM,
    TAU_MAX_UPPER_SUM,
    analyze_rough,
    classify,
    crisp_convert,
    normalize_rough,
    rough_group_matrix,
    weights,
)
from rdematel.report import (
    FAIL,
    NOT_COMPARABLE,
    AnalysisConfig,
    deviation_ledger,
    ledger_passes,
    render_graph_dot,
    render_report_json,
    render_results_csv,
    run_analysis,
)
from oracles import crisp_dematel, crisp_normalized, group_cell


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"criterion {num} ({name}): FAIL")
        raise
    print(f"criterion {num} ({name}): PASS")


@pytest.fixture(scope="module")
def bundle():
    return load_study_bundle()


@pytest.fixture(scope="module")
def reference():
    return load_reference_tables()


def test_01_normalization_reproduces_reference(bundle, reference):
    with criterion(1, "group-matrix normalization"):
        normalized = bundle.rough_group / normalize_rough(bundle.rough_group, TAU_MAX_TOTAL_SUM)
        ref_l = np.asarray(reference["normalized_lower"])
        ref_u = np.asarray(reference["normalized_upper"])
        off = ~np.eye(7, dtype=bool)
        assert off.sum() * 2 == 84
        assert np.abs(normalized[..., 0] - ref_l)[off].max() <= 5e-4
        assert np.abs(normalized[..., 1] - ref_u)[off].max() <= 5e-4
        assert normalized[0, 1, 0] == pytest.approx(0.0643, abs=5e-4)
        assert normalized[0, 1, 1] == pytest.approx(0.1153, abs=5e-4)
        assert normalized[1, 0, 0] == pytest.approx(0.0638, abs=5e-4)
        assert normalized[1, 0, 1] == pytest.approx(0.1250, abs=5e-4)


def test_02_total_relation_reproduces_reference(reference):
    with criterion(2, "total-relation closure"):
        ref_norm_l = np.asarray(reference["normalized_lower"])
        ref_total_l = np.asarray(reference["total_lower"])
        t = crisp_mod.solve_total_relation(ref_norm_l)
        assert np.abs(t - ref_total_l).max() <= 2e-3
        assert t[0, 1] == pytest.approx(0.0870, abs=2e-3)


def test_03_sums_with_transposed_grid(reference):
    with criterion(3, "row/column sums under the transposed printed grid"):
        grid = np.asarray(reference["total_lower"])
        col_sums, row_sums = grid.sum(axis=0), grid.sum(axis=1)
        x_l = np.asarray(reference["sum_x_lower"])
        y_l = np.asarray(reference["sum_y_lower"])
        assert np.abs(col_sums - x_l).max() <= 1e-3
        assert np.abs(row_sums - y_l).max() <= 1e-3
        assert col_sums[0] == pytest.approx(0.5243, abs=1e-3)
        assert col_sums[1] == pytest.approx(0.5092, abs=1e-3)
        assert row_sums[0] == pytest.approx(0.4769, abs=1e-3)
        assert row_sums[1] == pytest.approx(0.4576, abs=1e-3)


def test_04_weights_from_reference_scores(reference):
    with criterion(4, "weights and ranking from published scores"):
        x = np.asarray(reference["crisp_x"])
        y = np.asarray(reference["crisp_y"])
        omega, w, ranks = weights(x + y, x - y)
        assert omega[0] == pytest.approx(7.047184, abs=1e-3)
        assert omega[4] == pytest.approx(6.036575, abs=1e-3)
        assert w[0] == pytest.approx(0.1547, abs=1e-3)
        assert w[4] == pytest.approx(0.1325, abs=1e-3)
        assert w.sum() == pytest.approx(1.0, abs=1e-9)
        assert list(ranks) == [1, 2, 4, 5, 7, 6, 3]


def test_05_cause_effect_signs(reference):
    with criterion(5, "cause/effect classification"):
        x = np.asarray(reference["crisp_x"])
        y = np.asarray(reference["crisp_y"])
        labels = dict(zip(reference["criteria"], classify(x - y)))
        assert {c for c, g in labels.items() if g == "cause"} == {"I1", "I2", "I3"}
        assert {c for c, g in labels.items() if g == "effect"} == {"I4", "E1", "E2", "E3"}


def test_06_crisp_conversion_marked_not_comparable(bundle, reference):
    with criterion(6, "irreproducible step marked not-comparable"):
        rep = run_analysis(bundle, AnalysisConfig())
        entries = deviation_ledger(rep.analysis, reference)
        ncomp = [e for e in entries if e["status"] == NOT_COMPARABLE]
        assert {e["table"] for e in ncomp} == {"crisp_x", "crisp_y"}
        # the published value really is unreachable from the published sums
        hand = crisp_convert(np.stack([reference["sum_x_lower"], reference["sum_x_upper"]], axis=-1))
        assert hand[0] == pytest.approx(1.30, abs=0.01)
        assert abs(hand[0] - reference["crisp_x"][0]) > 1.0
        # and the run still succeeds overall
        assert ledger_passes(entries)


def test_07_degenerate_expert_oracle():
    with criterion(7, "identical experts match crisp DEMATEL"):
        rng = np.random.default_rng(20250823)
        trials = 0
        while trials < 50:
            n = int(rng.integers(2, 9))
            z = rng.integers(0, 5, size=(n, n))
            np.fill_diagonal(z, 0)
            if not z.any():
                continue
            d = crisp_normalized([z])
            if np.abs(np.linalg.eigvals(d)).max() >= 1.0 - 1e-9:
                continue  # structurally regular matrix, (I - D) not invertible
            m = int(rng.integers(2, 11))
            analysis = analyze_rough(
                [f"C{i}" for i in range(n)],
                panel=np.tile(z, (m, 1, 1)),
                tau_strategy=TAU_MAX_UPPER_SUM,
            )
            _, r, c = crisp_dematel([z])
            x = np.array([res.x for res in analysis.results])
            y = np.array([res.y for res in analysis.results])
            assert np.abs(x - r).max() <= 1e-9
            assert np.abs(y - c).max() <= 1e-9
            assert np.abs((x + y) - (r + c)).max() <= 1e-9
            assert np.abs((x - y) - (r - c)).max() <= 1e-9
            trials += 1


def test_08_neumann_equivalence():
    with criterion(8, "closed form matches truncated power series"):
        rng = np.random.default_rng(1123)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            d = rng.random((n, n)) * 0.9
            np.fill_diagonal(d, 0.0)
            d /= d.sum(axis=1).max()
            d *= 0.95  # keep the series summable with a safe margin
            t = crisp_mod.solve_total_relation(d)
            total = np.zeros_like(d)
            power = np.eye(n)
            while True:
                power = power @ d
                total += power
                if np.abs(power).sum(axis=1).max() < 1e-13:
                    break
            assert np.abs(t - total).max() <= 1e-9


def test_09_rough_core_enumeration_oracle():
    with criterion(9, "rough bounds match brute-force enumeration"):
        rng = random.Random(4242)
        for _ in range(200):
            size = rng.randint(2, 12)
            values = [rng.randint(0, 4) for _ in range(size)]
            c = rng.randint(0, 4)
            # cell (0, 1) holds the random multiset, cell (1, 0) a unanimous one
            panel = np.zeros((size, 2, 2), dtype=np.int64)
            panel[:, 0, 1] = values
            panel[:, 1, 0] = c
            r = rough_group_matrix(panel)
            exp_lo, exp_up = group_cell(values)
            lo, up = r[0, 1]
            assert abs(lo - exp_lo) <= 1e-12 and abs(up - exp_up) <= 1e-12
            assert min(values) <= lo <= up <= max(values)
            # unanimity collapses the cell to its one judgment
            assert r[1, 0, 0] == r[1, 0, 1] == c


def test_10_structural_laws(bundle):
    with criterion(10, "structural laws"):
        rng = np.random.default_rng(5150)

        # interval ordering preserved through all stages
        n, m = 6, 5
        experts = []
        for k in range(m):
            v = rng.integers(0, 5, size=(n, n))
            np.fill_diagonal(v, 0)
            experts.append(v)
        analysis = analyze_rough([f"C{i}" for i in range(n)], panel=np.stack(experts))
        for stage in (analysis.group_matrix, analysis.group_matrix / analysis.tau, analysis.total):
            assert np.all(stage[..., 0] <= stage[..., 1] + 1e-12)

        # threshold monotonicity
        tstar = analysis.total.mean(axis=-1)
        ids = analysis.criteria
        def edges_at(q):
            net = extract_network(tstar, q, ids)
            return set(zip(net.source.tolist(), net.target.tolist()))

        qs = sorted(rng.random(4) * tstar.max())
        for q1, q2 in zip(qs, qs[1:]):
            assert edges_at(q2) <= edges_at(q1)

        # expert-order invariance (bit identical)
        shuffled = list(experts)
        rng.shuffle(shuffled)
        again = analyze_rough([f"C{i}" for i in range(n)], panel=np.stack(shuffled))
        assert np.array_equal(analysis.total, again.total)
        assert analysis.results == again.results

        # parse/write round trip
        from rdematel.ingest import parse_study_bundle, write_bundle

        data = write_bundle(bundle)
        assert write_bundle(parse_study_bundle(data)) == data

        # byte determinism of reports
        r1 = run_analysis(bundle, AnalysisConfig())
        r2 = run_analysis(bundle, AnalysisConfig())
        assert render_results_csv(r1) == render_results_csv(r2)
        assert render_report_json(r1) == render_report_json(r2)
        assert render_graph_dot(r1.network) == render_graph_dot(r2.network)


def test_reproduction_ledger_overall(bundle, reference):
    with criterion("1-6 combined", "full reproduction ledger"):
        rep = run_analysis(bundle, AnalysisConfig())
        entries = deviation_ledger(rep.analysis, reference)
        failed = [e for e in entries if e["status"] == FAIL]
        assert not failed, f"{len(failed)} reference cells outside tolerance"
