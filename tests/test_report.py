import csv
import dataclasses
import io
import json

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rdematel.errors import InvalidArgumentError, RDematelError
from rdematel.fixtures import load_reference_tables, load_study_bundle
from rdematel.ingest import CriterionMeta, RespondentMeta, StudyBundle, dump_json, parse_study_bundle
from rdematel.network import CRISPIFY_GLOBAL, CRISPIFY_MODES, Edge, InfluenceNetwork
from rdematel.pipeline import TAU_MAX_TOTAL_SUM, TAU_MAX_UPPER_SUM, TAU_STRATEGIES
from rdematel.report import (
    FAIL,
    NOT_COMPARABLE,
    PASS,
    AnalysisConfig,
    deviation_ledger,
    ledger_passes,
    render_deviations_csv,
    render_graph_dot,
    render_report_json,
    render_results_csv,
    run_analysis,
)


@pytest.fixture(scope="module")
def fixture_report():
    return run_analysis(load_study_bundle(), AnalysisConfig())


class TestResultTables:
    def test_csv_shape_and_precision(self, fixture_report):
        rows = list(csv.DictReader(io.StringIO(render_results_csv(fixture_report).decode())))
        assert [r["criterion"] for r in rows] == ["I1", "I2", "I3", "I4", "E1", "E2", "E3"]
        for row in rows:
            # four fractional digits in the printed form
            assert len(row["weight"].split(".")[1]) == 4
        assert sum(float(r["weight"]) for r in rows) == pytest.approx(1.0, abs=5e-4)

    def test_csv_reparses_to_rendered_precision(self, fixture_report):
        rows = list(csv.DictReader(io.StringIO(render_results_csv(fixture_report).decode())))
        for row, res in zip(rows, fixture_report.results):
            assert float(row["omega"]) == pytest.approx(res.omega, abs=5e-5)
            assert int(row["rank"]) == res.rank

    def test_byte_determinism(self, fixture_report):
        again = run_analysis(load_study_bundle(), AnalysisConfig())
        assert render_results_csv(fixture_report) == render_results_csv(again)
        assert render_report_json(fixture_report) == render_report_json(again)
        assert render_graph_dot(fixture_report.network) == render_graph_dot(again.network)

    def test_csv_quotes_ids_with_delimiters(self, fixture_report):
        ids = ['B,y', 'A"x', "plain"] + [r.criterion_id for r in fixture_report.results[3:]]
        results = [dataclasses.replace(r, criterion_id=cid) for r, cid in zip(fixture_report.results, ids)]
        data = render_results_csv(dataclasses.replace(fixture_report, results=results)).decode()
        assert '"B,y",' in data and '"A""x",' in data
        rows = list(csv.DictReader(io.StringIO(data)))
        assert [r["criterion"] for r in rows] == ids
        assert [r["group"] for r in rows] == [r.group for r in results]

    def test_report_json_schema_2_writes_each_value_once(self, fixture_report):
        doc = json.loads(render_report_json(fixture_report))
        assert list(doc) == [
            "schema", "config", "criteria", "results", "rough_group", "total", "tstar", "network", "deviations"
        ]
        assert doc["schema"] == 2
        # the causal diagram reads its points from the results
        assert [(r["criterion"], r["prominence"], r["relation"], r["group"]) for r in doc["results"]] == [
            (r.criterion_id, r.prominence, r.relation, r.group) for r in fixture_report.results
        ]

    @pytest.mark.parametrize("tau", TAU_STRATEGIES)
    def test_normalized_grid_is_rough_group_over_tau(self, tau):
        rep = run_analysis(load_study_bundle(), AnalysisConfig(tau_strategy=tau))
        doc = json.loads(render_report_json(rep))
        normalized = np.asarray(doc["rough_group"]) / doc["config"]["tau"]
        assert np.array_equal(normalized, rep.analysis.normalized)

    def test_config_echo_is_complete(self, fixture_report):
        echo = fixture_report.config
        assert list(echo) == ["tau_strategy", "tau", "crispify_mode", "threshold_mode", "threshold_value", "threshold_q"]

    def test_single_criterion_table_shape(self):
        # weights of a one-criterion analysis normalize to exactly 1
        from rdematel.pipeline import weights

        _, w, ranks = weights(np.array([3.0]), np.array([0.5]))
        assert f"{w[0]:.4f}" == "1.0000" and ranks[0] == 1


class TestGraphDot:
    def test_nodes_only(self):
        dot = render_graph_dot(InfluenceNetwork(("b", "a"), (), 1.0)).decode()
        assert '"a";' in dot and '"b";' in dot
        assert "->" not in dot

    def test_single_edge_attribute(self):
        net = InfluenceNetwork(("a", "b"), (Edge("a", "b", 1.0),), 0.5)
        dot = render_graph_dot(net).decode()
        assert dot.count("->") == 1
        assert '"a" -> "b" [weight=1.000000];' in dot

    def test_quotes_and_backslashes_escaped(self):
        net = InfluenceNetwork(('A"x', "b\\c"), (Edge('A"x', "b\\c", 1.0),), 0.5)
        dot = render_graph_dot(net).decode()
        assert '  "A\\"x";' in dot and '  "b\\\\c";' in dot
        assert '"A\\"x" -> "b\\\\c" [weight=1.000000];' in dot

    def test_edge_id_outside_nodes_is_quoted(self):
        net = InfluenceNetwork(("a",), (Edge('x"y', "a", 1.0), Edge("a", "b\\c", 0.5)), 0.5)
        dot = render_graph_dot(net).decode()
        assert '  "x\\"y" -> "a" [weight=1.000000];' in dot and '  "a" -> "b\\\\c" [weight=0.500000];' in dot

    def test_sorted_deterministic_order(self):
        e = [Edge("b", "a", 0.2), Edge("a", "b", 0.4)]
        d1 = render_graph_dot(InfluenceNetwork(("b", "a"), tuple(e), 0.1))
        d2 = render_graph_dot(InfluenceNetwork(("a", "b"), tuple(reversed(e)), 0.1))
        assert d1 == d2

    def test_fixture_network_has_no_outgoing_e1_e2_edges(self, fixture_report):
        sources = {e.source for e in fixture_report.network.edges}
        assert "E1" not in sources and "E2" not in sources


def ledger_sequence(ids, replay):
    """(table, cell, status, note) of each ledger entry in order; ``replay`` is every replayed cell's status."""
    cells = [(a, b) for a in ids for b in ids]
    seq = [("normalized", f"({a},{b}).{side}", replay, "") for a, b in cells if a != b for side in ("lower", "upper")]
    seq += [("total.lower", f"({a},{b})", replay, "published grid orientation") for a, b in cells]
    seq += [
        (f"sums.{xy}_{side}", c, replay, "transposed grid mapping applied")
        for xy in "xy" for side in ("lower", "upper") for c in ids
    ]
    note = "published crisp values do not follow from the published sums via the stated conversion"
    seq += [(kind, c, NOT_COMPARABLE, note) for kind in ("crisp_x", "crisp_y") for c in ids]
    seq += [(f"weights.{kind}", c, PASS, "") for c in ids for kind in ("omega", "weight", "rank")]
    return seq + [("weights.sum", "sum(W)", PASS, "")]


class TestDeviationLedger:
    def test_default_strategy_passes(self, fixture_report):
        entries = deviation_ledger(fixture_report.analysis, load_reference_tables())
        assert ledger_passes(entries)
        assert all(e.status in (PASS, NOT_COMPARABLE) for e in entries)

    @pytest.mark.parametrize("tau, replay", [(TAU_MAX_TOTAL_SUM, PASS), (TAU_MAX_UPPER_SUM, FAIL)])
    def test_entry_sequence_is_pinned(self, tau, replay):
        # the stated tau misses every replayed cell; the weight table is checked from the published X/Y either way
        rep = run_analysis(load_study_bundle(), AnalysisConfig(tau_strategy=tau))
        entries = deviation_ledger(rep.analysis, load_reference_tables())
        assert [(e.table, e.cell, e.status, e.note) for e in entries] == ledger_sequence(rep.analysis.criteria, replay)

    def test_crisp_conversion_marked_not_comparable(self, fixture_report):
        entries = deviation_ledger(fixture_report.analysis, load_reference_tables())
        ncomp = [e for e in entries if e.status == NOT_COMPARABLE]
        assert {e.table for e in ncomp} == {"crisp_x", "crisp_y"}
        assert len(ncomp) == 14

    def test_literal_tau_strategy_fails_with_differences(self):
        rep = run_analysis(load_study_bundle(), AnalysisConfig(tau_strategy=TAU_MAX_UPPER_SUM))
        entries = deviation_ledger(rep.analysis, load_reference_tables())
        failures = [e for e in entries if e.status == FAIL]
        assert failures
        assert all(e.difference is not None and e.difference > e.tolerance for e in failures)

    def test_differences_consistent_with_status(self, fixture_report):
        for e in deviation_ledger(fixture_report.analysis, load_reference_tables()):
            if e.status == NOT_COMPARABLE:
                assert e.computed is None
                continue
            assert e.difference == pytest.approx(abs(e.reference - e.computed), abs=1e-15)
            assert e.difference >= 0
            assert (e.status == PASS) == (e.difference <= e.tolerance)

    def test_deviation_csv_renders(self, fixture_report):
        entries = deviation_ledger(fixture_report.analysis, load_reference_tables())
        data = render_deviations_csv(entries)
        rows = list(csv.DictReader(io.StringIO(data.decode())))
        assert len(rows) == len(entries)
        assert rows[0]["status"] in (PASS, FAIL, NOT_COMPARABLE)


def oracle_report_json(report):
    """The whole schema-2 report through the stdlib's indent=2 encoder, grids built with .tolist()."""
    a = report.analysis
    doc = {
        "schema": 2,
        "config": report.config,
        "criteria": a.criteria,
        "results": [
            {
                "criterion": r.criterion_id,
                "x": r.x,
                "y": r.y,
                "prominence": r.prominence,
                "relation": r.relation,
                "omega": r.omega,
                "weight": r.weight,
                "rank": r.rank,
                "group": r.group,
            }
            for r in report.results
        ],
        "rough_group": a.group_matrix.tolist(),
        "total": a.total.tolist(),
        "tstar": report.tstar.tolist(),
        "network": {
            "threshold": report.network.threshold,
            "nodes": list(report.network.nodes),
            "edges": [
                {"source": e.source, "target": e.target, "strength": e.strength}
                for e in report.network.edges
            ],
        },
        "deviations": [dataclasses.asdict(d) for d in report.deviations],
    }
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


def tolisted(value):
    """``value`` with each ndarray as its ``tolist()``, for the stdlib encoder."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: tolisted(v) for k, v in value.items()}
    return value


grid_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e16, 1e-7, 1.0, 2.0, -3.0, 1e22, 0.1]),
    st.floats(allow_nan=False, allow_infinity=False),
)


array_shapes = hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4)
# a grid of two or three distinct values, 0.0 and -0.0 among them
few_valued_grids = grid_floats.flatmap(
    lambda v: hnp.arrays(np.float64, array_shapes, elements=st.sampled_from([0.0, -0.0, v]))
)
# text that looks like the row layout: braces, quotes, newlines, non-ASCII
row_text = st.text(st.sampled_from('{}",: \n\u00e9\u4e2d') | st.characters(), max_size=4)
row_values = (
    st.none() | st.booleans() | st.integers() | st.sampled_from([2**70, -(2**64)]) | st.floats() | row_text
    | st.lists(st.integers(), max_size=2)  # not a scalar: the list is not a row table
)
row_tables = st.lists(st.dictionaries(row_text, row_values, max_size=3), min_size=1, max_size=3)
json_docs = st.recursive(
    hnp.arrays(np.float64, array_shapes, elements=grid_floats)
    | hnp.arrays(np.int64, array_shapes)
    | few_valued_grids | row_tables
    | st.none() | st.booleans() | st.integers() | grid_floats | st.text(max_size=3)
    | st.lists(st.integers() | st.text(max_size=3), max_size=3),
    lambda docs: st.dictionaries(st.sampled_from(["a", "\u00e9t\u00e9", "\u4e2d", 'q"\\\n']) | st.text(max_size=3),
                                 docs, max_size=3),
    max_leaves=8,
)


class TestReportJsonLayout:
    @settings(max_examples=300, deadline=None)
    @given(json_docs, st.integers(min_value=0, max_value=3), st.booleans())
    def test_grid_matches_encoder(self, doc, level, ensure_ascii):
        """Grids (few-valued ones too), row tables, nested dicts (empty ones too) and non-ASCII keys, at any level,
        under both ``ensure_ascii``."""
        expected = json.dumps(tolisted(doc), indent=2, ensure_ascii=ensure_ascii).replace("\n", "\n" + "  " * level)
        assert dump_json(doc, level, ensure_ascii) == expected

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_grid_rejects_non_finite(self, bad):
        with pytest.raises(InvalidArgumentError):
            dump_json({"tstar": np.array([[0.0, bad], [1.0, 0.0]])}, 1)

    def test_bundled_study_with_ledger_matches_encoder(self, fixture_report):
        rep = dataclasses.replace(
            fixture_report, deviations=deviation_ledger(fixture_report.analysis, load_reference_tables())
        )
        assert render_report_json(rep) == oracle_report_json(rep)

    def test_synth_raw_panel_matches_encoder(self):
        # a raw panel's rough group repeats its values; hundreds of edges make a long row table
        n, m = 40, 6
        panel = np.random.default_rng(5).integers(0, 4, size=(m, n, n), endpoint=True)
        panel[:, range(n), range(n)] = 0
        bundle = StudyBundle([CriterionMeta(f"C{i + 1}") for i in range(n)],
                             [RespondentMeta(f"X{k + 1}") for k in range(m)], panel=panel)
        rep = run_analysis(bundle, AnalysisConfig(crispify_mode=CRISPIFY_GLOBAL))
        assert len(rep.network.edges) >= 200
        assert len(np.unique(rep.analysis.group_matrix)) < rep.analysis.group_matrix.size / 4
        assert render_report_json(rep) == oracle_report_json(rep)

    def test_escaped_ids_match_encoder(self):
        ids = ['q"uote', "back\\slash", "\u00e9t\u00e9 \u2192", "new\nline", "tab\tend"]
        grids = np.random.default_rng(3).integers(0, 5, size=(3, 5, 5))
        grids[:, range(5), range(5)] = 0
        doc = {
            "criteria": [{"id": cid} for cid in ids],
            "respondents": [{"id": f"r{k}"} for k in range(3)],
            "matrices": {f"r{k}": g.tolist() for k, g in enumerate(grids)},
        }
        rep = run_analysis(parse_study_bundle(json.dumps(doc)), AnalysisConfig(threshold_value=0.0))
        assert rep.network.edges
        assert render_report_json(rep) == oracle_report_json(rep)


json_scalars = st.one_of(st.none(), st.booleans(), st.integers(-2, 10), st.floats(), st.text(max_size=3))


@st.composite
def json_bundles(draw):
    """Bundle documents of up to 6 criteria: half well-formed, half with stray values anywhere."""
    dirty = draw(st.booleans())
    if dirty:
        n, m, lo = draw(st.integers(0, 6)), draw(st.integers(0, 4)), draw(st.integers(-1, 2))
        hi = draw(st.integers(lo - 1, lo + 9))
        ids = [draw(st.text(max_size=4) | json_scalars) for _ in range(n)]
    else:
        n, m, lo = draw(st.integers(2, 6)), draw(st.integers(2, 4)), draw(st.integers(0, 2))
        hi = draw(st.integers(lo + 1, lo + 9))
        ids = [draw(st.text(max_size=3)) + f"#{i}" for i in range(n)]
    doc = {
        "scale": {"min": lo, "max": hi},
        "criteria": [{"id": cid} for cid in ids],
        "respondents": [{"id": f"r{k}"} for k in range(m)],
    }
    judgment = st.integers(max(lo, 0), max(lo, hi, 0))
    cell = judgment | json_scalars if dirty else judgment
    if draw(st.booleans()):
        doc["matrices"] = {
            r["id"]: [[0 if i == j else draw(cell) for j in range(n)] for i in range(n)]
            for r in doc["respondents"]
        }
    else:
        bound = st.floats(0, 1e3) | json_scalars if dirty else st.floats(0, 1e3)

        def pair():
            p = [draw(bound), draw(bound)]
            return p if dirty else sorted(p)

        doc["rough_group"] = [[[0, 0] if i == j else pair() for j in range(n)] for i in range(n)]
    return doc


@settings(max_examples=200, deadline=None)
@given(
    json_bundles(),
    st.sampled_from(TAU_STRATEGIES),
    st.sampled_from(CRISPIFY_MODES),
    st.floats(-3, 3),
)
def test_bundle_to_artifacts_renders_or_raises_named_error(doc, tau, crispify, k):
    try:
        bundle = parse_study_bundle(json.dumps(doc))
        rep = run_analysis(bundle, AnalysisConfig(tau_strategy=tau, crispify_mode=crispify, threshold_value=k))
        report_json = render_report_json(rep)
        results_csv = render_results_csv(rep)
        dot = render_graph_dot(rep.network)
    except RDematelError as exc:
        event(type(exc).__name__)
        return
    event("rendered")

    def reject_constant(name):
        raise AssertionError(f"report.json holds {name}")

    assert json.loads(report_json, parse_constant=reject_constant)["criteria"] == bundle.criterion_ids
    rows = list(csv.reader(io.StringIO(results_csv.decode("utf-8"), newline="")))
    assert len(rows) == bundle.n + 1
    assert [r[0] for r in rows[1:]] == bundle.criterion_ids
    assert dot.startswith(b"digraph influence {\n") and dot.endswith(b"}\n")
