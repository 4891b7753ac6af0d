import csv
import dataclasses
import io
import json

import numpy as np
import pytest

from rdematel.fixtures import load_reference_tables, load_study_bundle
from rdematel.network import Edge, InfluenceNetwork
from rdematel.pipeline import TAU_MAX_UPPER_SUM
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

    def test_causal_points_mirror_results(self, fixture_report):
        doc = json.loads(render_report_json(fixture_report))
        assert doc["causal_points"] == [
            {"criterion": r.criterion_id, "prominence": r.prominence, "relation": r.relation, "group": r.group}
            for r in fixture_report.results
        ]

    def test_config_echo_is_complete(self, fixture_report):
        echo = fixture_report.config
        for key in ("tau_strategy", "tau", "crispify_mode", "threshold_mode", "threshold_k", "threshold_q"):
            assert key in echo

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

    def test_sorted_deterministic_order(self):
        e = [Edge("b", "a", 0.2), Edge("a", "b", 0.4)]
        d1 = render_graph_dot(InfluenceNetwork(("b", "a"), tuple(e), 0.1))
        d2 = render_graph_dot(InfluenceNetwork(("a", "b"), tuple(reversed(e)), 0.1))
        assert d1 == d2

    def test_fixture_network_has_no_outgoing_e1_e2_edges(self, fixture_report):
        sources = {e.source for e in fixture_report.network.edges}
        assert "E1" not in sources and "E2" not in sources


class TestDeviationLedger:
    def test_default_strategy_passes(self, fixture_report):
        entries = deviation_ledger(fixture_report.analysis, load_reference_tables())
        assert ledger_passes(entries)
        assert all(e.status in (PASS, NOT_COMPARABLE) for e in entries)

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
