import csv
import dataclasses
import io
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rdematel import ingest
from rdematel.errors import InvalidArgumentError, RDematelError
from rdematel.fixtures import load_reference_tables, load_study_bundle
from rdematel.ingest import (
    CriterionMeta,
    RespondentMeta,
    StudyBundle,
    json_chunks,
    json_grid,
    parse_study_bundle,
)
from rdematel.network import (
    CRISPIFY_GLOBAL,
    CRISPIFY_MODES,
    InfluenceNetwork,
    crispify_total,
    extract_network,
    threshold,
)
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
    report_json_chunks,
    run_analysis,
)


ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def fixture_report():
    return run_analysis(load_study_bundle(), AnalysisConfig())


def synth_raw_bundle(n=40, m=6):
    """A raw study of n criteria and m experts on 0..4, drawn from a fixed seed."""
    panel = np.random.default_rng(5).integers(0, 4, size=(m, n, n), endpoint=True)
    panel[:, range(n), range(n)] = 0
    return StudyBundle([CriterionMeta(f"C{i + 1}") for i in range(n)],
                       [RespondentMeta(f"X{k + 1}") for k in range(m)], panel=panel)


def edge_dicts(net):
    """The network's edges as ``{"source": id, "target": id, "strength": float}`` objects, one at a time."""
    return [{"source": net.nodes[i], "target": net.nodes[j], "strength": s}
            for i, j, s in zip(net.source.tolist(), net.target.tolist(), net.strength.tolist())]


def network(nodes, edges):
    """An InfluenceNetwork on ``nodes`` from ``(source id, target id, strength)`` triples."""
    source, target = (np.array([nodes.index(e[k]) for e in edges], dtype=np.intp) for k in (0, 1))
    return InfluenceNetwork(tuple(nodes), source, target, np.array([e[2] for e in edges], dtype=float))


def oracle_graph_dot(net):
    """``render_graph_dot``'s reference: one object an edge, sorted by (source id, target id)."""
    def quote(s):
        return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'

    edges = sorted(edge_dicts(net), key=lambda e: (e["source"], e["target"]))
    lines = ["digraph influence {"] + [f"  {quote(node)};" for node in sorted(net.nodes)]
    lines += [f"  {quote(e['source'])} -> {quote(e['target'])} [weight={e['strength']:.6f}];" for e in edges]
    return ("\n".join(lines) + "\n}\n").encode("utf-8")


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
        ids = ['B,y', 'A"x', "plain"] + [r.criterion for r in fixture_report.results[3:]]
        results = [dataclasses.replace(r, criterion=cid) for r, cid in zip(fixture_report.results, ids)]
        data = render_results_csv(dataclasses.replace(fixture_report, results=results)).decode()
        assert '"B,y",' in data and '"A""x",' in data
        rows = list(csv.DictReader(io.StringIO(data)))
        assert [r["criterion"] for r in rows] == ids
        assert [r["group"] for r in rows] == [r.group for r in results]

    def test_report_json_schema_4_writes_each_value_once(self, fixture_report):
        doc = json.loads(render_report_json(fixture_report))
        assert list(doc) == ["schema", "config", "criteria", "results", "rough_group", "total", "deviations"]
        assert doc["schema"] == 4
        # the causal diagram reads its points from the results
        assert [(r["criterion"], r["prominence"], r["relation"], r["group"]) for r in doc["results"]] == [
            (r.criterion, r.prominence, r.relation, r.group) for r in fixture_report.results
        ]

    @pytest.mark.parametrize("crispify", CRISPIFY_MODES)
    @pytest.mark.parametrize("bundle", [load_study_bundle, synth_raw_bundle], ids=["bundled", "synth-raw"])
    def test_crisp_grid_and_network_recompute_from_report_json(self, bundle, crispify):
        rep = run_analysis(bundle(), AnalysisConfig(crispify_mode=crispify))
        doc = json.loads(render_report_json(rep))
        config = doc["config"]
        tstar = crispify_total(np.array(doc["total"]), config["crispify_mode"])
        q = threshold(tstar, config["threshold_mode"], config["threshold_value"])
        assert q == config["threshold_q"]
        net = extract_network(tstar, q, doc["criteria"])
        assert net.strength.size
        for name in ("source", "target", "strength"):
            assert np.array_equal(getattr(net, name), getattr(rep.network, name)), name
        assert render_graph_dot(net) == render_graph_dot(rep.network)

    def test_readme_names_the_report_json_keys(self, fixture_report):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        found = re.search(r"^`analyze` writes `report\.json` in schema (\d+)\. Its keys, in order:\n\n((?:.+\n)+)",
                          readme, re.MULTILINE)
        assert found, "README has no report.json key list"
        bullets = re.findall(r"^- (.*?):", found[2], re.MULTILINE)
        doc = json.loads(render_report_json(fixture_report))
        assert [key for head in bullets for key in re.findall(r"`(\w+)`", head)] == list(doc)
        assert int(found[1]) == doc["schema"]

    @pytest.mark.parametrize("tau", TAU_STRATEGIES)
    def test_normalized_grid_is_rough_group_over_tau(self, tau):
        rep = run_analysis(load_study_bundle(), AnalysisConfig(tau_strategy=tau))
        doc = json.loads(render_report_json(rep))
        normalized = np.asarray(doc["rough_group"]) / doc["config"]["tau"]
        assert np.array_equal(normalized, rep.analysis.group_matrix / rep.analysis.tau)

    def test_unknown_threshold_mode_rejected(self):
        with pytest.raises(InvalidArgumentError, match="unknown threshold mode 'x'"):
            run_analysis(load_study_bundle(), AnalysisConfig(threshold_mode="x"))

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
        dot = render_graph_dot(network(["b", "a"], [])).decode()
        assert '"a";' in dot and '"b";' in dot
        assert "->" not in dot

    def test_single_edge_attribute(self):
        net = network(["a", "b"], [("a", "b", 1.0)])
        dot = render_graph_dot(net).decode()
        assert dot.count("->") == 1
        assert '"a" -> "b" [weight=1.000000];' in dot

    def test_quotes_and_backslashes_escaped(self):
        net = network(['A"x', "b\\c"], [('A"x', "b\\c", 1.0)])
        dot = render_graph_dot(net).decode()
        assert '  "A\\"x";' in dot and '  "b\\\\c";' in dot
        assert '"A\\"x" -> "b\\\\c" [weight=1.000000];' in dot

    def test_sorted_deterministic_order(self):
        e = [("b", "a", 0.2), ("a", "b", 0.4)]
        d1 = render_graph_dot(network(["b", "a"], e))
        d2 = render_graph_dot(network(["a", "b"], e[::-1]))
        assert d1 == d2

    @pytest.mark.parametrize("ids", [
        ["C2", "C10", "C1", "C20"],
        ["\u00e9t\u00e9", "zed", "\u4e2d", "Z", "a\u0301"],
        ['q"b', "q\\a", 'q"a', "q\\\\", '"', "\\"],
    ], ids=["numbered", "non-ascii", "quotes-backslashes"])
    def test_matches_object_oracle(self, ids):
        # the ids' sorted order is not their input order, so edges are re-sorted by id, not by index
        assert sorted(ids) != ids
        t = np.random.default_rng(len(ids)).random((len(ids), len(ids)))
        for q in (0.0, float(np.median(t)), 2.0):
            net = extract_network(t, q, ids)
            assert render_graph_dot(net) == oracle_graph_dot(net)

    def test_fixture_network_has_no_outgoing_e1_e2_edges(self, fixture_report):
        sources = {e["source"] for e in edge_dicts(fixture_report.network)}
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
        assert all(e["status"] in (PASS, NOT_COMPARABLE) for e in entries)

    @pytest.mark.parametrize("tau, replay", [(TAU_MAX_TOTAL_SUM, PASS), (TAU_MAX_UPPER_SUM, FAIL)])
    def test_entry_sequence_is_pinned(self, tau, replay):
        # the stated tau misses every replayed cell; the weight table is checked from the published X/Y either way
        rep = run_analysis(load_study_bundle(), AnalysisConfig(tau_strategy=tau))
        entries = deviation_ledger(rep.analysis, load_reference_tables())
        assert [(e["table"], e["cell"], e["status"], e["note"]) for e in entries] == ledger_sequence(
            rep.analysis.criteria, replay
        )

    def test_crisp_conversion_marked_not_comparable(self, fixture_report):
        entries = deviation_ledger(fixture_report.analysis, load_reference_tables())
        ncomp = [e for e in entries if e["status"] == NOT_COMPARABLE]
        assert {e["table"] for e in ncomp} == {"crisp_x", "crisp_y"}
        assert len(ncomp) == 14

    def test_literal_tau_strategy_fails_with_differences(self):
        rep = run_analysis(load_study_bundle(), AnalysisConfig(tau_strategy=TAU_MAX_UPPER_SUM))
        entries = deviation_ledger(rep.analysis, load_reference_tables())
        failures = [e for e in entries if e["status"] == FAIL]
        assert failures
        assert all(e["difference"] is not None and e["difference"] > e["tolerance"] for e in failures)

    def test_differences_consistent_with_status(self, fixture_report):
        for e in deviation_ledger(fixture_report.analysis, load_reference_tables()):
            if e["status"] == NOT_COMPARABLE:
                assert e["computed"] is None
                continue
            assert e["difference"] == pytest.approx(abs(e["reference"] - e["computed"]), abs=1e-15)
            assert e["difference"] >= 0
            assert (e["status"] == PASS) == (e["difference"] <= e["tolerance"])

    def test_reordered_criteria_rejected(self, fixture_report):
        reference = load_reference_tables()
        reference["criteria"] = reference["criteria"][::-1]
        with pytest.raises(InvalidArgumentError, match="disagree on criterion order"):
            deviation_ledger(fixture_report.analysis, reference)

    def test_deviation_csv_renders(self, fixture_report):
        entries = deviation_ledger(fixture_report.analysis, load_reference_tables())
        data = render_deviations_csv(entries)
        rows = list(csv.DictReader(io.StringIO(data.decode())))
        assert len(rows) == len(entries)
        assert rows[0]["status"] in (PASS, FAIL, NOT_COMPARABLE)


def oracle_report_json(report):
    """The whole schema-4 report through the stdlib's encoder, grids built with .tolist()."""
    a = report.analysis
    doc = {
        "schema": 4,
        "config": report.config,
        "criteria": a.criteria,
        "results": [
            {
                "criterion": r.criterion,
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
        "deviations": report.deviations,
    }
    return (json.dumps(doc) + "\n").encode("utf-8")


def dump_json(value, ensure_ascii=True):
    """The text ``json_chunks`` yields, joined."""
    return "".join(json_chunks(value, ensure_ascii))


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


array_shapes = hnp.array_shapes(min_dims=1, max_dims=4, min_side=0, max_side=4)
doc_shapes = hnp.array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=4)  # a 0-d array too
# a grid of two or three distinct values, 0.0 and -0.0 among them
few_valued_grids = grid_floats.flatmap(
    lambda v: hnp.arrays(np.float64, array_shapes, elements=st.sampled_from([0.0, -0.0, v]))
)


@st.composite
def chunk_straddling_grids(draw):
    """A 1-d or 2-d int or float grid of one value or of 8191, 8192, 8193 or 16385, about json_grid's dedup chunk
    of 8192, drawn from a few values (-0.0 and 0.0 among a float grid's), so sorted runs cross the chunk edges."""
    dtype = np.dtype(draw(st.sampled_from([np.float64, np.float32, np.int8, np.int16, np.int32, np.int64])))
    size = draw(st.sampled_from([1, 8191, 8192, 8193, 16385]))
    pool = draw(st.lists(hnp.from_dtype(dtype, allow_nan=False, allow_infinity=False), min_size=1, max_size=5))
    values = np.array(pool + ([0.0, -0.0] if dtype.kind == "f" else []), dtype=dtype)
    grid = values[np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(0, len(values), size)]
    rows = draw(st.sampled_from([r for r in (1, 3, 5, 64) if size % r == 0]))
    return grid.reshape(rows, -1) if rows > 1 else grid


# text that looks like JSON layout: braces, quotes, newlines, non-ASCII
row_text = st.text(st.sampled_from('{}",: \n\u00e9\u4e2d') | st.characters(), max_size=4)
row_values = (
    st.none() | st.booleans() | st.integers() | st.sampled_from([2**70, -(2**64)]) | st.floats() | row_text
    | st.lists(st.integers(), max_size=2)
)
row_tables = st.lists(st.dictionaries(row_text, row_values, max_size=3), min_size=1, max_size=3)
json_docs = st.recursive(
    hnp.arrays(np.float64, doc_shapes, elements=grid_floats)
    | hnp.arrays(st.sampled_from([np.int8, np.int16, np.int32, np.int64]), doc_shapes)  # a parsed panel's dtypes
    | few_valued_grids | row_tables
    | st.none() | st.booleans() | st.integers() | grid_floats | st.text(max_size=3)
    | st.lists(st.integers() | st.text(max_size=3), max_size=3),
    lambda docs: st.dictionaries(st.sampled_from(["a", "\u00e9t\u00e9", "\u4e2d", 'q"\\\n']) | st.text(max_size=3),
                                 docs, max_size=3),
    max_leaves=8,
)


def kernel_grid(dtype):
    """More than ``ingest.REPR_WINDOW`` distinct values, so the float table crosses a window's edge, of which most
    take the repr kernel and some ``float.__repr__``: zeros, a subnormal, values in exponent form, negatives, 1e300;
    powers of two on either side of 1e-4.  The float32 copy holds 3e38 in place of 1e300, the largest it can; the
    kernel must get its values widened, as ``tolist()`` gives them."""
    rng = np.random.default_rng(11)
    special = [0.0, -0.0, 5e-324, 1e-310, 2.0, 0.5, 1024.0, 2.0**-20, 1e-7, 3.5e-5, 9.999999999999999e-05,
               1e15, 2.5e16, -1.5, -0.3, 1e300 if dtype == np.float64 else 3e38]
    size = ingest.REPR_WINDOW + 504  # with the 16 special values, four equal rows
    values = np.concatenate([rng.random(size) * 10.0 ** rng.integers(-4, 15, size), special])
    return rng.permutation(values).reshape(2, 2, -1).astype(dtype)


class TestReportJsonLayout:
    @settings(max_examples=300, deadline=None)
    @given(json_docs, st.booleans())
    @example({"g": np.array(1.5), "n": np.array(7, dtype=np.int16)}, True)  # 0-d arrays
    def test_grid_matches_encoder(self, doc, ensure_ascii):
        """Grids (few-valued ones too), lists of dicts, nested dicts (empty ones too) and non-ASCII keys, under both
        ``ensure_ascii``."""
        assert dump_json(doc, ensure_ascii) == json.dumps(tolisted(doc), ensure_ascii=ensure_ascii)

    @pytest.mark.parametrize("grid", [
        np.array([1.5, -0.0, 1.5]), np.array([7]), np.zeros(0), np.zeros((2, 0)), np.zeros((0, 3, 2)),
        np.array([[[0.25, 0.5], [0.5, 0.25]]]), np.ones((1, 1, 1), dtype=np.int64), np.arange(3).reshape(1, 3),
        kernel_grid(np.float64), kernel_grid(np.float32),
    ], ids=["1d", "1d-one", "empty", "empty-inner", "empty-leading", "leading-1", "leading-1-int", "leading-1-2d",
            "kernel-mixed", "kernel-mixed-float32"])
    def test_edge_shapes_match_encoder(self, grid):
        assert dump_json({"g": grid}) == json.dumps({"g": grid.tolist()})

    def test_grid_comes_one_row_at_a_time(self):
        grid = np.arange(24.0).reshape(4, 3, 2)
        chunks = list(json_chunks(grid))
        assert len(chunks) == 1 + len(grid)  # each row (the first opens the list), then the closing bracket
        assert "".join(chunks) == json.dumps(grid.tolist())

    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(np.float64, array_shapes, elements=grid_floats)
           | hnp.arrays(st.sampled_from([np.int8, np.int16, np.int32, np.int64]), array_shapes) | few_valued_grids,
           st.integers(1, 40))
    @example(np.array([0.0, -0.0, 0.0, -0.0, 1.5]), 2)  # 1-d; -0.0 next to 0.0, in one window and across two
    @example(np.arange(30.0).reshape(5, 6), 4)  # a window smaller than one row
    @example(np.array([[0.0, -0.0], [-0.0, 0.0], [2.5, 0.0]]).repeat(3, axis=0), 4)  # 9 rows, 2 a window
    @example(np.zeros((3, 0, 2)), 1)  # an empty inner axis
    @example(np.zeros((0, 4)), 3)  # an empty leading axis
    @example(np.arange(35, dtype=np.int16).reshape(7, 5), 10)  # 2 rows a window; 7 rows do not divide
    def test_windowed_grid_matches_encoder(self, grid, window):
        chunks = list(json_grid(grid, window))
        assert "".join(chunks) == json.dumps(grid.tolist())
        if grid.size:
            assert len(chunks) == 1 + len(grid)  # still one chunk a leading row

    @settings(max_examples=60, deadline=None)
    @given(chunk_straddling_grids())
    @example(np.array([7]))  # one value
    @example(np.repeat([1.5, -0.0, 0.0], [8191, 1, 8193]))  # -0.0 sorts first, then 0.0's run crosses 8192
    @example(np.full((5, 3277), -0.0))  # one run through both chunk edges
    @example(np.arange(16385, dtype=np.int16).reshape(5, -1) % 8192)  # equal values 8192 apart
    def test_dedup_table_matches_encoder_across_chunks(self, grid):
        chunks = list(json_grid(grid))
        assert "".join(chunks) == json.dumps(grid.tolist())
        assert len(chunks) == 1 + len(grid)

    @staticmethod
    def widest_reprs(count):
        """``count`` distinct floats whose reprs are 24 characters, the most a slot holds: neighbours of
        -1.2345678901234567e-300."""
        near = (np.array(-1.2345678901234567e-300).view(np.int64) + np.arange(-8 * count, 8 * count)).view(np.float64)
        widest = near[[len(repr(v)) == 24 for v in near.tolist()]][:count]
        assert len(widest) == count
        return widest

    @pytest.mark.parametrize("window", [None, 1, 7, 4096])
    @pytest.mark.parametrize("case", ["repr-24", "int64-min", "1d", "4d", "kernel-repr-24"])
    def test_slot_layout_edge_cases(self, case, window):
        # each value's repr fills a 24-byte slot or leaves NUL padding that is deleted, as is the layout text's
        grid = {
            "repr-24": lambda: np.array([[-1.2345678901234567e-300, 0.5], [0.0, -1.2345678901234567e-300]]),
            "int64-min": lambda: np.array([[np.iinfo(np.int64).min, 0], [7, np.iinfo(np.int64).max]]),
            "1d": lambda: np.array([-1.2345678901234567e-300, 2.5, -0.0]),
            "4d": lambda: np.arange(48.0).reshape(2, 3, 2, 4) / 7,
            "kernel-repr-24": lambda: np.concatenate([self.widest_reprs(1200), np.random.default_rng(3).random(600)])
            .reshape(3, 600),  # above _FLOAT_KERNEL_MIN values, in the table and in a window
        }[case]()
        chunks = list(json_grid(grid, window))
        assert "".join(chunks) == json.dumps(grid.tolist())
        assert len(chunks) == 1 + len(grid)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_grid_rejects_non_finite(self, bad):
        for grid in (np.array([[0.0, bad], [1.0, 0.0]]), np.array(bad)):
            with pytest.raises(InvalidArgumentError):
                dump_json({"tstar": grid})

    def test_all_distinct_grid_peaks_below_56_bytes_a_value(self):
        # the distinct reprs sit in a fixed-width bytes table, ~24 bytes each, not ~70 as str objects
        grid = np.random.default_rng(0).random((200, 200, 2))
        tracemalloc.start()
        try:
            for _ in json_chunks(grid):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 56 * grid.size

    def test_rough_group_table_peaks_below_20_bytes_a_value(self):
        # the argsort's order, a first-of-run mask and the int32 inverse, 13 bytes a value, then the float kernel's
        # temporaries on the inverse: no int32 temporary beside it
        group = run_analysis(synth_raw_bundle(200, 21)).analysis.group_matrix
        for _ in json_grid(group):  # once untraced, so first-call set-up is not counted
            pass
        tracemalloc.start()
        try:
            for _ in json_grid(group):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * group.size

    def test_distinct_peaks_below_16_bytes_a_value(self):
        # 13 bytes a value, the order, the mask and the inverse, with the distinct values and one chunk's sorted
        # values: neither a whole sorted copy (8 bytes a value) nor a whole int32 rank array (4) is made
        bits = run_analysis(synth_raw_bundle(200, 21)).analysis.group_matrix.ravel().view(np.int64)
        tracemalloc.start()
        try:
            distinct, where = ingest._distinct(bits)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(distinct[where], bits) and np.all(distinct[1:] > distinct[:-1])
        assert peak < 16 * bits.size

    def test_report_json_peaks_below_30_bytes_a_total_value(self):
        # total is all distinct and written a window at a time; the rough group's one table holds its few distinct
        # values, so neither grid holds a whole-grid sort or repr table of total's size
        rep = run_analysis(synth_raw_bundle(200, 21))
        for _ in report_json_chunks(rep):  # once untraced, so first-call set-up is not counted
            pass
        tracemalloc.start()
        try:
            for _ in report_json_chunks(rep):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        values = rep.analysis.total.size
        assert peak < 30 * values

    def test_bundled_study_with_ledger_matches_encoder(self, fixture_report):
        rep = dataclasses.replace(
            fixture_report, deviations=deviation_ledger(fixture_report.analysis, load_reference_tables())
        )
        assert render_report_json(rep) == oracle_report_json(rep)

    def test_synth_raw_panel_matches_encoder(self):
        # a raw panel's rough group repeats its values
        rep = run_analysis(synth_raw_bundle(), AnalysisConfig(crispify_mode=CRISPIFY_GLOBAL))
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
        rep = run_analysis(parse_study_bundle(json.dumps(doc)))
        assert render_report_json(rep) == oracle_report_json(rep)


json_scalars = st.one_of(st.none(), st.booleans(), st.integers(-2, 10), st.floats(), st.text(max_size=3))
# lone surrogates too: json.dumps escapes one as "\ud800", which json.loads reads back as text UTF-8 cannot encode
id_chars = st.characters() | st.characters(categories=["Cs"])


@st.composite
def json_bundles(draw):
    """Bundle documents of up to 6 criteria: half well-formed, half with stray values anywhere.

    A quarter of the well-formed ones, and the stray ones, draw ids from an alphabet with lone surrogates.
    """
    dirty = draw(st.booleans())
    if dirty:
        n, m, lo = draw(st.integers(0, 6)), draw(st.integers(0, 4)), draw(st.integers(-1, 2))
        hi = draw(st.integers(lo - 1, lo + 9))
        ids = [draw(st.text(id_chars, max_size=4) | json_scalars) for _ in range(n)]
    else:
        n, m, lo = draw(st.integers(2, 6)), draw(st.integers(2, 4)), draw(st.integers(0, 2))
        hi = draw(st.integers(lo + 1, lo + 9))
        id_text = st.text(id_chars if draw(st.integers(0, 3)) == 0 else st.characters(), max_size=3)
        ids = [draw(id_text) + f"#{i}" for i in range(n)]
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
    assert dot == oracle_graph_dot(rep.network)
