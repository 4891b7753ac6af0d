"""Analysis orchestration and serialization.

Builds a full AnalysisReport from a study bundle, renders result tables
(CSV and JSON), emits the influence network as a DOT graph file, and
reconciles a run against published reference tables as a deviation ledger.
All rendering is deterministic: the same report yields identical bytes.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import network as net_mod
from . import pipeline
from .errors import InvalidArgumentError
from .ingest import StudyBundle, _json_grid
from .network import InfluenceNetwork
from .pipeline import AnalysisResult, RoughAnalysis

PASS = "pass"
FAIL = "fail"
NOT_COMPARABLE = "not-comparable"


@dataclass(frozen=True)
class AnalysisConfig:
    """The choices a study makes: tau strategy, crispify mode and edge cutoff.

    ``threshold_value`` is k for the ``mean-sigma`` threshold mode and q
    for ``fixed``.
    """

    tau_strategy: str = pipeline.TAU_MAX_TOTAL_SUM
    crispify_mode: str = net_mod.CRISPIFY_MIDPOINT
    threshold_mode: str = net_mod.THRESHOLD_MEAN_SIGMA
    threshold_value: float = 1.0


@dataclass
class AnalysisReport:
    config: dict
    results: list[AnalysisResult]
    analysis: RoughAnalysis
    tstar: np.ndarray
    network: InfluenceNetwork
    deviations: list["DeviationEntry"] = field(default_factory=list)


@dataclass(frozen=True)
class DeviationEntry:
    table: str
    cell: str
    reference: float | None
    computed: float | None
    difference: float | None
    tolerance: float | None
    status: str
    note: str = ""


def run_analysis(bundle: StudyBundle, config: AnalysisConfig = AnalysisConfig()) -> AnalysisReport:
    """Run the rough pipeline on a bundle and package every output."""
    criteria = bundle.criterion_ids
    analysis = pipeline.analyze_rough(
        criteria,
        panel=bundle.panel,
        group_matrix=bundle.rough_group,
        tau_strategy=config.tau_strategy,
    )
    tstar = net_mod.crispify_total(analysis.total, config.crispify_mode)
    q = net_mod.threshold(tstar, config.threshold_mode, config.threshold_value)
    network = net_mod.extract_network(tstar, q, criteria)
    echo = {
        "tau_strategy": config.tau_strategy,
        "tau": analysis.tau,
        "crispify_mode": config.crispify_mode,
        "threshold_mode": config.threshold_mode,
        "threshold_value": config.threshold_value,
        "threshold_q": q,
    }
    return AnalysisReport(
        config=echo,
        results=analysis.results,
        analysis=analysis,
        tstar=tstar,
        network=network,
    )


def _fmt(v: float) -> str:
    # 4 fractional digits, round-half-even (python's default float formatting)
    return f"{v:.4f}"


def render_results_csv(report: AnalysisReport) -> bytes:
    """Result table mirroring the X / Y / X+Y / X-Y and weight/ranking columns."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(["criterion", "x", "y", "prominence", "relation", "omega", "weight", "rank", "group"])
    for r in report.results:
        writer.writerow(
            [r.criterion_id, _fmt(r.x), _fmt(r.y), _fmt(r.prominence), _fmt(r.relation),
             _fmt(r.omega), _fmt(r.weight), r.rank, r.group]
        )
    return buf.getvalue().encode("utf-8")


def render_report_json(report: AnalysisReport) -> bytes:
    """Full-precision structured form of the whole report, each value written once.

    Schema 2: the normalized grid is ``rough_group / config.tau`` and is not
    written.  The bytes are exactly those of ``json.dumps(doc, indent=2) +
    "\n"``.  Any ``indent`` sends every value through the stdlib's
    pure-Python encoder and holds each chunk until the end, which for
    280k floats (four n x n grids at n = 200) cost ~1 s and a ~60 MB transient.
    So the grids are rendered by joining float reprs (``_json_grid``), every
    other value by ``json.dumps`` re-indented one level, and the
    ``"key": value`` parts are joined into the document.
    """
    a = report.analysis
    grids = {
        "rough_group": a.group_matrix.stacked(),
        "total": a.total.stacked(),
        "tstar": report.tstar,
    }
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
        **grids,
        "network": {
            "threshold": report.network.threshold,
            "nodes": list(report.network.nodes),
            "edges": [
                {"source": e.source, "target": e.target, "strength": e.strength}
                for e in report.network.edges
            ],
        },
        # vars() lists a dataclass's fields in declaration order; dataclasses.asdict
        # deep-copies each value, ~3 ms for the bundled study's ledger, as long as its analysis
        "deviations": [vars(d) for d in report.deviations],
    }
    # JSON escapes newlines inside strings, so every "\n" in a dumped value is layout
    parts = [
        f'  {json.dumps(key)}: '
        + (_json_grid(value, 1) if key in grids else json.dumps(value, indent=2).replace("\n", "\n  "))
        for key, value in doc.items()
    ]
    return ("{\n" + ",\n".join(parts) + "\n}\n").encode("utf-8")


def render_graph_dot(network: InfluenceNetwork) -> bytes:
    """Plain-text directed graph (DOT); nodes and edges in sorted order."""
    lines = ["digraph influence {"]
    for node in sorted(network.nodes):
        lines.append(f"  {_dot_id(node)};")
    for e in sorted(network.edges, key=lambda e: (e.source, e.target)):
        lines.append(f"  {_dot_id(e.source)} -> {_dot_id(e.target)} [weight={e.strength:.6f}];")
    lines.append("}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def _dot_id(s: str) -> str:
    """A DOT quoted-string id; backslashes and double quotes are escaped."""
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def render_deviations_csv(entries: Sequence[DeviationEntry]) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["table", "cell", "reference", "computed", "difference", "tolerance", "status", "note"])
    for d in entries:
        writer.writerow(
            [
                d.table,
                d.cell,
                "" if d.reference is None else repr(d.reference),
                "" if d.computed is None else repr(d.computed),
                "" if d.difference is None else repr(d.difference),
                "" if d.tolerance is None else repr(d.tolerance),
                d.status,
                d.note,
            ]
        )
    return buf.getvalue().encode("utf-8")


def _compare(table: str, cell: str, reference: float, computed: float, tol: float, note: str = "") -> DeviationEntry:
    diff = abs(reference - computed)
    return DeviationEntry(
        table=table,
        cell=cell,
        reference=float(reference),
        computed=float(computed),
        difference=float(diff),
        tolerance=tol,
        status=PASS if diff <= tol else FAIL,
        note=note,
    )


def deviation_ledger(analysis: RoughAnalysis, reference: dict) -> list[DeviationEntry]:
    """Reconcile a run entered at the published rough group matrix against the reference tables.

    The published total-relation grid is printed transposed relative to the
    row-sum convention this pipeline uses, so the published x column is
    matched against column sums and y against row sums.  The published
    crisp X/Y values cannot be derived from the published sums by the
    stated conversion (hand application lands near 1.30 where 3.61 is
    printed), so that step is marked not-comparable instead of failed; the
    final weight table is instead checked from the published X/Y values.
    """
    ids = reference["criteria"]
    if ids != analysis.criteria:
        raise InvalidArgumentError("reference tables and analysis disagree on criterion order")
    n = len(ids)
    entries: list[DeviationEntry] = []

    ref_nl = np.asarray(reference["normalized_lower"])
    ref_nu = np.asarray(reference["normalized_upper"])
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            entries.append(_compare("normalized", f"({ids[i]},{ids[j]}).lower", ref_nl[i, j], analysis.normalized.lower[i, j], 5e-4))
            entries.append(_compare("normalized", f"({ids[i]},{ids[j]}).upper", ref_nu[i, j], analysis.normalized.upper[i, j], 5e-4))

    ref_tl = np.asarray(reference["total_lower"])
    for i in range(n):
        for j in range(n):
            entries.append(
                _compare("total.lower", f"({ids[i]},{ids[j]})", ref_tl[i, j], analysis.total.lower[i, j], 2e-3,
                         note="published grid orientation")
            )

    # published x = column sums of the computed total matrix, y = row sums
    col_l, col_u = analysis.total.lower.sum(axis=0), analysis.total.upper.sum(axis=0)
    row_l, row_u = analysis.total.lower.sum(axis=1), analysis.total.upper.sum(axis=1)
    for name, ref_vec, comp_vec in (
        ("sums.x_lower", reference["sum_x_lower"], col_l),
        ("sums.x_upper", reference["sum_x_upper"], col_u),
        ("sums.y_lower", reference["sum_y_lower"], row_l),
        ("sums.y_upper", reference["sum_y_upper"], row_u),
    ):
        for i in range(n):
            entries.append(_compare(name, ids[i], ref_vec[i], comp_vec[i], 1e-3,
                                    note="transposed grid mapping applied"))

    # the published crisp X/Y cannot be recovered from the published sums
    for kind in ("crisp_x", "crisp_y"):
        for i in range(n):
            entries.append(
                DeviationEntry(
                    table=kind,
                    cell=ids[i],
                    reference=float(reference[kind][i]),
                    computed=None,
                    difference=None,
                    tolerance=None,
                    status=NOT_COMPARABLE,
                    note="published crisp values do not follow from the published sums via the stated conversion",
                )
            )

    # weight table, recomputed from the published crisp X/Y values
    ref_x = np.asarray(reference["crisp_x"], dtype=float)
    ref_y = np.asarray(reference["crisp_y"], dtype=float)
    m, rel = ref_x + ref_y, ref_x - ref_y
    omega, w, ranks = pipeline.weights(m, rel)
    for i in range(n):
        entries.append(_compare("weights.omega", ids[i], reference["omega"][i], omega[i], 1e-3))
        entries.append(_compare("weights.weight", ids[i], reference["weight"][i], w[i], 1e-3))
        entries.append(
            DeviationEntry(
                table="weights.rank",
                cell=ids[i],
                reference=float(reference["rank"][i]),
                computed=float(ranks[i]),
                difference=float(abs(reference["rank"][i] - ranks[i])),
                tolerance=0.0,
                status=PASS if int(reference["rank"][i]) == int(ranks[i]) else FAIL,
            )
        )
    entries.append(_compare("weights.sum", "sum(W)", 1.0, float(w.sum()), 1e-9))
    return entries


def ledger_passes(entries: Sequence[DeviationEntry]) -> bool:
    """True iff every comparable cell passes its tolerance."""
    return all(e.status != FAIL for e in entries)
