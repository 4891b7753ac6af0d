"""Analysis orchestration and serialization.

Builds a full AnalysisReport from a study bundle, renders result tables
(CSV and JSON), emits the influence network as a DOT graph file, and
reconciles a run against published reference tables as a deviation ledger.
All rendering is deterministic: the same report yields identical bytes.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import network as net_mod
from . import pipeline
from .errors import InvalidArgumentError
from .ingest import StudyBundle, dump_json
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


# the result table's columns, one per AnalysisResult field in declaration order
_RESULT_COLUMNS = ("criterion", "x", "y", "prominence", "relation", "omega", "weight", "rank", "group")


def _fmt(v: float) -> str:
    # 4 fractional digits, round-half-even (python's default float formatting)
    return f"{v:.4f}"


def render_results_csv(report: AnalysisReport) -> bytes:
    """Result table mirroring the X / Y / X+Y / X-Y and weight/ranking columns."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(_RESULT_COLUMNS)
    for r in report.results:
        writer.writerow(
            [r.criterion_id, _fmt(r.x), _fmt(r.y), _fmt(r.prominence), _fmt(r.relation),
             _fmt(r.omega), _fmt(r.weight), r.rank, r.group]
        )
    return buf.getvalue().encode("utf-8")


def render_report_json(report: AnalysisReport) -> bytes:
    """Full-precision structured form of the whole report.

    Schema 2: the normalized grid is ``rough_group / config.tau`` and is not
    written; ``config.threshold_q`` and ``network.threshold`` hold the same
    q, and ``network.nodes`` the ids in ``criteria``.  The bytes are exactly
    those of ``json.dumps(doc, indent=2) + "\n"`` with each grid as its
    ``tolist()``.  ``ingest.dump_json`` writes them: each grid is one join that
    reprs every distinct value once (a raw panel's rough group repeats values:
    a cell's bounds depend only on how many experts chose each judgment), and
    the results, edges and deviations tables are one C-encoder call each.
    """
    a = report.analysis
    doc = {
        "schema": 2,
        "config": report.config,
        "criteria": a.criteria,
        "results": [dict(zip(_RESULT_COLUMNS, vars(r).values())) for r in report.results],
        "rough_group": a.group_matrix,
        "total": a.total,
        "tstar": report.tstar,
        "network": {
            "threshold": report.network.threshold,
            "nodes": list(report.network.nodes),
            "edges": [vars(e) for e in report.network.edges],
        },
        # vars() lists a dataclass's fields in declaration order; dataclasses.asdict
        # deep-copies each value, ~3 ms for the bundled study's ledger, as long as its analysis
        "deviations": [vars(d) for d in report.deviations],
    }
    return (dump_json(doc) + "\n").encode("utf-8")


def render_graph_dot(network: InfluenceNetwork) -> bytes:
    """Plain-text directed graph (DOT); nodes and edges in sorted order."""
    quoted = {node: _dot_id(node) for node in network.nodes}  # each id quoted once, not twice per edge
    lines = ["digraph influence {"]
    lines += [f"  {quoted[node]};" for node in sorted(network.nodes)]
    for e in sorted(network.edges, key=lambda e: (e.source, e.target)):
        source, target = quoted.get(e.source) or _dot_id(e.source), quoted.get(e.target) or _dot_id(e.target)
        lines.append(f"  {source} -> {target} [weight={e.strength:.6f}];")
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
        numbers = ("" if v is None else repr(v) for v in (d.reference, d.computed, d.difference, d.tolerance))
        writer.writerow([d.table, d.cell, *numbers, d.status, d.note])
    return buf.getvalue().encode("utf-8")


def _compare(table: str, cell: str, reference: float, computed: float, tol: float, note: str = "") -> DeviationEntry:
    diff = float(abs(reference - computed))
    status = PASS if diff <= tol else FAIL
    return DeviationEntry(table, cell, float(reference), float(computed), diff, tol, status, note)


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
    sides = ("lower", "upper")
    entries = [
        _compare("normalized", f"({ids[i]},{ids[j]}).{side}", reference[f"normalized_{side}"][i][j],
                 analysis.normalized[i, j, k], 5e-4)
        for i in range(n) for j in range(n) if i != j for k, side in enumerate(sides)
    ]
    entries += [
        _compare("total.lower", f"({ids[i]},{ids[j]})", reference["total_lower"][i][j], analysis.total[i, j, 0],
                 2e-3, note="published grid orientation")
        for i in range(n) for j in range(n)
    ]
    # published x = column sums of the computed total matrix, y = row sums
    for name, axis in (("x", 0), ("y", 1)):
        sums = pipeline.interval_sums(analysis.total, axis)
        for k, side in enumerate(sides):
            entries += [_compare(f"sums.{name}_{side}", ids[i], reference[f"sum_{name}_{side}"][i], sums[i, k], 1e-3,
                                 note="transposed grid mapping applied") for i in range(n)]
    # the published crisp X/Y cannot be recovered from the published sums
    entries += [
        DeviationEntry(kind, ids[i], float(reference[kind][i]), None, None, None, NOT_COMPARABLE,
                       note="published crisp values do not follow from the published sums via the stated conversion")
        for kind in ("crisp_x", "crisp_y") for i in range(n)
    ]
    # weight table, recomputed from the published crisp X/Y values
    ref_x, ref_y = (np.asarray(reference[kind], dtype=float) for kind in ("crisp_x", "crisp_y"))
    omega, w, ranks = pipeline.weights(ref_x + ref_y, ref_x - ref_y)
    for i in range(n):
        entries += [
            _compare("weights.omega", ids[i], reference["omega"][i], omega[i], 1e-3),
            _compare("weights.weight", ids[i], reference["weight"][i], w[i], 1e-3),
            _compare("weights.rank", ids[i], reference["rank"][i], ranks[i], 0.0),
        ]
    entries.append(_compare("weights.sum", "sum(W)", 1.0, float(w.sum()), 1e-9))
    return entries


def ledger_passes(entries: Sequence[DeviationEntry]) -> bool:
    """True iff every comparable cell passes its tolerance."""
    return all(e.status != FAIL for e in entries)
