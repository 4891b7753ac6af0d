"""Analysis orchestration and serialization.

Builds a full AnalysisReport from a study bundle, renders result tables
(CSV and JSON), emits the influence network as a DOT graph file, and
reconciles a run against published reference tables as a deviation ledger.
All rendering is deterministic: the same report yields identical bytes.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field, fields
from typing import Iterator, Sequence

import numpy as np

from . import network as net_mod
from . import pipeline
from .errors import InvalidArgumentError
from .ingest import REPR_WINDOW, StudyBundle, json_chunks, json_grid
from .pipeline import AnalysisResult, RoughAnalysis

PASS = "pass"
FAIL = "fail"
NOT_COMPARABLE = "not-comparable"

# a deviation ledger row is a dict of these keys in this order, the columns of deviations.csv and report.json;
# a not-comparable row's computed value, difference and tolerance are None
_LEDGER_COLUMNS = ("table", "cell", "reference", "computed", "difference", "tolerance", "status", "note")


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
    network: net_mod.InfluenceNetwork
    deviations: list[dict] = field(default_factory=list)


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
        network=network,
    )


def render_results_csv(report: AnalysisReport) -> bytes:
    """Result table, a column per ``AnalysisResult`` field; floats to 4 places, rounded half to even."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow([f.name for f in fields(AnalysisResult)])
    for r in report.results:
        writer.writerow([f"{v:.4f}" if type(v) is float else v for v in vars(r).values()])
    return buf.getvalue().encode("utf-8")


def render_report_json(report: AnalysisReport) -> bytes:
    """Full-precision structured form of the whole report: the join of ``report_json_chunks``, encoded."""
    return "".join(report_json_chunks(report)).encode("utf-8")


def report_json_chunks(report: AnalysisReport) -> Iterator[str]:
    """Yield the text of ``report.json`` in chunks, for a caller that writes it as it renders.

    Schema 4 leaves out what a reader can recompute: the normalized grid ``rough_group / config.tau``, the crisp
    grid ``tstar = network.crispify_total(total, config.crispify_mode)`` and the network, whose edges are
    ``network.extract_network(tstar, config.threshold_q, criteria)``.  Only ``criteria`` repeats values, the
    results' ``criterion`` column.  The text is exactly that of
    ``json.dumps(doc) + "\n"`` with each grid as its ``tolist()``.  ``ingest.json_chunks`` writes it: each grid comes
    one row at a time from ``ingest.json_grid``, which reprs every distinct value of ``rough_group`` once (a raw
    panel's rough group repeats values: a cell's bounds depend only on how many experts chose each judgment) and
    those of ``total``, all distinct, a window of ``ingest.REPR_WINDOW`` values at a time, and lays each row out by
    copying its reprs into 24-byte slots between the row's NUL-padded layout text and deleting the NULs; the results
    and deviations tables are one C-encoder call each.
    """
    a = report.analysis
    doc = {
        "schema": 4,
        "config": report.config,
        "criteria": a.criteria,
        # vars() lists a dataclass's fields in declaration order; dataclasses.asdict deep-copies each value
        "results": [vars(r) for r in report.results],
        "rough_group": a.group_matrix,
        "total": json_grid(a.total, REPR_WINDOW),  # all distinct: reprs written a kernel window at a time, no table
        "deviations": report.deviations,
    }
    yield from json_chunks(doc)
    yield "\n"


def render_graph_dot(network: net_mod.InfluenceNetwork) -> bytes:
    """Plain-text directed graph (DOT); nodes in sorted id order, edges in sorted (source id, target id) order.

    From ``_DOT_FRAME_MIN`` edges on, ``_edge_frame`` lays the edge lines out; fewer are written by one ``%`` format
    of all their lines.
    """
    # each id quoted once, not twice per edge, as a DOT quoted string: backslashes and double quotes escaped
    quoted = ['"' + node.replace("\\", "\\\\").replace('"', '\\"') + '"' for node in network.nodes]
    order = sorted(range(len(quoted)), key=network.nodes.__getitem__)
    rank = np.argsort(order)  # each id's place in sorted order; ids are unique, so rank order is id order
    edges = np.argsort(rank[network.source] * len(rank) + rank[network.target])  # an edge a pair: keys are unique
    source, target, strength = network.source[edges], network.target[edges], network.strength[edges]
    if len(edges) < _DOT_FRAME_MIN:
        fields: list = [None] * (3 * len(edges))  # each edge's source, target and weight, formatted in one % call
        fields[0::3] = map(quoted.__getitem__, source.tolist())
        fields[1::3] = map(quoted.__getitem__, target.tolist())
        fields[2::3] = strength.tolist()
        lines = ("  %s -> %s [weight=%.6f];\n" * len(edges) % tuple(fields)).encode("utf-8")
    else:
        lines = _edge_frame(quoted, source, target, strength)
    nodes = "".join(f"  {quoted[i]};\n" for i in order).encode("utf-8")
    return b"".join([b"digraph influence {\n", nodes, lines, b"}\n"])


def _edge_frame(quoted: list[str], source: np.ndarray, target: np.ndarray, strength: np.ndarray) -> bytearray:
    """The edge lines, ``  "source" -> "target" [weight=%.6f];``, laid out as the rows of one uint8 frame.

    The fixed text is written once a column, each quoted id and weight is padded to the widest with 0xFF, a byte
    UTF-8 never uses, and one ``translate`` deletes the padding; the weights' text comes from ``_fixed6``.  The frame
    is freed on return, before the caller joins the text.
    """
    ids = _padded([q.encode("utf-8") for q in quoted])

    def text(fixed: bytes) -> np.ndarray:
        return np.broadcast_to(np.frombuffer(fixed, np.uint8), (len(strength), len(fixed)))

    columns = [text(b"  "), ids[source], text(b" -> "), ids[target], text(b" [weight="), _fixed6(strength),
               text(b"];\n")]
    width = sum(c.shape[1] for c in columns)
    frame = bytearray(len(strength) * width)
    np.concatenate(columns, axis=1, out=np.frombuffer(frame, np.uint8).reshape(len(strength), width))
    return frame.translate(None, _PAD)


# The frame's fixed cost, ~60 us of numpy calls, is matched by one % format of every line at ~350 edges (~0.35 us an
# edge against the frame's ~0.17, 2-vCPU Xeon host); below _DOT_FRAME_MIN edges the % format is used.
_DOT_FRAME_MIN = 384
_PAD = b"\xff"  # not a byte of any UTF-8 text
# From 2**52 / 1e6 on, a strength's product with 1e6 holds no bits below the units, so a half cannot be told from it
_FIXED6_MAX = 2.0**52 / 1e6


def _padded(texts: list[bytes], width: int = 0) -> np.ndarray:
    """The texts as the rows of a uint8 array, each padded with 0xFF to the widest, and to ``width`` at least."""
    width = max([width, *map(len, texts)])
    return np.frombuffer(b"".join(t.ljust(width, _PAD) for t in texts), np.uint8).reshape(len(texts), width)


def _fixed6(values: np.ndarray) -> np.ndarray:
    """``b"%.6f" % v`` of each float64 value as the rows of a uint8 array, each padded with 0xFF to the widest.

    The digits are those of rint(v * 1e6), split into the whole part and six fractional digits.  That is %.6f's
    rounding, half to even, of the exact v * 1e6 unless the one rounding of the product can move it across a half:
    a value whose product lies within a few ulps of a half goes through %.6f itself, and so does a negative one
    (-0.0 included), a non-finite one and one at or above ``_FIXED6_MAX``.
    """
    plain = ~np.signbit(values) & (values < _FIXED6_MAX)  # NaN compares false
    scaled = np.where(plain, values, 0.0) * 1e6
    plain &= np.abs(scaled - np.floor(scaled) - 0.5) > 4 * np.spacing(scaled)
    millionths = np.rint(scaled, out=scaled).astype(np.int64) * plain
    whole, fraction = np.divmod(millionths, 10**6)
    width = len(str(whole.max(initial=0)))  # digits of the widest whole part
    slow = np.flatnonzero(~plain)
    fallback = _padded([b"%.6f" % v for v in values[slow].tolist()], width + 7)
    out = np.full((len(values), fallback.shape[1]), _PAD[0], dtype=np.uint8)
    out[:, width] = ord(".")
    places = [(k, whole, 10 ** (width - 1 - k)) for k in range(width)]
    places += [(width + 1 + k, fraction, 10 ** (5 - k)) for k in range(6)]
    for column, number, place in places:
        out[:, column] = number // place % 10 + ord("0")
    for column, place in enumerate(10 ** np.arange(width - 1, 0, -1)):  # a whole part's leading zeros are padding
        out[whole < place, column] = _PAD[0]
    out[slow] = fallback
    return out


def render_deviations_csv(entries: Sequence[dict]) -> bytes:
    """The ledger rows as CSV, a column per ledger key; a float is written as its repr, a None as an empty cell."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, _LEDGER_COLUMNS)
    writer.writeheader()
    writer.writerows(entries)
    return buf.getvalue().encode("utf-8")


def _row(*values) -> dict:
    return dict(zip(_LEDGER_COLUMNS, values, strict=True))


def _compare(table: str, cell: str, reference: float, computed: float, tol: float, note: str = "") -> dict:
    diff = float(abs(reference - computed))
    status = PASS if diff <= tol else FAIL
    return _row(table, cell, float(reference), float(computed), diff, tol, status, note)


def deviation_ledger(analysis: RoughAnalysis, reference: dict) -> list[dict]:
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
                 analysis.group_matrix[i, j, k] / analysis.tau, 5e-4)  # normalize_rough's division
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
        _row(kind, ids[i], float(reference[kind][i]), None, None, None, NOT_COMPARABLE,
             "published crisp values do not follow from the published sums via the stated conversion")
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


def ledger_passes(entries: Sequence[dict]) -> bool:
    """True iff every comparable cell passes its tolerance."""
    return all(e["status"] != FAIL for e in entries)
