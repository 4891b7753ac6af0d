"""The rough DEMATEL pipeline.

Expert judgment panel -> per-cell judgment counts -> rough group matrix ->
normalized rough matrix -> rough total-relation matrix -> interval row and
column sums -> crisp prominence/relation -> weights, ranking and
cause/effect classification.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import crisp as crisp_mod
from .errors import (
    DegenerateInputError,
    InsufficientExpertsError,
    IntervalOrderError,
    InvalidArgumentError,
    ShapeError,
    SingularMatrixError,
)

TAU_MAX_TOTAL_SUM = "max-total-sum"
TAU_MAX_UPPER_SUM = "max-upper-sum"
TAU_STRATEGIES = (TAU_MAX_TOTAL_SUM, TAU_MAX_UPPER_SUM)

CAUSE = "cause"
EFFECT = "effect"
NEUTRAL = "neutral"


@dataclass(frozen=True)
class Scale:
    """Likert scale bounds for influence judgments (default 0..4)."""

    minimum: int = 0
    maximum: int = 4

    def __post_init__(self):
        if self.minimum < 0:
            raise InvalidArgumentError("scale minimum must be non-negative")
        if self.minimum >= self.maximum:
            raise InvalidArgumentError("scale minimum must be below maximum")


@dataclass(frozen=True)
class RoughMatrix:
    """Interval-valued square matrix stored as two bound matrices."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        up = np.asarray(self.upper, dtype=float)
        if lo.shape != up.shape or lo.ndim != 2 or lo.shape[0] != lo.shape[1]:
            raise ShapeError(f"bound matrices must be square and congruent, got {lo.shape} / {up.shape}")
        if np.any(lo > up + 1e-12):
            i, j = np.unravel_index(int(np.argmax(lo - up)), lo.shape)
            raise IntervalOrderError(f"entry ({i},{j}) has lower {lo[i, j]} > upper {up[i, j]}")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)

    @property
    def n(self) -> int:
        return self.lower.shape[0]

    @property
    def midpoint(self) -> np.ndarray:
        return (self.lower + self.upper) / 2.0

    def stacked(self) -> np.ndarray:
        """The grid as an (n, n, 2) array of ``[lower, upper]`` pairs, its JSON form in bundles and reports."""
        return np.stack([self.lower, self.upper], axis=-1)


@dataclass(frozen=True)
class RoughScores:
    """Interval row/column sums of the rough total matrix plus their crisp forms."""

    x_lower: np.ndarray
    x_upper: np.ndarray
    y_lower: np.ndarray
    y_upper: np.ndarray
    x_crisp: np.ndarray
    y_crisp: np.ndarray


@dataclass(frozen=True)
class AnalysisResult:
    """Per-criterion outcome of a rough DEMATEL run."""

    criterion_id: str
    x: float
    y: float
    prominence: float
    relation: float
    omega: float
    weight: float
    rank: int
    group: str


@dataclass
class RoughAnalysis:
    """Everything a single pipeline run produces, intermediates included."""

    criteria: list[str]
    tau: float
    group_matrix: RoughMatrix
    normalized: RoughMatrix
    total: RoughMatrix
    scores: RoughScores
    results: list[AnalysisResult] = field(default_factory=list)


def rough_group_matrix(panel: np.ndarray) -> RoughMatrix:
    """Pool an (experts, n, n) panel of integer judgments into the averaged rough group matrix.

    A rough number summarizes one judgment k against the cell's judgment
    multiset, duplicates counted: its lower bound is the mean of all
    judgments at or below k, its upper bound the mean of all judgments at or
    above k.  The group cell is the mean of the experts' rough numbers.  A
    unanimous cell collapses to a point, which is what makes the crisp method
    a degenerate case of the rough pipeline.

    ``counts[s, i, j]`` is how many experts gave cell (i, j) the s-th judgment
    level present in the panel.  The lower bounds are a cumulative sum over
    the levels from the bottom, the upper bounds one from the top, and the
    group bound is their count-weighted mean.  Counts do not depend on expert
    order.
    """
    panel = np.asarray(panel)
    if panel.ndim != 3 or panel.shape[1] != panel.shape[2]:
        raise ShapeError(f"panel must be an (experts, n, n) array, got shape {panel.shape}")
    m, n = panel.shape[:2]
    if m < 2:
        raise InsufficientExpertsError(
            "rough aggregation needs at least two experts; use the crisp method for one"
        )
    # the sorted distinct values; np.unique takes ~7x as long as this one sort at 21 x 200 x 200
    flat = np.sort(panel, axis=None)
    levels = flat[np.diff(flat, prepend=flat[:1] - 1) != 0]
    counts = np.zeros((levels.size, n, n), dtype=np.int64)
    for grid in panel:
        counts += grid == levels[:, None, None]
    lower, upper = np.zeros((n, n)), np.zeros((n, n))
    for bound, order in ((lower, slice(None)), (upper, slice(None, None, -1))):
        seen_n = np.zeros((n, n), dtype=np.int64)
        seen_sum = np.zeros((n, n))  # float64: an int64 sum wraps past 2**63, a float one is exact below 2**53
        for c, k in zip(counts[order], levels[order].astype(float)):
            seen_n += c
            seen_sum += c * k
            bound += c * np.divide(seen_sum, seen_n, out=np.zeros((n, n)), where=c > 0)
    return RoughMatrix(lower / m, upper / m)


def normalization_factor(r: RoughMatrix, strategy: str = TAU_MAX_TOTAL_SUM) -> float:
    """Scalar tau dividing the rough group matrix.

    ``max-upper-sum`` is the stated linear-scale rule (largest row sum of
    upper bounds); ``max-total-sum`` (largest row sum of lower plus upper
    bounds) is the variant the reference tables actually satisfy.
    """
    with np.errstate(over="ignore"):
        if strategy == TAU_MAX_UPPER_SUM:
            tau = float(r.upper.sum(axis=1).max())
        elif strategy == TAU_MAX_TOTAL_SUM:
            tau = float((r.lower.sum(axis=1) + r.upper.sum(axis=1)).max())
        else:
            raise InvalidArgumentError(f"unknown tau strategy {strategy!r}; use one of {TAU_STRATEGIES}")
    if not np.isfinite(tau):
        raise DegenerateInputError(
            f"normalization: tau ({strategy}) is {tau}; the rough group's row sums must be finite"
        )
    if tau == 0.0:
        raise DegenerateInputError("all-zero rough matrix cannot be normalized")
    return tau


def normalize_rough(r: RoughMatrix, strategy: str = TAU_MAX_TOTAL_SUM) -> tuple[RoughMatrix, float]:
    tau = normalization_factor(r, strategy)
    return RoughMatrix(r.lower / tau, r.upper / tau), tau


def rough_total_relation(rn: RoughMatrix) -> RoughMatrix:
    """Apply the total-relation closure to the lower and upper bound matrices independently."""
    totals = []
    for bound in ("lower", "upper"):
        try:
            totals.append(crisp_mod.solve_total_relation(getattr(rn, bound)))
        except (InvalidArgumentError, SingularMatrixError) as exc:
            raise type(exc)(f"{bound}-bound matrix: {exc}") from exc
    return RoughMatrix(*totals)


def crisp_convert(lower, upper) -> np.ndarray:
    """Convert intervals [lower, upper], given as two same-shaped arrays, to crisp values.

    Each interval is normalized against the global envelope
    [min lower, max upper] of all intervals, blended into a single
    coefficient, and denormalized back onto the original scale.  When the
    envelope is degenerate (all intervals the same point) the common point
    is returned for every entry.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if lower.shape != upper.shape:
        raise InvalidArgumentError(f"bound arrays differ in shape: {lower.shape} / {upper.shape}")
    if lower.size == 0:
        raise InvalidArgumentError("cannot crisp-convert an empty interval list")
    if np.any(lower > upper):
        raise IntervalOrderError("an interval has its lower bound above its upper bound")
    lo = lower.min()
    span = upper.max() - lo
    if span == 0.0:
        return np.full(lower.shape, lo)
    nl = (lower - lo) / span
    nu = (upper - lo) / span
    alpha = (nl * (1.0 - nl) + nu * nu) / (1.0 - nl + nu)
    return lo + alpha * span


def rough_sums(t: RoughMatrix) -> RoughScores:
    """Interval row sums X and column sums Y, each crisped against its own envelope."""
    xl, xu = t.lower.sum(axis=1), t.upper.sum(axis=1)
    yl, yu = t.lower.sum(axis=0), t.upper.sum(axis=0)
    return RoughScores(xl, xu, yl, yu, crisp_convert(xl, xu), crisp_convert(yl, yu))


def prominence_relation(scores: RoughScores) -> tuple[np.ndarray, np.ndarray]:
    return scores.x_crisp + scores.y_crisp, scores.x_crisp - scores.y_crisp


def weights(prominence: np.ndarray, relation: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Importance omega = sqrt(m^2 + n^2), normalized weights, 1-based ranks.

    Ranks order by descending omega; ties break by input order (stable sort).
    """
    prominence = np.asarray(prominence, dtype=float)
    relation = np.asarray(relation, dtype=float)
    if prominence.size == 0:
        raise InvalidArgumentError("need at least one criterion")
    omega = np.sqrt(prominence**2 + relation**2)
    total = omega.sum()
    if total == 0.0:
        raise DegenerateInputError("all-zero importance vector cannot be normalized")
    w = omega / total
    order = np.argsort(-omega, kind="stable")
    ranks = np.empty(omega.size, dtype=int)
    ranks[order] = np.arange(1, omega.size + 1)
    return omega, w, ranks


def classify(relation: np.ndarray) -> list[str]:
    """Positive relation -> cause, negative -> effect, exactly zero -> neutral."""
    return [CAUSE if n > 0 else EFFECT if n < 0 else NEUTRAL for n in np.asarray(relation)]


def analyze_rough(
    criteria: Sequence[str],
    *,
    panel: np.ndarray | None = None,
    group_matrix: RoughMatrix | None = None,
    tau_strategy: str = TAU_MAX_TOTAL_SUM,
) -> RoughAnalysis:
    """Run the full pipeline from either an (experts, n, n) judgment panel or a prebuilt rough group matrix."""
    criteria = list(criteria)
    if len(criteria) < 2:
        raise InvalidArgumentError("DEMATEL needs at least two criteria")
    if (panel is None) == (group_matrix is None):
        raise InvalidArgumentError("provide exactly one of panel or group_matrix")
    if panel is not None:
        group_matrix = rough_group_matrix(panel)
    assert group_matrix is not None
    if group_matrix.n != len(criteria):
        raise ShapeError(
            f"group matrix is {group_matrix.n}x{group_matrix.n} but {len(criteria)} criteria given"
        )
    normalized, tau = normalize_rough(group_matrix, tau_strategy)
    total = rough_total_relation(normalized)
    scores = rough_sums(total)
    m, n = prominence_relation(scores)
    omega, w, ranks = weights(m, n)
    labels = classify(n)
    results = [
        AnalysisResult(
            criterion_id=cid,
            x=float(scores.x_crisp[i]),
            y=float(scores.y_crisp[i]),
            prominence=float(m[i]),
            relation=float(n[i]),
            omega=float(omega[i]),
            weight=float(w[i]),
            rank=int(ranks[i]),
            group=labels[i],
        )
        for i, cid in enumerate(criteria)
    ]
    return RoughAnalysis(
        criteria=criteria,
        tau=tau,
        group_matrix=group_matrix,
        normalized=normalized,
        total=total,
        scores=scores,
        results=results,
    )
