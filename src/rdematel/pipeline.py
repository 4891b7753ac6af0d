"""The rough DEMATEL pipeline.

Expert judgment panel -> each cell's judgments, counted per value or sorted
-> rough group matrix -> normalized rough matrix -> rough total-relation
matrix -> interval row and column sums -> crisp prominence/relation ->
weights, ranking and cause/effect classification.

Every interval grid is a float array whose last axis is ``[lower, upper]``,
the (n, n, 2) layout bundles and ``report.json`` store.
"""

from __future__ import annotations

from dataclasses import dataclass
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
class AnalysisResult:
    """Per-criterion outcome of a rough DEMATEL run."""

    criterion: str
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
    """Everything a single pipeline run produces, intermediates included.

    Both grids are float (n, n, 2) arrays of ``[lower, upper]`` pairs; the
    normalized grid is ``group_matrix / tau``.
    """

    criteria: list[str]
    tau: float
    group_matrix: np.ndarray
    total: np.ndarray
    results: list[AnalysisResult]


def check_intervals(intervals) -> np.ndarray:
    """``intervals`` as a float array whose last axis is ``[lower, upper]``: finite, no lower bound above its upper.

    Raises ShapeError for a last axis other than 2, InvalidArgumentError
    naming the first entry with a non-finite bound and IntervalOrderError
    naming the first reversed entry, each first in row-major order.
    """
    a = np.asarray(intervals, dtype=float)
    if a.ndim == 0 or a.shape[-1] != 2:
        raise ShapeError(f"intervals need a last axis of [lower, upper], got shape {a.shape}")
    if not np.isfinite(a).all() or (a[..., 0] > a[..., 1]).any():  # one test each; only a fault is walked for
        faults = ((~np.isfinite(a).all(axis=-1), InvalidArgumentError, "has a non-finite bound: lower {}, upper {}"),
                  (a[..., 0] > a[..., 1], IntervalOrderError, "has lower {} > upper {}"))
        for bad, error, fault in faults:
            if bad.any():  # not argwhere's size: a single interval's mask is 0-d, and its argwhere is empty
                entry = tuple(np.argwhere(bad)[0].tolist())
                raise error(f"entry ({','.join(map(str, entry))}) " + fault.format(*a[entry]))
    return a


def interval_sums(g: np.ndarray, axis: int) -> np.ndarray:
    """Sums of an (n, n, 2) interval grid along ``axis`` (1: rows, 0: columns), as (n, 2) ``[lower, upper]`` pairs.

    Each bound is summed on its own, so the sums round as a bound matrix's
    own would: numpy's order of addition follows the memory layout, and
    ``g.sum(axis=axis)`` can add in another order.
    """
    if g.ndim != 3 or g.shape[0] != g.shape[1] or g.shape[2] != 2:
        raise ShapeError(f"interval sums need an (n, n, 2) grid of [lower, upper] pairs, got shape {g.shape}")
    return np.stack([g[..., 0].sum(axis=axis), g[..., 1].sum(axis=axis)], axis=-1)


# Bytes per block of the count path, at about m + 8 levels bytes a cell: each judgment's comparison with a level,
# then each level's count as a float.  A smaller block costs more numpy calls a cell where there are many levels.
_COUNT_BLOCK = 2**18


def _count_levels(m: int) -> int:
    """The most levels, max - min + 1, of a panel of m experts that the count path takes; a wider one is walked.

    A level costs the count path a comparison and a sum over each cell's
    m judgments and a few n x n float steps, and the walk costs a few
    float steps a judgment at any width.  On a grid of (criteria, experts,
    levels), the count path was the faster up to about 16 + m / 5 levels,
    and up to 48 at most (``BENCH_level-compare.json``).
    """
    return min(m, 16 + m // 5, 48)


def rough_group_matrix(panel: np.ndarray) -> np.ndarray:
    """Pool an (experts, n, n) panel of integer judgments into the averaged (n, n, 2) rough group matrix.

    A rough number summarizes one judgment k against the cell's judgment
    multiset, duplicates counted: its lower bound is the mean of all
    judgments at or below k, its upper bound the mean of all judgments at or
    above k.  The group cell is the mean of the experts' rough numbers.  A
    unanimous cell collapses to a point, which is what makes classic crisp
    DEMATEL a degenerate case of the rough pipeline.

    Both paths add, for each distinct judgment v of a cell in ascending
    order (lower bounds) or descending order (upper bounds), the number of
    judgments equal to v times the mean of every judgment up to and
    including them, and divide the sums by m.  So neither depends on expert
    order, and the two give the same bits.

    An integer panel (uint64 aside) whose values span few levels,
    max - min + 1 <= ``_count_levels(m)`` as on a Likert scale, takes the
    count path.  A block of cells, 2**18 bytes at about m + 8 levels bytes
    a cell, is compared with each level in turn, one byte a judgment, and
    each cell's matches summed in the counts' own narrowest type (one byte
    up to 255 experts); ``_level_sums`` turns the counts into the block's
    bounds, written straight into the result.  The comparison and count
    buffers are made once and reused by every block.  It sorts nothing,
    and peaks at one block's buffers plus the result.

    Any other panel (float, bool, or a wider range) takes the walk:
    each cell's m judgments are sorted once, so that equal judgments form
    a run, and the walk adds a run's share at its last position and 0.0
    at every other.  Its cost depends on the panel's shape alone, not on
    how wide its scale is, and it peaks at the sorted copy of the panel,
    in the panel's dtype (int16 for a 1-byte int panel), plus a few n x n
    float rows.

    The result is C-contiguous.
    """
    panel = np.asarray(panel)
    if panel.ndim != 3 or panel.shape[1] != panel.shape[2]:
        raise ShapeError(f"panel must be an (experts, n, n) array, got shape {panel.shape}")
    m, n = panel.shape[:2]
    if m < 2:
        raise InsufficientExpertsError(f"rough aggregation needs at least two experts, got {m}")
    cells = panel.reshape(m, n * n)
    if n and panel.dtype.kind in "iu" and np.can_cast(panel.dtype, np.intp):
        lo, hi = int(cells.min()), int(cells.max())
        if hi - lo < _count_levels(m):
            levels = (lo + np.arange(hi - lo + 1)).astype(float)  # each as exact as the walk's cast of a judgment
            k = max(1, min(_COUNT_BLOCK // (m + 8 * levels.size), n * n))
            same = np.empty((m, k), dtype=bool)
            counts = np.empty((levels.size, k), dtype=np.min_scalar_type(m))
            group = np.empty((n * n, 2))
            for start in range(0, n * n, k):
                block = cells[:, start:start + k]
                width = block.shape[1]
                hit, tally = same[:, :width], counts[:, :width]
                for value, count in enumerate(tally, lo):
                    np.equal(block, value, out=hit)
                    # summed as the bool's own bytes: no cast, where a count fits in one
                    np.add.reduce(hit.view(np.uint8), axis=0, dtype=counts.dtype, out=count)
                group[start:start + width] = _level_sums(tally, levels).T
            group /= m
            return group.reshape(n, n, 2)
    # 8-bit ints sort about half as fast as 16-bit ones, so a 1-byte int panel sorts a 16-bit copy
    cells = cells.astype(np.int16 if cells.dtype in (np.int8, np.uint8) else cells.dtype)
    cells.sort(axis=0)
    bounds = np.zeros((2, n * n))  # each bound's n x n cells contiguous, so the walk's passes are unit-stride
    for bound, walk in zip(bounds, (cells, cells[::-1])):
        seen_sum = np.zeros(n * n)  # float64: an int64 sum wraps past 2**63, a float one is exact below 2**53
        run = np.zeros(n * n)
        for seen, k in enumerate(walk, 1):
            run += 1
            c = run * (walk[seen] != k) if seen < m else run  # a run's length at its end, else 0
            seen_sum += c * k
            bound += c * (seen_sum / seen)
            run -= c
    bounds /= m
    return np.stack(bounds, axis=-1).reshape(n, n, 2)  # C-contiguous, so a writer's ravel copies nothing


def _level_sums(counts: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Lower- and upper-bound sums, as (2, k) floats, of cells whose judgments are counted per value in ``counts``.

    ``counts`` is (len(levels), k) ints of any width, each row one level's
    count in every cell, and ``levels`` the ascending float values.  The
    counts are taken as floats, 8 bytes a level and cell.

    Each level adds its count times the mean of every judgment seen so far.
    A level that a cell does not hold adds a zero to both of its sums,
    which leaves them as they are, as the walk's positions inside a run do.
    """
    counts = counts.astype(float)  # exact below 2**53, and float rows make each step one float loop
    bounds = np.zeros((2, counts.shape[1]))
    for bound, order in zip(bounds, (slice(None), slice(None, None, -1))):
        seen = np.zeros(counts.shape[1])
        seen_sum = np.zeros(counts.shape[1])
        for c, v in zip(counts[order], levels[order]):
            seen += c
            seen_sum += c * v
            bound += c * (seen_sum / np.maximum(seen, 1.0))
    return bounds


def normalize_rough(g: np.ndarray, strategy: str = TAU_MAX_TOTAL_SUM) -> float:
    """tau, the scalar by which ``rough_total_relation`` divides the (n, n, 2) rough group matrix to normalize it.

    ``max-upper-sum`` is the stated linear-scale rule (largest row sum of
    upper bounds); ``max-total-sum`` (largest row sum of lower plus upper
    bounds) is the variant the reference tables actually satisfy.  No
    normalized grid is made here: each bound is divided by tau only for its
    own closure.
    """
    with np.errstate(over="ignore"):
        rows = interval_sums(g, axis=1)
        if strategy == TAU_MAX_UPPER_SUM:
            tau = float(rows[:, 1].max())
        elif strategy == TAU_MAX_TOTAL_SUM:
            tau = float(rows.sum(axis=1).max())
        else:
            raise InvalidArgumentError(f"unknown tau strategy {strategy!r}; use one of {TAU_STRATEGIES}")
    if not np.isfinite(tau):
        raise DegenerateInputError(
            f"normalization: tau ({strategy}) is {tau}; the rough group's row sums must be finite"
        )
    if tau < 0.0:
        raise DegenerateInputError(
            f"normalization: tau ({strategy}) is {tau}; a negative tau would flip the sign of every judgment"
        )
    if tau == 0.0:
        raise DegenerateInputError("normalization: all-zero rough matrix cannot be normalized")
    return tau


def rough_total_relation(g: np.ndarray, tau: float) -> np.ndarray:
    """The rough total-relation matrix of the rough group matrix ``g`` normalized by ``tau``, as (n, n, 2) floats.

    The lower and upper bounds are closed independently, one at a time:
    each is divided by tau into a contiguous n x n matrix that lives only
    for its own closure, and the closure's T is written into its side of
    the one C-contiguous result.  So neither a normalized (n, n, 2) grid
    nor a stacked copy of the two Ts is made, and each T has the bits of
    ``solve_total_relation((g / tau)[..., side])``.
    """
    total = np.empty((*g.shape[:-1], 2))
    for side, bound in enumerate(("lower", "upper")):
        try:
            total[..., side] = crisp_mod.solve_total_relation(g[..., side] / tau)
        except (InvalidArgumentError, SingularMatrixError) as exc:
            raise type(exc)(f"{bound}-bound matrix: {exc}") from exc
    return total


def crisp_convert(intervals) -> np.ndarray:
    """Convert intervals, an array whose last axis is ``[lower, upper]``, to crisp values of the leading shape.

    Each interval is normalized against the global envelope
    [min lower, max upper] of all intervals, blended into a single
    coefficient, and denormalized back onto the original scale.  When the
    envelope is degenerate (all intervals the same point) the common point
    is returned for every entry.
    """
    a = check_intervals(intervals)
    if a.size == 0:
        raise InvalidArgumentError("cannot crisp-convert an empty interval list")
    lower, upper = a[..., 0], a[..., 1]
    lo = lower.min()
    span = upper.max() - lo
    if span == 0.0:
        return np.full(lower.shape, lo)
    # alpha = (nl (1 - nl) + nu^2) / (1 - nl + nu), then lo + alpha span, in place: four arrays of the leading shape
    nl = lower - lo
    nl /= span
    nu = upper - lo
    nu /= span
    den = 1.0 - nl
    num = nl * den
    den += nu
    nu *= nu
    num += nu
    num /= den
    num *= span
    num += lo
    return num


def rough_sums(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Crisp X and Y: the interval row and column sums of T, each crisped against its own envelope."""
    return crisp_convert(interval_sums(t, axis=1)), crisp_convert(interval_sums(t, axis=0))


def weights(prominence: np.ndarray, relation: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Importance omega = sqrt(m^2 + n^2) of finite m and n, normalized weights, 1-based ranks.

    Ranks order by descending omega; ties break by input order (stable sort).
    Raises InvalidArgumentError naming the first criterion whose m or n is
    not finite, or whose m^2 + n^2 overflows a float.
    """
    prominence = np.asarray(prominence, dtype=float)
    relation = np.asarray(relation, dtype=float)
    if prominence.size == 0:
        raise InvalidArgumentError("need at least one criterion")
    if not (finite := np.isfinite(prominence) & np.isfinite(relation)).all():
        i = np.flatnonzero(~finite)[0]
        raise InvalidArgumentError(f"weights: criterion {i} has prominence {prominence.flat[i]} and relation "
                                   f"{relation.flat[i]}; both must be finite")
    with np.errstate(over="ignore"):
        squares = prominence**2 + relation**2
    if not (fits := np.isfinite(squares)).all():  # np.hypot would not overflow, but it rounds omega differently
        i = np.flatnonzero(~fits)[0]
        raise InvalidArgumentError(f"weights: criterion {i} has prominence {prominence.flat[i]} and relation "
                                   f"{relation.flat[i]}; the sum of their squares overflows")
    omega = np.sqrt(squares)
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
    group_matrix: np.ndarray | None = None,
    tau_strategy: str = TAU_MAX_TOTAL_SUM,
) -> RoughAnalysis:
    """Run the full pipeline from an (experts, n, n) judgment panel or an (n, n, 2) rough group matrix."""
    criteria = list(criteria)
    n = len(criteria)
    if n < 2:
        raise InvalidArgumentError("DEMATEL needs at least two criteria")
    if (panel is None) == (group_matrix is None):
        raise InvalidArgumentError("provide exactly one of panel or group_matrix")
    group_matrix = rough_group_matrix(panel) if panel is not None else check_intervals(group_matrix)
    if group_matrix.shape != (n, n, 2):
        raise ShapeError(f"group matrix has shape {group_matrix.shape} but {n} criteria need ({n}, {n}, 2)")
    tau = normalize_rough(group_matrix, tau_strategy)
    total = rough_total_relation(group_matrix, tau)
    x, y = rough_sums(total)
    prominence, relation = x + y, x - y
    omega, w, ranks = weights(prominence, relation)
    labels = classify(relation)
    # one row of x, y, prominence, relation, omega and weight per criterion, as python floats
    rows = np.stack([x, y, prominence, relation, omega, w], axis=-1).tolist()
    results = [AnalysisResult(cid, *row, rank, group)
               for cid, row, rank, group in zip(criteria, rows, ranks.tolist(), labels)]
    return RoughAnalysis(criteria, tau, group_matrix, total, results)
