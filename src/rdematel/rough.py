"""Rough-number machinery: set approximations and crisp conversion.

A rough number summarizes one judgment against the whole group's judgment
multiset: its lower bound is the mean of all judgments not above it, its
upper bound the mean of all judgments not below it.  Unanimous groups
collapse to point intervals, which is what makes the crisp method a
degenerate case of the rough pipeline.

The pipeline aggregates whole matrices at once (``pipeline.rough_group_matrix``);
the scalar ``JudgmentSet`` / ``rough_bounds`` / ``average_rough`` forms here
define the same bounds one cell at a time and serve as its reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidArgumentError, IntervalOrderError


@dataclass(frozen=True)
class RoughNumber:
    """Closed interval [lower, upper]."""

    lower: float
    upper: float

    def __post_init__(self):
        if not (self.lower <= self.upper):
            raise IntervalOrderError(
                f"interval lower bound {self.lower} exceeds upper bound {self.upper}"
            )

    @property
    def width(self) -> float:
        return self.upper - self.lower

    @property
    def midpoint(self) -> float:
        return (self.lower + self.upper) / 2.0

    def is_point(self, tol: float = 0.0) -> bool:
        return self.width <= tol


@dataclass(frozen=True)
class JudgmentSet:
    """Non-empty multiset of integer judgments, stored sorted ascending."""

    values: tuple[int, ...]

    def __post_init__(self):
        if not self.values:
            raise InvalidArgumentError("judgment set must be non-empty")
        object.__setattr__(self, "values", tuple(sorted(int(v) for v in self.values)))

    @classmethod
    def of(cls, values: Iterable[int]) -> "JudgmentSet":
        return cls(tuple(values))

    def __len__(self) -> int:
        return len(self.values)

    def __contains__(self, k: int) -> bool:
        return k in self.values

    def __iter__(self):
        return iter(self.values)


def lower_approximation(judgments: JudgmentSet, k: int) -> JudgmentSet:
    """All judgments <= k, duplicates retained. k must occur in the set."""
    if k not in judgments:
        raise InvalidArgumentError(f"judgment {k} not present in {judgments.values}")
    return JudgmentSet(tuple(v for v in judgments if v <= k))


def upper_approximation(judgments: JudgmentSet, k: int) -> JudgmentSet:
    """All judgments >= k, duplicates retained. k must occur in the set."""
    if k not in judgments:
        raise InvalidArgumentError(f"judgment {k} not present in {judgments.values}")
    return JudgmentSet(tuple(v for v in judgments if v >= k))


def rough_bounds(judgments: JudgmentSet, k: int) -> RoughNumber:
    """Rough number for judgment k within the group multiset.

    Lower bound is the multiset mean of the lower approximation, upper
    bound the mean of the upper approximation; always lower <= k <= upper.
    """
    lo = lower_approximation(judgments, k).values
    up = upper_approximation(judgments, k).values
    return RoughNumber(sum(lo) / len(lo), sum(up) / len(up))


def average_rough(sequence: Sequence[RoughNumber]) -> RoughNumber:
    """Componentwise mean of a sequence of rough numbers."""
    if not sequence:
        raise InvalidArgumentError("cannot average an empty rough sequence")
    m = len(sequence)
    return RoughNumber(
        sum(rn.lower for rn in sequence) / m,
        sum(rn.upper for rn in sequence) / m,
    )


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
