"""Crisp influence matrix, significance threshold, and influence network.

The rough total-relation matrix is collapsed to a single crisp matrix,
a cutoff q filters out weak influences, and what survives is the directed
influence network.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidArgumentError
from .pipeline import crisp_convert

CRISPIFY_MIDPOINT = "midpoint"
CRISPIFY_GLOBAL = "global-crisp"
CRISPIFY_MODES = (CRISPIFY_MIDPOINT, CRISPIFY_GLOBAL)

THRESHOLD_MEAN_SIGMA = "mean-sigma"
THRESHOLD_FIXED = "fixed"


@dataclass(frozen=True, eq=False)  # == on array fields would be ambiguous; compare the fields with np.array_equal
class InfluenceNetwork:
    """Edge k runs from ``nodes[source[k]]`` to ``nodes[target[k]]``, ``strength[k]``; q is in the report's config."""

    nodes: tuple[str, ...]
    source: np.ndarray  # intp
    target: np.ndarray  # intp
    strength: np.ndarray  # float64


def crispify_total(t: np.ndarray, mode: str = CRISPIFY_MIDPOINT) -> np.ndarray:
    """Collapse the (n, n, 2) rough total matrix to crisp entries.

    ``midpoint`` takes interval midpoints; ``global-crisp`` runs the
    envelope-based crisp conversion over all n*n entries at once.
    """
    if mode == CRISPIFY_MIDPOINT:
        return t.mean(axis=-1)
    if mode == CRISPIFY_GLOBAL:
        return crisp_convert(t)
    raise InvalidArgumentError(f"unknown crispify mode {mode!r}; use one of {CRISPIFY_MODES}")


def threshold(tstar: np.ndarray, mode: str = THRESHOLD_MEAN_SIGMA, value: float = 1.0) -> float:
    """Significance cutoff q on the crisp influence matrix.

    ``mean-sigma`` reads ``value`` as k and returns mean + k * population
    sigma of the off-diagonal entries (self-influence is a structural
    zero); ``fixed`` returns ``value`` itself as q.  ``value`` and q must be
    finite.
    """
    if not math.isfinite(value):
        raise InvalidArgumentError(f"threshold value must be a finite number, got {value}")
    tstar = np.asarray(tstar, dtype=float)
    if tstar.shape[0] < 2:
        raise InvalidArgumentError("threshold needs at least two criteria")
    if mode == THRESHOLD_FIXED:
        if value < 0:
            raise InvalidArgumentError(f"fixed threshold must be non-negative, got {value}")
        return float(value)
    if mode != THRESHOLD_MEAN_SIGMA:
        raise InvalidArgumentError(f"unknown threshold mode {mode!r}")
    entries = tstar[~np.eye(tstar.shape[0], dtype=bool)]
    with np.errstate(over="ignore"):
        q = float(entries.mean() + value * entries.std())
    if not math.isfinite(q):
        raise InvalidArgumentError(f"threshold mean-sigma:{value} gives q = {q}; q must be a finite number")
    return q


def extract_network(tstar: np.ndarray, q: float, criteria: Sequence[str]) -> InfluenceNetwork:
    """Keep edges (i -> j), i != j, with strength >= q; isolated nodes stay in the node list.

    Edges come in row-major (source, target) order.
    """
    tstar = np.asarray(tstar, dtype=float)
    keep = tstar >= q
    np.fill_diagonal(keep, False)
    source, target = np.nonzero(keep)
    return InfluenceNetwork(tuple(criteria), source, target, tstar[source, target])
