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
from .pipeline import RoughMatrix, crisp_convert

CRISPIFY_MIDPOINT = "midpoint"
CRISPIFY_GLOBAL = "global-crisp"
CRISPIFY_MODES = (CRISPIFY_MIDPOINT, CRISPIFY_GLOBAL)

THRESHOLD_MEAN_SIGMA = "mean-sigma"
THRESHOLD_FIXED = "fixed"


@dataclass(frozen=True)
class Edge:
    source: str
    target: str
    strength: float


@dataclass(frozen=True)
class InfluenceNetwork:
    nodes: tuple[str, ...]
    edges: tuple[Edge, ...]
    threshold: float


def crispify_total(t: RoughMatrix, mode: str = CRISPIFY_MIDPOINT) -> np.ndarray:
    """Collapse the rough total matrix to crisp entries.

    ``midpoint`` takes interval midpoints; ``global-crisp`` runs the
    envelope-based crisp conversion over all n*n entries at once.
    """
    if mode == CRISPIFY_MIDPOINT:
        return t.midpoint
    if mode == CRISPIFY_GLOBAL:
        return crisp_convert(t.lower, t.upper)
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
    rows, cols = np.nonzero(keep)
    edges = tuple(
        Edge(criteria[i], criteria[j], s)
        for i, j, s in zip(rows.tolist(), cols.tolist(), tstar[rows, cols].tolist())
    )
    return InfluenceNetwork(tuple(criteria), edges, float(q))
