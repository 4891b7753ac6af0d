"""Independent numpy reference for the weights and cause/effect groups of a bundle.

It follows the rough DEMATEL method with a per-cell count over the scale
levels instead of the program's judgment multisets, and solves the closure
with numpy instead of scipy, so it shares no code with the program under
test. Default settings only: tau = largest row sum of lower plus upper
bounds, X and Y crisped against their own envelopes.
"""

from __future__ import annotations

import numpy as np


def rough_group(doc: dict) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper rough group matrices of a bundle document."""
    if "rough_group" in doc:
        g = np.asarray(doc["rough_group"], dtype=float)
        return g[:, :, 0], g[:, :, 1]
    lo, hi = doc["scale"]["min"], doc["scale"]["max"]
    grids = np.array([doc["matrices"][r["id"]] for r in doc["respondents"]])
    m, n, _ = grids.shape
    levels = np.arange(lo, hi + 1, dtype=float)
    counts = (grids[..., None] == levels).sum(axis=0).astype(float)  # (n, n, S)
    weighted = counts * levels
    # rough bounds of level s: mean of judgments <= s and mean of judgments >= s
    below_n, below_sum = counts.cumsum(axis=2), weighted.cumsum(axis=2)
    above_n = counts[..., ::-1].cumsum(axis=2)[..., ::-1]
    above_sum = weighted[..., ::-1].cumsum(axis=2)[..., ::-1]
    present = counts > 0
    with np.errstate(invalid="ignore", divide="ignore"):
        lower_s = np.where(present, below_sum / below_n, 0.0)
        upper_s = np.where(present, above_sum / above_n, 0.0)
    lower = (counts * lower_s).sum(axis=2) / m
    upper = (counts * upper_s).sum(axis=2) / m
    np.fill_diagonal(lower, 0.0)
    np.fill_diagonal(upper, 0.0)
    return lower, upper


def _closure(d: np.ndarray) -> np.ndarray:
    # T = D (I - D)^-1  <=>  (I - D)^T T^T = D^T
    return np.linalg.solve((np.eye(d.shape[0]) - d).T, d.T).T


def _crisp(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    lo, hi = lower.min(), upper.max()
    span = hi - lo
    if span == 0.0:
        return np.full(lower.shape, lo)
    nl, nu = (lower - lo) / span, (upper - lo) / span
    return lo + (nl * (1.0 - nl) + nu * nu) / (1.0 - nl + nu) * span


def expected(doc: dict) -> dict:
    """{'weights': [...], 'groups': [...]} in criterion order."""
    lower, upper = rough_group(doc)
    tau = (lower.sum(axis=1) + upper.sum(axis=1)).max()
    tl, tu = _closure(lower / tau), _closure(upper / tau)
    x = _crisp(tl.sum(axis=1), tu.sum(axis=1))
    y = _crisp(tl.sum(axis=0), tu.sum(axis=0))
    prominence, relation = x + y, x - y
    omega = np.sqrt(prominence**2 + relation**2)
    groups = ["cause" if r > 0 else "effect" if r < 0 else "neutral" for r in relation]
    return {"weights": (omega / omega.sum()).tolist(), "groups": groups}
