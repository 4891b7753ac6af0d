"""Classic crisp DEMATEL on plain numpy matrices.

Also serves as the degenerate-case oracle for the rough pipeline: when all
experts agree, the rough intervals collapse to points and both methods must
produce the same scores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateInputError,
    InvalidArgumentError,
    ShapeError,
    SingularMatrixError,
)

# Largest cond(I - D) for which the closure is trusted: beyond it the solve
# can lose more than half of float64's ~16 significant digits.
COND_LIMIT = 1e8


@dataclass(frozen=True)
class CrispScores:
    """Row sums R, column sums D, and the prominence / relation vectors."""

    r: np.ndarray
    d: np.ndarray

    @property
    def prominence(self) -> np.ndarray:
        return self.r + self.d

    @property
    def relation(self) -> np.ndarray:
        return self.r - self.d


def validate_direct_matrix(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if z.ndim != 2 or z.shape[0] != z.shape[1]:
        raise ShapeError(f"direct-relation matrix must be square, got shape {z.shape}")
    if np.any(np.diag(z) != 0.0):
        raise InvalidArgumentError("direct-relation matrix diagonal must be exactly zero")
    if np.any(z < 0.0):
        raise InvalidArgumentError("direct-relation matrix entries must be non-negative")
    return z


def average_expert_matrices(matrices: Sequence[np.ndarray]) -> np.ndarray:
    """Entrywise mean of the experts' direct-relation matrices."""
    if not matrices:
        raise InvalidArgumentError("need at least one expert matrix")
    mats = [validate_direct_matrix(m) for m in matrices]
    shape = mats[0].shape
    for i, m in enumerate(mats[1:], start=2):
        if m.shape != shape:
            raise ShapeError(f"expert matrix {i} has shape {m.shape}, expected {shape}")
    return np.mean(mats, axis=0)


def normalize_crisp(z: np.ndarray) -> np.ndarray:
    """Scale the averaged matrix by 1 / max row sum so influences are comparable."""
    z = validate_direct_matrix(z)
    max_row = z.sum(axis=1).max()
    if max_row == 0.0:
        raise DegenerateInputError("all-zero direct-relation matrix cannot be normalized")
    return z / max_row


def solve_total_relation(d: np.ndarray) -> np.ndarray:
    """T = D (I - D)^-1, the closure of direct plus all indirect influence.

    For a non-negative D, (I - D)^-1 is the series I + D + D^2 + ... and is
    non-negative exactly when the spectral radius rho(D) < 1 (Lee, Tzeng et
    al. 2013, "Revised DEMATEL").  s = min(max row sum, max column sum)
    bounds rho(D), and for s < 1 it bounds cond(I - D) in the matching norm
    by (1 + s) / (1 - s); only when that cheap bound fails are rho(D) and
    cond(I - D) computed.  Raises SingularMatrixError if rho(D) >= 1 or
    cond(I - D) > COND_LIMIT.
    """
    d = np.asarray(d, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ShapeError(f"normalized matrix must be square, got shape {d.shape}")
    if not np.isfinite(d).all() or (d < 0.0).any():
        raise InvalidArgumentError("normalized matrix entries must be finite and non-negative")
    a = np.eye(d.shape[0]) - d
    s = min(d.sum(axis=1).max(), d.sum(axis=0).max())
    if not (s < 1.0 and (1.0 + s) / (1.0 - s) <= COND_LIMIT):
        rho = float(np.abs(np.linalg.eigvals(d)).max())
        if rho >= 1.0:
            raise SingularMatrixError(
                f"spectral radius rho(D) = {rho:.6g} >= 1, so (I - D) has no non-negative inverse"
            )
        cond = float(np.linalg.cond(a))
        if cond > COND_LIMIT:
            raise SingularMatrixError(
                f"(I - D) is ill-conditioned: cond = {cond:.3e} > {COND_LIMIT:.0e} (rho(D) = {rho:.6g})"
            )
    # T = D (I-D)^-1  <=>  (I-D)^T T^T = D^T
    return np.linalg.solve(a.T, d.T).T


def crisp_scores(t: np.ndarray) -> CrispScores:
    t = np.asarray(t, dtype=float)
    return CrispScores(r=t.sum(axis=1), d=t.sum(axis=0))
