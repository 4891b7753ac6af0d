"""Classic crisp DEMATEL on plain numpy matrices.

Also serves as the degenerate-case oracle for the rough pipeline: when all
experts agree, the rough intervals collapse to points and both methods must
produce the same scores.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg

from .errors import (
    DegenerateInputError,
    InvalidArgumentError,
    ShapeError,
    SingularMatrixError,
)

PIVOT_TOLERANCE = 1e-12


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
    """T = D (I - D)^-1, the closure of direct plus all indirect influence."""
    d = np.asarray(d, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ShapeError(f"normalized matrix must be square, got shape {d.shape}")
    eye = np.eye(d.shape[0])
    with warnings.catch_warnings():
        # we detect singularity ourselves via the pivot check below
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(eye - d, check_finite=True)
    pivots = np.abs(np.diag(lu))
    if pivots.min() < PIVOT_TOLERANCE:
        bad = int(pivots.argmin())
        raise SingularMatrixError(
            f"(I - D) is singular: pivot {bad} has magnitude {pivots.min():.3e}"
        )
    # T = D (I-D)^-1  <=>  (I-D)^T T^T = D^T
    return scipy.linalg.lu_solve((lu, piv), d.T, trans=1).T


def crisp_scores(t: np.ndarray) -> CrispScores:
    t = np.asarray(t, dtype=float)
    return CrispScores(r=t.sum(axis=1), d=t.sum(axis=0))
