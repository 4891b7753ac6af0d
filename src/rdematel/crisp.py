"""The total-relation closure T = D (I - D)^-1 with its numerical guard.

The rough pipeline applies it to the lower and the upper bound matrix on
their own.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidArgumentError, ShapeError, SingularMatrixError

# Largest cond(I - D) for which the closure is trusted: beyond it the solve
# can lose more than half of float64's ~16 significant digits.
COND_LIMIT = 1e8


def solve_total_relation(d: np.ndarray) -> np.ndarray:
    """T = D (I - D)^-1, the closure of direct plus all indirect influence.

    For a non-negative D, (I - D)^-1 is the series I + D + D^2 + ... and is
    non-negative exactly when the spectral radius rho(D) < 1 (Lee, Tzeng et
    al. 2013, "Revised DEMATEL").  s = min(max row sum, max column sum)
    bounds rho(D), and for s < 1 it bounds cond(I - D) in the matching norm
    by (1 + s) / (1 - s).  Within that bound T is the doubling product
    D (I + D)(I + D^2)...(I + D^(2^(K-1))) = D + ... + D^(2^K), K the least
    for which the relative tail s^(2^K) is below eps / 4; its matrix products
    have given the same bits at every BLAS thread count tested.  Past it,
    rho(D) and cond(I - D) are computed and T is an LU solve.  Raises
    SingularMatrixError if rho(D) >= 1 or cond(I - D) > COND_LIMIT.
    """
    d = np.asarray(d, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ShapeError(f"normalized matrix must be square, got shape {d.shape}")
    if not np.isfinite(d).all() or (d < 0.0).any():
        raise InvalidArgumentError("normalized matrix entries must be finite and non-negative")
    s = min(d.sum(axis=1).max(), d.sum(axis=0).max())
    if s < 1.0 and (1.0 + s) / (1.0 - s) <= COND_LIMIT:
        k = math.ceil(math.log2(math.log(np.finfo(float).eps / 4) / math.log(s))) if s > 0.0 else 1
        t, p = d + d @ d, d
        for _ in range(k - 1):
            p = p @ p
            t = t + t @ p
        return t
    rho = float(np.abs(np.linalg.eigvals(d)).max())
    if rho >= 1.0:
        raise SingularMatrixError(f"spectral radius rho(D) = {rho:.6g} >= 1, so (I - D) has no non-negative inverse")
    a = np.eye(d.shape[0]) - d
    cond = float(np.linalg.cond(a))
    if cond > COND_LIMIT:
        raise SingularMatrixError(
            f"(I - D) is ill-conditioned: cond = {cond:.3e} > {COND_LIMIT:.0e} (rho(D) = {rho:.6g})"
        )
    # T = D (I-D)^-1  <=>  (I-D)^T T^T = D^T
    return np.linalg.solve(a.T, d.T).T
