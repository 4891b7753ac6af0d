"""The total-relation closure T = D (I - D)^-1 with its numerical guard.

The rough pipeline applies it to the lower and the upper bound matrix on their own.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError, ShapeError, SingularMatrixError

# Largest cond(I - D) for which the closure is trusted: beyond it the series
# can lose more than half of float64's ~16 significant digits.
COND_LIMIT = 1e8


def solve_total_relation(d: np.ndarray) -> np.ndarray:
    """T = D (I - D)^-1, the closure of direct plus all indirect influence.

    For a non-negative D, (I - D)^-1 is the series I + D + D^2 + ... and is non-negative
    exactly when the spectral radius rho(D) < 1 (Lee, Tzeng et al. 2013, "Revised DEMATEL").
    s = min(max row sum, max column sum) bounds rho(D), and for s < 1 it bounds cond(I - D)
    in the matching norm by (1 + s) / (1 - s); past that bound both are computed.  T is the
    doubling product D (I + D)(I + D^2)... = D + ... + D^(2^K), summed until the relative tail
    is below eps / 4; its products have given the same bits at every BLAS thread count tested.
    Raises SingularMatrixError if rho(D) >= 1 or cond(I - D) > COND_LIMIT.
    """
    d = np.asarray(d, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ShapeError(f"normalized matrix must be square, got shape {d.shape}")
    if not np.isfinite(d).all() or (d < 0.0).any():
        raise InvalidArgumentError("normalized matrix entries must be finite and non-negative")
    s = min(d.sum(axis=1).max(), d.sum(axis=0).max())
    cheap = s < 1.0 and (1.0 + s) / (1.0 - s) <= COND_LIMIT
    if not cheap:
        rho = float(np.abs(np.linalg.eigvals(d)).max())
        if rho >= 1.0:
            raise SingularMatrixError(
                f"spectral radius rho(D) = {rho:.6g} >= 1, so (I - D) has no non-negative inverse"
            )
        cond = float(np.linalg.cond(np.eye(d.shape[0]) - d))
        if cond > COND_LIMIT:
            raise SingularMatrixError(
                f"(I - D) is ill-conditioned: cond = {cond:.3e} > {COND_LIMIT:.0e} (rho(D) = {rho:.6g})"
            )
    # The tail past t = D + ... + D^(2^(k+1)) is t (Q + Q^2 + ...) with Q = p^2, ||Q|| <= r^2, so it is at most
    # r^2 / (1 - r^2) of t in whichever norm attains r.  Below the cheap bound r = s^(2^k); past it r is measured,
    # and as rho(D) < 1 and D >= 0 give 0 <= D^j <= (I - D)^-1 entrywise, p stays finite and tends to 0.
    t, p, r = d + d @ d, d, s
    while r * r > 2.0**-54:  # float64's eps / 4
        p = p @ p
        r = r * r if cheap else min(p.sum(axis=1).max(), p.sum(axis=0).max())
        t = t + t @ p
    return t
