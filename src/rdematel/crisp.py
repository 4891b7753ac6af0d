"""The total-relation closure T = D (I - D)^-1 with its numerical guard, applied to each rough bound matrix."""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError, ShapeError, SingularMatrixError

# Largest cond(I - D) for which the closure is trusted: beyond it the series can lose over half of float64's digits.
COND_LIMIT = 1e8
# Most doubling rounds: a zero-diagonal D >= 0 has cond(I - D) >= 1 / (1 - rho), so one within COND_LIMIT needs
# about 32, and any s < 1 at most 58.  A D with diagonal entries near 1 may be well conditioned yet need more.
MAX_ROUNDS = 64


def solve_total_relation(d: np.ndarray) -> np.ndarray:
    """T = D (I - D)^-1, the closure of direct plus all indirect influence.

    For a non-negative D, (I - D)^-1 is the series I + D + D^2 + ... and is non-negative
    exactly when the spectral radius rho(D) < 1 (Lee, Tzeng et al. 2013, "Revised DEMATEL").
    T is the doubling product D (I + D)(I + D^2)... = D + ... + D^(2^K), summed until a norm of a
    power of D bounds the relative tail below eps / 4, which proves rho(D) < 1; then (I - D)^-1 = I + T
    gives cond(I - D).  Its products have given the same bits at every BLAS thread count tested.
    Besides D, a round holds T, which accumulates in place, the current power and one product.
    Raises SingularMatrixError past MAX_ROUNDS rounds or if cond(I - D) > COND_LIMIT.
    """
    d = np.asarray(d, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ShapeError(f"normalized matrix must be square, got shape {d.shape}")
    if not np.isfinite(d).all() or (d < 0.0).any():
        raise InvalidArgumentError("normalized matrix entries must be finite and non-negative")
    # The tail past t = D + ... + D^(2^(k+1)) is at most r^2 / (1 - r^2) of t, r being a norm of p = D^(2^k): s^(2^k)
    # for s < 1, else measured.  A divergent series leaves the loop once r is inf or NaN; cond stays inf.
    with np.errstate(over="ignore", invalid="ignore"):
        rows, cols = d.sum(axis=1), d.sum(axis=0)
        s = min(rows.max(), cols.max())
        p = d @ d  # the first round's power, so D^2 is computed once
        t, r, cond = d + p, s, np.inf
        for k in range(MAX_ROUNDS):
            if r * r <= 2.0**-54:  # float64's eps / 4
                # ||I - D|| counts |1 - d_jj| in place of each d_jj; ||I + T|| is 1 + ||T||, as T >= 0
                delta = np.abs(1.0 - d.diagonal()) - d.diagonal()
                cond = min((cols + delta).max() * (1.0 + t.sum(axis=0).max()),
                           (rows + delta).max() * (1.0 + t.sum(axis=1).max()))
                break
            if not r < np.inf:
                break
            if k:
                p = p @ p
            r = r * r if s < 1.0 else min(p.sum(axis=1).max(), p.sum(axis=0).max())
            t += t @ p
    if not cond <= COND_LIMIT:  # NaN included
        rho = float(np.abs(np.linalg.eigvals(d)).max())
        raise SingularMatrixError(
            f"spectral radius rho(D) = {rho:.6g} >= 1, so (I - D) has no non-negative inverse" if rho >= 1.0 else
            f"(I - D) is ill-conditioned: cond = {cond:.3e} > {COND_LIMIT:.0e} (rho(D) = {rho:.6g})")
    return t
