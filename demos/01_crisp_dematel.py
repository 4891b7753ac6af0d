"""Classic (crisp) DEMATEL on a small direct-relation matrix, written out in numpy.

Walks through the standard steps: average the expert matrices, normalize
by the largest row sum, close the influence chain with T = D(I - D)^-1,
and read off the prominence (R + D) and relation (R - D) indicators.
Then shows that the rough pipeline reduces to this method when every
expert agrees: a unanimous panel's rough X and Y equal the crisp R and D.
"""

import numpy as np

from rdematel.pipeline import TAU_MAX_UPPER_SUM, analyze_rough


def crisp_dematel(matrices):
    """The averaged matrix Z, the normalized D, the total relation T and T's row and column sums."""
    z = np.mean(matrices, axis=0)
    d = z / z.sum(axis=1).max()
    t = d @ np.linalg.inv(np.eye(len(d)) - d)
    return z, d, t, t.sum(axis=1), t.sum(axis=0)


# Three experts rate pairwise influence among four factors on a 0..4 scale.
experts = np.array([
    [[0, 3, 2, 1], [1, 0, 3, 2], [2, 1, 0, 3], [1, 2, 1, 0]],
    [[0, 4, 2, 1], [2, 0, 3, 1], [2, 2, 0, 3], [0, 2, 1, 0]],
    [[0, 3, 3, 2], [1, 0, 2, 2], [3, 1, 0, 4], [1, 1, 2, 0]],
])
factors = ["cost", "trust", "tech", "policy"]

z, d, t, r, c = crisp_dematel(experts)
print("averaged direct-relation matrix Z:")
print(np.round(z, 3))
print("\nnormalized matrix D (scaled by 1 / max row sum):")
print(np.round(d, 4))
print("\ntotal-relation matrix T = D (I - D)^-1:")
print(np.round(t, 4))

print("\nfactor    R (given)  D (received)  R+D      R-D      group")
for i, name in enumerate(factors):
    relation = r[i] - c[i]
    group = "cause" if relation > 0 else "effect"
    print(f"{name:<9} {r[i]:>8.4f}  {c[i]:>12.4f}  {r[i] + c[i]:>7.4f}  {relation:>7.4f}  {group}")

# When all three experts give the first expert's matrix, every rough interval
# is a point, and the rough pipeline (with tau the largest row sum of upper
# bounds, the crisp normalization) gives X = R and Y = D.
unanimous = np.repeat(experts[:1], 3, axis=0)
_, _, _, r1, c1 = crisp_dematel(unanimous)
analysis = analyze_rough(factors, panel=unanimous, tau_strategy=TAU_MAX_UPPER_SUM)
dx = max(abs(res.x - v) for res, v in zip(analysis.results, r1))
dy = max(abs(res.y - v) for res, v in zip(analysis.results, c1))
assert dx <= 1e-9 and dy <= 1e-9, (dx, dy)
print(f"\nunanimous panel through analyze_rough: max |X - R| = {dx:.1e}, max |Y - D| = {dy:.1e}")
