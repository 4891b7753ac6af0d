"""Reference implementations for the tests, independent of the package's kernels.

The rough number of judgment k within a judgment multiset has as lower
bound the mean of the judgments at or below k and as upper bound the mean
of those at or above k, duplicates counted.  A group cell is the mean of
the rough numbers of every judgment in the multiset.

Classic crisp DEMATEL is what the rough pipeline reduces to when every
expert agrees.  It is written out here with its own closure and no input
checks, so that a test comparing the two does not run the package's
closure on both sides.

``stacked_total_relation`` is the one exception: it runs the package's
own closure on each bound of the whole normalized grid and stacks the two,
so that a test can show that closing each bound in its own matrix changes
no bit.
"""

import numpy as np

from rdematel.crisp import solve_total_relation


def bounds(values, k):
    """Lower and upper approximation means of judgment k, by enumeration."""
    lows = [v for v in values if v <= k]
    ups = [v for v in values if v >= k]
    return sum(lows) / len(lows), sum(ups) / len(ups)


def group_cell(values):
    """The group rough number of a multiset: the mean of every judgment's bounds."""
    pairs = [bounds(values, k) for k in values]
    return sum(lo for lo, _ in pairs) / len(pairs), sum(up for _, up in pairs) / len(pairs)


def crisp_normalized(matrices):
    """The experts' entrywise mean matrix Z divided by its largest row sum."""
    z = np.mean(np.asarray(matrices, dtype=float), axis=0)
    return z / z.sum(axis=1).max()


def crisp_dematel(matrices):
    """Total relation T = D (I - D)^-1 of the normalized mean D, and T's row sums R and column sums D."""
    d = crisp_normalized(matrices)
    t = d @ np.linalg.inv(np.eye(len(d)) - d)
    return t, t.sum(axis=1), t.sum(axis=0)


def stacked_total_relation(g, tau):
    """The rough total-relation matrix from the whole normalized grid: each bound's closure on its view, stacked."""
    return np.stack([solve_total_relation((g / tau)[..., k]) for k in (0, 1)], axis=-1)
