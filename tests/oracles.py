"""Brute-force reference for the rough bounds, independent of the array kernel.

The rough number of judgment k within a judgment multiset has as lower
bound the mean of the judgments at or below k and as upper bound the mean
of those at or above k, duplicates counted.  A group cell is the mean of
the rough numbers of every judgment in the multiset.
"""


def bounds(values, k):
    """Lower and upper approximation means of judgment k, by enumeration."""
    lows = [v for v in values if v <= k]
    ups = [v for v in values if v >= k]
    return sum(lows) / len(lows), sum(ups) / len(ups)


def group_cell(values):
    """The group rough number of a multiset: the mean of every judgment's bounds."""
    pairs = [bounds(values, k) for k in values]
    return sum(lo for lo, _ in pairs) / len(pairs), sum(up for _, up in pairs) / len(pairs)
