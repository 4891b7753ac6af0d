"""Rough numbers: turning disagreeing judgments into intervals.

A rough number wraps one judgment k in the interval between the mean of
all judgments at or below k and the mean of all judgments at or above k.
Wide spread in opinion produces wide intervals; unanimity collapses the
interval to a point.  The group judgment is the mean of the experts'
rough numbers, which ``rough_group_matrix`` computes for every cell of a
panel at once, as an (n, n, 2) array of ``[lower, upper]`` pairs.
"""

import numpy as np

from rdematel.pipeline import crisp_convert, rough_group_matrix

# Four experts rate two criteria A and B.  On A -> B they say 0, 1, 1 and 3;
# on B -> A they all say 2.
judgments = [0, 1, 1, 3]
panel = np.zeros((4, 2, 2), dtype=np.int64)
panel[:, 0, 1] = judgments
panel[:, 1, 0] = 2
group = rough_group_matrix(panel)

print("judgments on A -> B:", judgments)
forms = {}
for k in sorted(set(judgments)):
    below = [v for v in judgments if v <= k]
    above = [v for v in judgments if v >= k]
    lo, up = forms[k] = sum(below) / len(below), sum(above) / len(above)
    print(f"  rough form of {k}: [{lo:.4f}, {up:.4f}]  (width {up - lo:.4f})")

mean_lo = sum(forms[k][0] for k in judgments) / len(judgments)
mean_up = sum(forms[k][1] for k in judgments) / len(judgments)
cell = group[0, 1].tolist()
print(f"\nmean of the four rough forms: [{mean_lo:.4f}, {mean_up:.4f}]")
print(f"rough_group_matrix cell A -> B: [{cell[0]:.4f}, {cell[1]:.4f}]")
assert abs(cell[0] - mean_lo) <= 1e-12 and abs(cell[1] - mean_up) <= 1e-12

# Unanimity gives a degenerate (point) interval.
print("\nunanimous judgments on B -> A: [2, 2, 2, 2]")
print(f"  rough_group_matrix cell B -> A: [{group[1, 0, 0]:.4f}, {group[1, 0, 1]:.4f}]")

# Crisp conversion takes a family of intervals as one array of [lower, upper]
# pairs, normalizes them to [0, 1], blends each pair of bounds by the
# interval's own relative width, and maps back.
crisp = crisp_convert([[0.0, 1.0], [1.0, 2.0]])
print("\ncrisp conversion of {[0,1], [1,2]}:", [round(v, 4) for v in crisp.tolist()])
