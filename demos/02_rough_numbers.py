"""Rough numbers: turning disagreeing judgments into intervals.

A rough number wraps one judgment k in the interval between the mean of
all judgments at or below k and the mean of all judgments at or above k.
Wide spread in opinion produces wide intervals; unanimity collapses the
interval to a point.
"""

from rdematel.rough import JudgmentSet, average_rough, crisp_convert, rough_bounds

# Four experts rate the same influence: 0, 1, 1 and 3.
judgments = JudgmentSet((0, 1, 1, 3))
print("judgments:", judgments.values)
for k in sorted(set(judgments.values)):
    rn = rough_bounds(judgments, k)
    print(f"  rough form of {k}: [{rn.lower:.4f}, {rn.upper:.4f}]  (width {rn.width:.4f})")

group = average_rough([rough_bounds(judgments, k) for k in judgments.values])
print(f"\ngroup rough number (mean of the four): [{group.lower:.4f}, {group.upper:.4f}]")

# Unanimity gives a degenerate (point) interval.
agreed = JudgmentSet((2, 2, 2, 2))
print("\nunanimous judgments:", agreed.values)
print("  rough form of 2:", rough_bounds(agreed, 2))

# Crisp conversion takes a family of intervals as lower and upper bound
# arrays, normalizes them to [0, 1], blends each pair of bounds by the
# interval's own relative width, and maps back.
crisp = crisp_convert([0.0, 1.0], [1.0, 2.0])
print("\ncrisp conversion of {[0,1], [1,2]}:", [round(v, 4) for v in crisp.tolist()])
