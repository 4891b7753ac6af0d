"""Reconciling a run against the published reference tables.

Replays the bundled study from its published rough group matrix and
compares every intermediate value against the published tables, printing
a per-table summary. One step of the published chain (crisp conversion
of the interval sums) cannot be recovered from the printed values by the
stated formulas; it is reported as not-comparable rather than failed.
"""

from collections import Counter

from rdematel.fixtures import load_reference_tables, load_study_bundle
from rdematel.report import (
    FAIL,
    NOT_COMPARABLE,
    AnalysisConfig,
    deviation_ledger,
    ledger_passes,
    run_analysis,
)

report = run_analysis(load_study_bundle(), AnalysisConfig())
entries = deviation_ledger(report.analysis, load_reference_tables())

by_table: dict[str, Counter] = {}
for e in entries:
    by_table.setdefault(e["table"], Counter())[e["status"]] += 1

print(f"{'table':<16} {'pass':>5} {'fail':>5} {'n/c':>5}   worst difference")
for table, counts in by_table.items():
    diffs = [e["difference"] for e in entries if e["table"] == table and e["difference"] is not None]
    worst = f"{max(diffs):.2e}" if diffs else "-"
    print(
        f"{table:<16} {counts.get('pass', 0):>5} {counts.get(FAIL, 0):>5} "
        f"{counts.get(NOT_COMPARABLE, 0):>5}   {worst}"
    )

print(f"\noverall: {'PASS' if ledger_passes(entries) else 'FAIL'} "
      f"({len(entries)} cells checked)")

# The same reconciliation under the literal normalization reading fails,
# which is how the default strategy was chosen.
alt = run_analysis(load_study_bundle(), AnalysisConfig(tau_strategy="max-upper-sum"))
alt_entries = deviation_ledger(alt.analysis, load_reference_tables())
failures = sum(1 for e in alt_entries if e["status"] == FAIL)
print(f"with tau strategy 'max-upper-sum': {failures} cells out of tolerance")
