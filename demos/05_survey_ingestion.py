"""Ingesting survey data: expert CSVs and study bundles.

Shows the two supported input forms: a per-expert CSV matrix (as it
would come back from a survey spreadsheet) and a JSON study bundle
carrying several experts at once, plus what validation errors look like.
"""

from importlib import resources

from rdematel.errors import BundleValidationError, ParseError
from rdematel.ingest import parse_expert_csv, parse_study_bundle, write_bundle
from rdematel.pipeline import analyze_rough

# A single expert's matrix, straight from the bundled survey sheet.
csv_bytes = resources.files("rdematel.fixtures").joinpath("expert1_direct_relation.csv").read_bytes()
print("raw CSV:")
print(csv_bytes.decode().strip())

expert = parse_expert_csv(csv_bytes)
print(f"\nparsed: {expert.shape[0]}x{expert.shape[1]} {expert.dtype} matrix")

# Malformed input is rejected with a coordinate, not a stack trace.
bad = "A,B\nA,0,9\nB,1,0\n"
try:
    parse_expert_csv(bad)
except ParseError as exc:
    print(f"\nout-of-scale cell rejected: {exc}")

# Bundles collect criteria, respondents, the scale, and the matrices.  The
# matrices are read into one (experts, n, n) panel in respondent order.
doc = b"""{
  "scale": {"min": 0, "max": 4},
  "criteria": [{"id": "A"}, {"id": "B"}, {"id": "C"}],
  "respondents": [{"id": "r1"}, {"id": "r2"}],
  "matrices": {
    "r1": [[0, 3, 1], [2, 0, 2], [1, 4, 0]],
    "r2": [[0, 2, 2], [3, 0, 1], [1, 3, 0]]
  }
}"""
bundle = parse_study_bundle(doc)
print(f"\npanel: shape {bundle.panel.shape}, respondents {[r.id for r in bundle.respondents]}")
analysis = analyze_rough(bundle.criterion_ids, panel=bundle.panel)
print("bundle analyzed; weights:", [f"{r.criterion}={r.weight:.3f}" for r in analysis.results])

# Validation is total: every fault is reported, not just the first.
broken = b'{"criteria": [{"id": "A"}, {"id": "A"}], "respondents": [{"id": "r1", "role": "wizard"}]}'
try:
    parse_study_bundle(broken)
except BundleValidationError as exc:
    print("\nbroken bundle, all faults at once:")
    for msg in exc.errors:
        print(f"  - {msg}")

# write_bundle round-trips byte for byte.
assert write_bundle(parse_study_bundle(write_bundle(bundle))) == write_bundle(bundle)
print("\nround trip: parse(write(bundle)) serializes to identical bytes")
