"""Write perfbench/golden.json: the weights and groups the program gives on the benchmark's inputs.

Usage, from the root of a checkout: python3 perfbench/make_golden.py <seed>...
The file was made once, from the commit that defined the benchmark, and is
kept frozen so that later commits are checked against that program's output.
"""

import json
import sys
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

from rdematel import ingest, report  # noqa: E402

golden = {}
for workload in inputs.WORKLOADS.values():
    seeds = [0] if workload.is_paper else [int(s) for s in sys.argv[1:]]
    entries = golden[workload.name] = []
    for seed in seeds:
        data = inputs.workload_input(workload, seed, SRC)
        rep = report.run_analysis(
            ingest.parse_study_bundle(data), report.AnalysisConfig(crispify_mode=workload.crispify)
        )
        entries.append({
            "input_sha256": inputs.sha256(data),
            "seed": None if workload.is_paper else seed,
            "weights": [r.weight for r in rep.results],
            "groups": [r.group for r in rep.results],
        })
        print(workload.name, seed, file=sys.stderr)
(HERE / "golden.json").write_text(json.dumps(golden, indent=1) + "\n")
