"""Full rough DEMATEL pipeline on the bundled blockchain-adoption study.

Loads the study bundle shipped with the package (seven barriers to
blockchain adoption in food bank supply chains, judged by 21 respondents
and published as an aggregated rough group matrix), runs the rough
pipeline end to end, and prints the ranking and the influence network.
"""

from rdematel.fixtures import load_study_bundle
from rdematel.report import AnalysisConfig, render_graph_dot, run_analysis

bundle = load_study_bundle()
names = {c.id: c.name for c in bundle.criteria}
print(f"study: {bundle.n} criteria, {len(bundle.respondents)} respondents\n")

report = run_analysis(bundle, AnalysisConfig())
print("configuration:")
for key, value in report.config.items():
    print(f"  {key}: {value}")

print("\nid   X        Y        X+Y      X-Y      omega    weight  rank  group")
for r in report.results:
    print(
        f"{r.criterion:<4} {r.x:>7.4f}  {r.y:>7.4f}  {r.prominence:>7.4f}  "
        f"{r.relation:>7.4f}  {r.omega:>7.4f}  {r.weight:.4f}  {r.rank:>4}  {r.group}"
    )

print("\ncause criteria (drive the system):")
for r in report.results:
    if r.group == "cause":
        print(f"  {r.criterion}: {names[r.criterion]}")

print(f"\ninfluence network at threshold q = {report.config['threshold_q']:.4f}:")
net = report.network
for i, j, strength in zip(net.source, net.target, net.strength):
    print(f"  {net.nodes[i]} -> {net.nodes[j]}  (strength {strength:.4f})")

print("\nDOT rendering (feed to graphviz):")
print(render_graph_dot(report.network).decode())
