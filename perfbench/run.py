"""rdematel benchmark: end-to-end metrics of the CLI and the library, per-module spans.

Usage, from the root of a checkout:
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The program is the checkout's own `src/`, run as `python -m rdematel.cli`
with `PYTHONPATH=src` and imported in-process from `src/`; an installed
copy is never measured. Inputs are generated from --seed by
perfbench/inputs.py. Load is one client in a closed loop: each op starts
when the previous one has finished. After a warm-up, a run repeats rounds
of one set-up sample, one CLI op, one more set-up sample and in-process ops
for LIB_SHARE times as long as the CLI op took (one at least, and no longer
than the run has left), until --seconds have passed and MIN_ROUNDS rounds
are done.

--trace 0 measures the end-to-end metrics with tracing off:
  setup_s        median wall time of a fresh `python -c "import rdematel.cli"`
  cli_p50_s      median wall time of one CLI invocation of the workload's command
  analyses_per_s in-process ops per second at the run's fastest op (1 / its
                 wall time, the clock stopped while the benchmark checks
                 outputs); one op is parse_study_bundle -> run_analysis ->
                 render_results_csv, render_report_json, render_graph_dot
                 (+ deviation_ledger on the paper study). The large
                 workload runs MIN_ROUNDS ops; the paper study runs
                 thousands, and on a shared host their times split between
                 an uncontended and a contended speed in shares that drift
                 from minute to minute, which moves a mean or median by up
                 to a third while the fastest op stays put (as timeit's
                 documentation advises for the same reason). The mean rate
                 is kept in the detail line as lib_mean_per_s.
  peak_rss_mb    median over CLI invocations of the child's own peak RSS
--trace 1 records spans around the program's public functions
(perfbench/tracing.py) and reports per-layer self times and counts, import
self times from `python -X importtime`, the CLI's time outside import and
the traced functions (cli.other_s), and the tracing overhead from
alternating traced and untraced in-process ops.

Every op's outputs are checked: exit code, ledger, byte-identical artifacts
within a run, weights summing to 1, ranks forming a permutation, and
weights and cause/effect groups against perfbench/golden.json (written by
perfbench/make_golden.py from the commit that defined this benchmark) or,
for inputs it does not hold, against perfbench/oracle.py. The last stdout
line is the result object; the line before it holds the environment,
inputs and raw samples.
"""

from __future__ import annotations

import os

# One BLAS thread in this process and every child: the load is one client.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_MIN_SAMPLES = 5
LIB_SHARE = 3  # in-process time per round, as a multiple of the round's CLI op
# A 15 s op outlasts half a run, and a single one moves with the host's speed
# over those seconds, so every run samples two CLI and two in-process ops.
MIN_ROUNDS = 2
WARMUP_S = 1.0
IMPORTTIME_REPEATS = 3
WEIGHT_TOL = 1e-9
IMPORT_PACKAGES = ("numpy", "scipy", "click", "rdematel")

END_TO_END_UNITS = {"setup_s": "s", "cli_p50_s": "s", "analyses_per_s": "1/s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    **{f"import.{p}_s": "s" for p in IMPORT_PACKAGES},
    "ingest.parse_s": "s",
    "ingest.bytes_in": "bytes",
    "pipeline.aggregate_s": "s",
    "pipeline.judgments": "count",
    "pipeline.normalize_s": "s",
    "crisp.closure_s": "s",
    "crisp.closure_flops": "flop",
    "pipeline.sums_s": "s",
    "pipeline.weights_s": "s",
    "network.crispify_s": "s",
    "network.threshold_s": "s",
    "network.extract_s": "s",
    "network.edges": "count",
    "report.run_analysis_s": "s",
    "report.render_json_s": "s",
    "report.render_csv_s": "s",
    "report.render_dot_s": "s",
    "report.bytes_out": "bytes",
    "report.ledger_s": "s",
    "cli.other_s": "s",
    "trace.untraced_analyses_per_s": "1/s",
    "trace.traced_analyses_per_s": "1/s",
    "trace.overhead_pct": "%",
}
UNITS = {**END_TO_END_UNITS, **PER_LAYER_UNITS}


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("RDEMATEL_")}
    env["PYTHONPATH"] = str(SRC)
    return env


class Spawner:
    """perfbench/spawner.py, which starts every timed child so that its peak RSS is its own."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT,
        )

    def run(self, argv: list[str], log: Path) -> tuple[int, float, float]:
        """(exit code, wall seconds, peak RSS MiB) of one child process, output to `log`."""
        self.proc.stdin.write(json.dumps([argv, str(log)]) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise SystemExit(f"perfbench/spawner.py exited with code {self.proc.wait()}")
        code, wall, rss = json.loads(reply)
        return code, wall, rss

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


# ---------------------------------------------------------------- checks


class Checker:
    """Verifies each distinct artifact once; identical bytes inherit the verdict."""

    def __init__(self, workload: inputs.Workload, ids: list[str], expected: dict):
        self.workload = workload
        self.ids = ids
        self.expected = expected
        self.seen: dict[tuple[str, str], tuple[str, list[str]]] = {}

    def check(self, mode: str, artifacts: dict[str, bytes]) -> list[str]:
        problems = []
        for name, data in artifacts.items():
            digest = hashlib.sha256(data).hexdigest()
            first = self.seen.get((mode, name))
            if first is not None and first[0] == digest:
                problems += first[1]
                continue
            found = [f"{mode} {name}: {p}" for p in self._verify(name, data)]
            if first is None:
                self.seen[(mode, name)] = (digest, found)
            else:
                found.append(f"{mode} {name}: bytes differ from the run's first output")
            problems += found
        return problems

    def _verify(self, name: str, data: bytes) -> list[str]:
        try:
            if name == "report.json":
                return self._verify_report(json.loads(data))
            text = data.decode("utf-8")
            if name == "results.csv":
                rows = list(csv.reader(io.StringIO(text)))
                if [r[0] for r in rows[1:]] != self.ids:
                    return ["rows do not list the criteria in order"]
            elif name == "network.dot":
                if not (text.startswith("digraph") and text.rstrip().endswith("}")):
                    return ["not a DOT digraph"]
            elif name == "deviations.csv":
                rows = list(csv.DictReader(io.StringIO(text)))
                if not rows or any(r["status"] == "fail" for r in rows):
                    return ["ledger has failing cells"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"unreadable: {exc!r}"]
        return []

    def _verify_report(self, doc: dict) -> list[str]:
        results = doc["results"]
        if [r["criterion"] for r in results] != self.ids:
            return ["results do not list the criteria in order"]
        w = np.array([r["weight"] for r in results], dtype=float)
        problems = []
        if not abs(w.sum() - 1.0) <= WEIGHT_TOL:  # written so that NaN fails
            problems.append(f"weights sum to {w.sum()!r}")
        if sorted(r["rank"] for r in results) != list(range(1, len(results) + 1)):
            problems.append("ranks are not a permutation")
        deviation = float(np.abs(w - np.array(self.expected["weights"])).max())
        if not deviation <= WEIGHT_TOL:
            problems.append(f"weights deviate from the expected values by {deviation:.3e}")
        if [r["group"] for r in results] != self.expected["groups"]:
            problems.append("cause/effect groups differ from the expected ones")
        if self.workload.is_paper:
            devs = doc.get("deviations") or []
            if not devs or any(d["status"] == "fail" for d in devs):
                problems.append("reproduction ledger does not pass")
        return problems


def expected_outputs(workload: inputs.Workload, data: bytes) -> tuple[dict, str]:
    """Expected weights/groups and where they came from (golden file or oracle)."""
    computed = oracle.expected(json.loads(data))
    digest = inputs.sha256(data)
    golden = json.loads((HERE / "golden.json").read_bytes()).get(workload.name, [])
    for entry in golden:
        if entry["input_sha256"] == digest:
            gap = float(np.abs(np.array(entry["weights"]) - np.array(computed["weights"])).max())
            if gap > WEIGHT_TOL or entry["groups"] != computed["groups"]:
                raise SystemExit(f"benchmark oracle disagrees with golden.json on {workload.name} (gap {gap:.3e})")
            return entry, "golden"
    return computed, "oracle"


# ---------------------------------------------------------------- program under test


class Program:
    """The checkout's rdematel, imported in-process, plus the CLI command line of a workload."""

    def __init__(self, workload: inputs.Workload, bundle_path: Path):
        sys.path.insert(0, str(SRC))
        import rdematel.fixtures
        import rdematel.ingest
        import rdematel.report

        if not Path(rdematel.__file__).resolve().is_relative_to(SRC.resolve()):
            raise SystemExit(f"rdematel imported from {rdematel.__file__}, not from {SRC}")
        self.ingest, self.report = rdematel.ingest, rdematel.report
        self.config = rdematel.report.AnalysisConfig(crispify_mode=workload.crispify)
        self.reference = rdematel.fixtures.load_reference_tables() if workload.is_paper else None
        self.workload = workload
        self.bundle_path = bundle_path

    def lib_op(self, data: bytes) -> dict[str, bytes]:
        rep = self.report.run_analysis(self.ingest.parse_study_bundle(data), self.config)
        if self.reference is not None:
            rep.deviations = self.report.deviation_ledger(rep.analysis, self.reference)
        return {
            "results.csv": self.report.render_results_csv(rep),
            "report.json": self.report.render_report_json(rep),
            "network.dot": self.report.render_graph_dot(rep.network),
        }

    def cli_args(self, out_dir: Path) -> list[str]:
        return [a.format(bundle=self.bundle_path, out=out_dir) for a in self.workload.cli_args]

    def cli_artifacts(self, out_dir: Path) -> tuple[dict[str, bytes], list[str]]:
        names = ("deviations.csv", "report.json") if self.workload.is_paper else (
            "results.csv", "report.json", "network.dot")
        found, missing = {}, []
        for name in names:
            path = out_dir / name
            if path.is_file():
                found[name] = path.read_bytes()
            else:
                missing.append(f"cli {name}: not written")
        return found, missing


# ---------------------------------------------------------------- phases


class Tally:
    def __init__(self):
        self.ops = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.ops += 1
        if problems:
            self.failed += 1
            for p in problems:
                if p not in self.problems and len(self.problems) < 20:
                    self.problems.append(p)


def loop(budget: float, op, min_calls: int = 1) -> None:
    """Call op() min_calls times, then again while one more call of average length ends within `budget` seconds."""
    start, calls = time.perf_counter(), 0
    while True:
        op()
        calls += 1
        if calls >= min_calls and (time.perf_counter() - start) * (calls + 1) / calls > budget:
            return


def setup_sample(spawner: Spawner) -> float:
    code, wall, _ = spawner.run([sys.executable, "-c", "import rdematel.cli"], Path(os.devnull))
    if code != 0:
        raise SystemExit("`import rdematel.cli` failed in a fresh interpreter")
    return wall


def import_self_times() -> dict[str, float]:
    """Median import cost of `import rdematel.cli` per package, from -X importtime.

    A module's self time is charged to the package that rdematel imported to
    load it: numpy.random pulled in by scipy is scipy's cost, and a standard
    module imported by rdematel itself is rdematel's.
    """
    runs = []
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import rdematel.cli"],
            capture_output=True, text=True, env=child_env(), cwd=ROOT, check=True,
        )
        stack: list[tuple[int, str, float, list]] = []  # (depth, module, self seconds, children)
        for line in proc.stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if not line.startswith("import time:") or len(fields) != 3 or not fields[0].strip().isdigit():
                continue
            depth = (len(fields[2]) - len(fields[2].lstrip()) - 1) // 2  # " " + two spaces per level
            children = []
            while stack and stack[-1][0] > depth:  # importtime lists a module after its imports
                children.append(stack.pop())
            stack.append((depth, fields[2].strip(), int(fields[0]) / 1e6, children))
        totals = dict.fromkeys(IMPORT_PACKAGES, 0.0)
        pending = [(node, "rdematel") for node in stack if node[1] == "rdematel.cli"]
        while pending:
            (_, _, self_s, children), owner = pending.pop()
            totals[owner] += self_s
            for child in children:
                package = child[1].split(".", 1)[0]
                pending.append((child, package if owner == "rdematel" and package in totals else owner))
        runs.append(totals)
    return {p: median([r[p] for r in runs]) for p in IMPORT_PACKAGES}


def cli_op(program: Program, spawner: Spawner, checker: Checker, tally: Tally, tmp: Path, traced: bool) -> dict:
    """One CLI invocation of the workload's command, checked; returns its sample."""
    out_dir = tmp / f"cli-{tally.ops}"
    spans_file = tmp / "spans.json"
    spans_file.unlink(missing_ok=True)
    if traced:
        argv = [sys.executable, str(HERE / "cli_traced.py"), str(spans_file), *program.cli_args(out_dir)]
    else:
        argv = [sys.executable, "-m", "rdematel.cli", *program.cli_args(out_dir)]
    code, wall, rss = spawner.run(argv, tmp / "cli.log")
    problems = [] if code == 0 else [f"cli exit code {code}: {(tmp / 'cli.log').read_text()[-300:]!r}"]
    artifacts, missing = program.cli_artifacts(out_dir)
    problems += missing + checker.check("cli", artifacts)
    sample = {"wall_s": wall, "peak_rss_mb": rss}
    if traced and spans_file.is_file():
        trace = json.loads(spans_file.read_text())
        sample["other_s"] = wall - trace["import_s"] - tracing.root_time(trace["spans"])
        sample["absent"] = trace["absent"]
    tally.record(problems)
    shutil.rmtree(out_dir, ignore_errors=True)
    return sample


def lib_op_checked(program: Program, checker: Checker, tally: Tally, data: bytes) -> tuple[float, dict]:
    start = time.perf_counter()
    try:
        artifacts = program.lib_op(data)
        problems = []
    except Exception as exc:  # any failure of the program counts against this op
        artifacts, problems = {}, [f"lib op raised {exc!r}"]
    elapsed = time.perf_counter() - start
    tally.record(problems + checker.check("lib", artifacts))
    return elapsed, artifacts


# ---------------------------------------------------------------- metrics


def per_layer(op_spans: list[tracing.SpanRecord]) -> dict[str, float]:
    """Per-layer times of one op, from inclusive span times.

    pipeline.aggregate_s is analyze_rough minus its tail stages, so it does not
    depend on how aggregation is split into functions; report.run_analysis_s is
    run_analysis's self time, the packaging around the stages it calls.
    """

    def incl(name, under=None):
        return sum(s.incl for s in op_spans if s.name == name and (under is None or under in s.ancestors))

    run = "report.run_analysis"
    return {
        "ingest.parse_s": incl("ingest.parse_study_bundle"),
        "pipeline.aggregate_s": incl("pipeline.analyze_rough") - sum(
            incl(child, "pipeline.analyze_rough")
            for child in ("pipeline.normalize_rough", "pipeline.rough_total_relation",
                          "pipeline.rough_sums", "pipeline.weights")
        ),
        "pipeline.normalize_s": incl("pipeline.normalize_rough"),
        "crisp.closure_s": incl("crisp.solve_total_relation"),
        "pipeline.sums_s": incl("pipeline.rough_sums"),
        "pipeline.weights_s": incl("pipeline.weights", "pipeline.analyze_rough"),
        "network.crispify_s": incl("network.crispify_total"),
        "network.threshold_s": incl("network.threshold"),
        "network.extract_s": incl("network.extract_network"),
        "report.run_analysis_s": sum(s.self for s in op_spans if s.name == run),
        "report.render_json_s": incl("report.render_report_json"),
        "report.render_csv_s": incl("report.render_results_csv"),
        "report.render_dot_s": incl("report.render_graph_dot"),
        "report.ledger_s": incl("report.deviation_ledger"),
    }


def environment(seed: int) -> dict:
    try:
        cpu = next(
            line.split(":", 1)[1].strip()
            for line in Path("/proc/cpuinfo").read_text().splitlines()
            if line.startswith("model name")
        )
    except (OSError, StopIteration):
        cpu = platform.processor() or "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # show_config's layout differs across numpy versions
        blas = "unknown"
    versions = {"python": platform.python_version()}
    for package in ("numpy", "scipy", "click"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    head = ROOT / ".git" / "HEAD"  # absent in an exported checkout; src_sha256 identifies the code there
    commit = head.read_text().strip() if head.is_file() else None
    if commit and commit.startswith("ref: "):
        ref_file = ROOT / ".git" / commit[5:]
        commit = ref_file.read_text().strip() if ref_file.is_file() else None
    src_hash = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src_hash.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "versions": versions,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "git_commit": commit,
        "src_sha256": src_hash.hexdigest(),
        "seed": seed,
        "load": "one client, closed loop, sequential",
    }


# ---------------------------------------------------------------- main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "rdematel" / "cli.py").is_file():
        print(f"no program to measure: {SRC / 'rdematel' / 'cli.py'} is missing", file=sys.stderr)
        return 2
    workload = inputs.WORKLOADS[args.workload]
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench_tmp-", dir=ROOT))
    try:
        spawner = Spawner()
        try:
            return run(workload, args.seed, args.seconds, bool(args.trace), tmp, spawner)
        finally:
            spawner.close()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def run(workload: inputs.Workload, seed: int, seconds: float, traced: bool, tmp: Path, spawner: Spawner) -> int:
    probe = subprocess.run(
        [sys.executable, "-c", "import rdematel.cli; print(rdematel.cli.__file__)"],
        capture_output=True, text=True, env=child_env(), cwd=ROOT,
    )
    if probe.returncode != 0 or not Path(probe.stdout.strip()).resolve().is_relative_to(SRC.resolve()):
        print(f"the CLI does not import from {SRC}: {probe.stdout}{probe.stderr}", file=sys.stderr)
        return 2

    data = inputs.workload_input(workload, seed, SRC)
    bundle_path = tmp / "bundle.json"
    bundle_path.write_bytes(data)
    doc = json.loads(data)
    ids = [c["id"] for c in doc["criteria"]]
    expected, expected_from = expected_outputs(workload, data)
    program = Program(workload, bundle_path)
    checker = Checker(workload, ids, expected)
    tally = Tally()

    # Let lazy set-up inside the program finish before timing; the large
    # workloads warm up on a small bundle of the same mode.
    warm = data if workload.is_paper else inputs.raw_bundle(6, 3, seed)
    try:
        loop(WARMUP_S, lambda: program.lib_op(warm))
    except Exception:  # a failing program is counted by the checked ops that follow
        pass

    detail = {
        "workload": workload.name,
        "seconds": seconds,
        "trace": int(traced),
        "environment": environment(seed),
        "input": {"bytes": len(data), "sha256": inputs.sha256(data), "n": workload.n, "m": workload.m},
        "expected_from": expected_from,
    }
    if traced:
        metrics = traced_run(program, spawner, checker, tally, data, seconds, tmp, detail)
    else:
        metrics = untraced_run(program, spawner, checker, tally, data, seconds, tmp, detail)
    detail.update(ops=tally.ops, ops_failed=tally.failed, problems=tally.problems)
    print(json.dumps({"detail": detail}))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.ops,
        "failed": tally.failed,
        "metrics": {k: {"value": float(v), "unit": UNITS[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def untraced_run(program, spawner, checker, tally, data, seconds, tmp, detail) -> dict:
    # Host speed drifts over seconds, so every metric samples the whole run:
    # rounds of set-up, CLI and in-process ops until the time is up.
    end = time.perf_counter() + seconds
    setup, cli, rounds = [], [], []

    def round_():
        setup.append(setup_sample(spawner))
        cli.append(cli_op(program, spawner, checker, tally, tmp, traced=False))
        setup.append(setup_sample(spawner))
        durations = []
        budget = min(LIB_SHARE * cli[-1]["wall_s"], end - time.perf_counter())
        loop(budget, lambda: durations.append(lib_op_checked(program, checker, tally, data)[0]))
        rounds.append(durations)

    loop(seconds, round_, MIN_ROUNDS)
    while len(setup) < SETUP_MIN_SAMPLES:
        setup.append(setup_sample(spawner))
    durations = [d for ds in rounds for d in ds]
    detail["samples"] = {
        "setup_s": setup,
        "cli_wall_s": [s["wall_s"] for s in cli],
        "cli_peak_rss_mb": [s["peak_rss_mb"] for s in cli],
        "lib_ops": [len(d) for d in rounds],
        "lib_busy_s": [sum(d) for d in rounds],
        "lib_mean_per_s": len(durations) / sum(durations),
    }
    return {
        "setup_s": median(setup),
        "cli_p50_s": median(s["wall_s"] for s in cli),
        "analyses_per_s": 1.0 / min(durations),
        "peak_rss_mb": median(s["peak_rss_mb"] for s in cli),
    }


def traced_run(program, spawner, checker, tally, data, seconds, tmp, detail) -> dict:
    end = time.perf_counter() + seconds
    imports = import_self_times()
    tracer = tracing.Tracer()
    cli, plain, traced, layers, edges, bytes_out = [], [], [], [], [], []

    def pair():
        plain.append(lib_op_checked(program, checker, tally, data)[0])
        tracer.op += 1
        tracer.install()
        try:
            elapsed, artifacts = lib_op_checked(program, checker, tally, data)
        finally:
            tracer.uninstall()
        traced.append(elapsed)
        layers.append(per_layer(tracing.span_records(tracer.spans, tracer.op)))
        edges.append(artifacts.get("network.dot", b"").count(b" -> "))
        bytes_out.append(sum(len(v) for v in artifacts.values()))

    def round_():
        cli.append(cli_op(program, spawner, checker, tally, tmp, traced=True))
        loop(min(cli[-1]["wall_s"], end - time.perf_counter()), pair)

    loop(seconds, round_)
    n, m = program.workload.n, program.workload.m
    metrics = {f"import.{p}_s": imports[p] for p in IMPORT_PACKAGES}
    metrics.update({
        "ingest.bytes_in": len(data),
        "pipeline.judgments": n * (n - 1) * m,
        # two closures, each an LU factorization (2/3 n^3) and two triangular solves with n right-hand sides (2 n^3)
        "crisp.closure_flops": 2 * (2 / 3 + 2) * n**3,
        "network.edges": median(edges),
        "report.bytes_out": median(bytes_out),
        "cli.other_s": median(s["other_s"] for s in cli if "other_s" in s),
    })
    metrics.update({k: median(layer[k] for layer in layers) for k in layers[0]})
    plain_rate, traced_rate = len(plain) / sum(plain), len(traced) / sum(traced)
    metrics["trace.untraced_analyses_per_s"] = plain_rate
    metrics["trace.traced_analyses_per_s"] = traced_rate
    metrics["trace.overhead_pct"] = 100.0 * (plain_rate / traced_rate - 1.0)
    detail["absent_spans"] = sorted(set(tracer.absent).union(*(s.get("absent", ()) for s in cli)))
    detail["spans"] = tracing.summary(tracer.spans)
    detail["samples"] = {"cli_wall_s": [s["wall_s"] for s in cli], "lib_ops_traced": len(traced),
                         "lib_ops_untraced": len(plain)}
    return metrics


if __name__ == "__main__":
    sys.exit(main())
