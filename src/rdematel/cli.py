"""Command-line driver: validate bundles, run analyses, export graphs, reproduce the reference study.

Exit codes: 0 success, 2 usage/validation/analysis failure, 3 I/O failure, 1 for a closed
stdout (nothing printed) or an interrupt (``Aborted!``); ``main`` maps every error to its code.
Options come from the command line only. Output is UTF-8.
"""

from __future__ import annotations

import argparse
import errno
import math
import sys
from pathlib import Path
from typing import Iterable

import numpy as np

from . import fixtures, ingest, network as net_mod, pipeline, report as report_mod
from .errors import BundleValidationError, DegenerateInputError, RDematelError
from .report import AnalysisConfig


def _write_file(path: Path, data: bytes | Iterable[str]) -> None:
    """Write ``data``, bytes or text chunks written as they come (UTF-8), making its directory first."""
    path.parent.mkdir(parents=True, exist_ok=True)
    if isinstance(data, bytes):
        path.write_bytes(data)
    else:
        with path.open("w", encoding="utf-8", newline="") as f:
            f.writelines(data)


def _echo(text: str | bytes, err: bool = False) -> None:
    """Write ``text`` to stdout, or to stderr if ``err``, as UTF-8 whatever the stream's encoding."""
    stream = sys.stderr if err else sys.stdout
    data = memoryview(text if isinstance(text, bytes) else text.encode("utf-8", "surrogateescape"))
    while data:  # a pipe may take part of a large write; writing the rest raises if its reader is gone
        data = data[stream.buffer.write(data):]
    stream.flush()


def _parse_threshold(spec: str) -> tuple[str, float]:
    """'mean-sigma:<k>' (k defaults to AnalysisConfig's) or 'fixed:<q>' -> (mode, value), the value a finite number."""
    mode, _, value = spec.partition(":")
    if mode not in (net_mod.THRESHOLD_MEAN_SIGMA, net_mod.THRESHOLD_FIXED):
        raise argparse.ArgumentTypeError(f"unknown threshold spec {spec!r}; use mean-sigma:<k> or fixed:<q>")
    if mode == net_mod.THRESHOLD_FIXED and not value:
        raise argparse.ArgumentTypeError("fixed threshold needs a value, e.g. fixed:0.5")
    try:
        x = float(value) if value else AnalysisConfig.threshold_value
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"threshold spec {spec!r}: {value!r} is not a finite number")
    return mode, x


def _at_least(low: int):
    """An option type: an integer no smaller than ``low``."""

    def integer(text: str) -> int:  # argparse names a ValueError after the function: "invalid integer value"
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is not in the range x>={low}")
        return value
    return integer


def validate(args):
    """Validate a study bundle; exit 0 if well-formed."""
    b = ingest.parse_study_bundle(Path(args.bundle).read_bytes())
    mode = "raw" if b.panel is not None else "aggregate"
    _echo(f"OK: {b.n} criteria, {len(b.respondents)} respondents, {mode} mode\n")


def _run_bundle(args) -> report_mod.AnalysisReport:
    config = AnalysisConfig(args.tau_strategy, args.crispify_mode, *args.threshold_spec)
    return report_mod.run_analysis(ingest.parse_study_bundle(Path(args.bundle).read_bytes()), config)


def analyze(args):
    """Run the full analysis and write the report artifact set."""
    rep = _run_bundle(args)
    out = Path(args.out_dir)
    _write_file(out / "results.csv", report_mod.render_results_csv(rep))
    _write_file(out / "report.json", report_mod.report_json_chunks(rep))
    _write_file(out / "network.dot", report_mod.render_graph_dot(rep.network))
    for key, value in rep.config.items():
        _echo(f"{key}: {value}\n")
    _echo(f"wrote results.csv, report.json, network.dot to {out}\n")


def graph(args):
    """Extract the thresholded influence network as a DOT graph."""
    dot = report_mod.render_graph_dot(_run_bundle(args).network)
    if args.out_file:
        _write_file(Path(args.out_file), dot)
    else:
        _echo(dot)


def reproduce_paper(args):
    """Rerun the shipped reference study and reconcile it against the published tables."""
    rep = report_mod.run_analysis(fixtures.load_study_bundle(), AnalysisConfig(tau_strategy=args.tau_strategy))
    entries = rep.deviations = report_mod.deviation_ledger(rep.analysis, fixtures.load_reference_tables())
    if args.out_dir:
        out = Path(args.out_dir)
        _write_file(out / "deviations.csv", report_mod.render_deviations_csv(entries))
        _write_file(out / "report.json", report_mod.report_json_chunks(rep))
    for table in sorted({e["table"] for e in entries}):
        statuses = [e["status"] for e in entries if e["table"] == table]
        failed, skipped = statuses.count(report_mod.FAIL), statuses.count(report_mod.NOT_COMPARABLE)
        status = "FAIL" if failed else ("NOT-COMPARABLE" if skipped == len(statuses) else "PASS")
        _echo(f"{table}: {status} ({len(statuses)} cells, {failed} failed, {skipped} not comparable)\n")
    _echo(f"tau strategy: {args.tau_strategy} (tau = {rep.analysis.tau:.4f})\n")
    if not report_mod.ledger_passes(entries):
        sys.exit(2)


def synth(args):
    """Generate a synthetic random study bundle (raw matrices)."""
    n, m, scale = args.n_criteria, args.n_experts, ingest.Scale()
    criteria = [ingest.CriterionMeta(f"C{i + 1}", name=f"Criterion {i + 1}") for i in range(n)]
    respondents = [ingest.RespondentMeta(f"X{k + 1}") for k in range(m)]
    panel = np.random.default_rng(args.seed).integers(scale.minimum, scale.maximum, size=(m, n, n), endpoint=True)
    panel[:, range(n), range(n)] = 0
    if not panel.any():  # analyze cannot normalize an all-zero rough group: write no bundle it would refuse
        raise DegenerateInputError(f"synth: seed {args.seed} draws an all-zero panel, which cannot be normalized")
    chunks = ingest.bundle_chunks(ingest.StudyBundle(criteria, respondents, scale, panel))
    if args.out_file:
        _write_file(Path(args.out_file), chunks)
    else:
        for chunk in chunks:
            _echo(chunk)


_BUNDLE = ("bundle", dict(metavar="BUNDLE"))
_TAU = ("--tau", dict(dest="tau_strategy", choices=pipeline.TAU_STRATEGIES, default=AnalysisConfig.tau_strategy,
                      help="Normalization scalar strategy (default: %(default)s)."))
_ANALYSIS = [
    _BUNDLE, _TAU,
    ("--crispify", dict(dest="crispify_mode", choices=net_mod.CRISPIFY_MODES, default=AnalysisConfig.crispify_mode,
                        help="How the rough total matrix is collapsed to crisp values (default: %(default)s).")),
    ("--threshold", dict(dest="threshold_spec", type=_parse_threshold,
                         default=f"{AnalysisConfig.threshold_mode}:{AnalysisConfig.threshold_value:g}",
                         help="Edge cutoff: mean-sigma:<k> or fixed:<q> (default: %(default)s).")),
]
# command -> (its function, its arguments as (name or flag, add_argument keywords))
_COMMANDS = {
    "validate": (validate, [_BUNDLE]),
    "analyze": (analyze, [*_ANALYSIS, ("--out", dict(dest="out_dir", default=".",
                                                      help="Output directory (default: %(default)s)."))]),
    "graph": (graph, [*_ANALYSIS, ("--out", dict(dest="out_file", help="Write the DOT file here instead of stdout."))]),
    "reproduce-paper": (reproduce_paper, [_TAU, ("--out", dict(dest="out_dir",
                                                                help="Directory for the deviation ledger CSV."))]),
    "synth": (synth, [
        ("--criteria", dict(dest="n_criteria", type=_at_least(2), required=True)),
        ("--experts", dict(dest="n_experts", type=_at_least(2), required=True)),
        ("--seed", dict(dest="seed", type=_at_least(0), default=0,
                        help="Random generator seed (default: %(default)s).")),
        ("--out", dict(dest="out_file", help="Write the bundle here instead of stdout.")),
    ]),
}


def main(argv: list[str] | None = None) -> None:
    """Run the command that ``argv`` (default: ``sys.argv[1:]``) names, exiting with the code of any error."""
    parser = argparse.ArgumentParser(prog="rdematel", description="Rough DEMATEL group decision analysis.",
                                     add_help=False, allow_abbrev=False)
    subparsers = parser.add_subparsers(metavar="COMMAND")  # required below, after unknown options are named
    for name, (run, arguments) in _COMMANDS.items():
        command = subparsers.add_parser(name, help=run.__doc__, description=run.__doc__,
                                        add_help=False, allow_abbrev=False)
        for flag, keywords in arguments:
            command.add_argument(flag, **keywords)
        command.add_argument("--help", action="help", help="Show this message and exit.")
        command.set_defaults(run=run)
    parser.add_argument("--help", action="help", help="Show this message and exit.")
    args = parser.parse_args(argv)
    if "run" not in args:
        parser.error("the following arguments are required: COMMAND")
    try:
        args.run(args)
    except BundleValidationError as exc:
        for err in exc.errors:
            _echo(f"invalid: {err}\n", err=True)
        sys.exit(2)
    except RDematelError as exc:
        _echo(f"analysis error: {exc}\n", err=True)
        sys.exit(2)
    except MemoryError as exc:
        _echo(f"out of memory: {exc}\n", err=True)
        sys.exit(2)
    except OSError as exc:
        if exc.errno == errno.EPIPE:
            sys.stdout = None  # the reader is gone: skip the interpreter's final flush, which would fail again
            sys.exit(1)
        _echo(f"i/o error: {exc}\n", err=True)
        sys.exit(3)
    except KeyboardInterrupt:
        _echo("\nAborted!\n", err=True)
        sys.exit(1)


if __name__ == "__main__":
    main()
