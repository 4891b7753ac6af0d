"""Command-line driver: validate bundles, run analyses, export graphs, reproduce the reference study.

Exit codes: 0 success, 2 validation/analysis failure, 3 I/O failure;
the command group's ``invoke`` maps every error to its code.
Every flag can also be set through an RDEMATEL_-prefixed environment
variable; flags take precedence.
"""

from __future__ import annotations

import errno
import math
import sys
from pathlib import Path
from typing import Iterable

import click
import numpy as np

from . import fixtures, ingest, network as net_mod, pipeline, report as report_mod
from .errors import BundleValidationError, RDematelError
from .report import AnalysisConfig


def _write_file(path: Path, data: bytes | Iterable[str]) -> None:
    """Write ``data``, bytes or text chunks written as they come (UTF-8), making its directory first."""
    path.parent.mkdir(parents=True, exist_ok=True)
    if isinstance(data, bytes):
        path.write_bytes(data)
    else:
        with path.open("w", encoding="utf-8", newline="") as f:
            f.writelines(data)


def _parse_threshold(spec: str) -> tuple[str, float]:
    """'mean-sigma:<k>' or 'fixed:<q>' -> (mode, value)."""
    mode, _, value = spec.partition(":")
    if mode == "mean-sigma":
        return net_mod.THRESHOLD_MEAN_SIGMA, _finite(spec, value) if value else 1.0
    if mode == "fixed":
        if not value:
            raise click.BadParameter("fixed threshold needs a value, e.g. fixed:0.5")
        return net_mod.THRESHOLD_FIXED, _finite(spec, value)
    raise click.BadParameter(f"unknown threshold spec {spec!r}; use mean-sigma:<k> or fixed:<q>")


def _finite(spec: str, value: str) -> float:
    try:
        x = float(value)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise click.BadParameter(f"threshold spec {spec!r}: {value!r} is not a finite number")
    return x


class _ErrorBoundary(click.Group):
    """Runs a command, turning a package error into exit 2 and an I/O error into exit 3, each with its message.

    A closed stdout (EPIPE) is left to click, as for any command.
    """

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except BundleValidationError as exc:
            for err in exc.errors:
                click.echo(f"invalid: {err}", err=True)
        except RDematelError as exc:
            click.echo(f"analysis error: {exc}", err=True)
        except OSError as exc:
            if exc.errno == errno.EPIPE:
                raise
            click.echo(f"i/o error: {exc}", err=True)
            sys.exit(3)
        sys.exit(2)


@click.group(cls=_ErrorBoundary)
def cli():
    """Rough DEMATEL group decision analysis."""


@cli.command()
@click.argument("bundle", type=str)
def validate(bundle):
    """Validate a study bundle; exit 0 if well-formed."""
    b = ingest.parse_study_bundle(Path(bundle).read_bytes())
    mode = "raw" if b.panel is not None else "aggregate"
    click.echo(f"OK: {b.n} criteria, {len(b.respondents)} respondents, {mode} mode")


_tau_option = click.option("--tau", "tau_strategy", type=click.Choice(pipeline.TAU_STRATEGIES),
                           default=pipeline.TAU_MAX_TOTAL_SUM, show_default=True,
                           help="Normalization scalar strategy.")
_analysis_options = [
    _tau_option,
    click.option("--crispify", "crispify_mode", type=click.Choice(net_mod.CRISPIFY_MODES),
                 default=net_mod.CRISPIFY_MIDPOINT, show_default=True,
                 help="How the rough total matrix is collapsed to crisp values."),
    click.option("--threshold", "threshold_spec", default="mean-sigma:1", show_default=True,
                 help="Edge cutoff: mean-sigma:<k> or fixed:<q>."),
]


def _with_analysis_options(f):
    for opt in reversed(_analysis_options):
        f = opt(f)
    return f


def _build_config(tau_strategy, crispify_mode, threshold_spec) -> AnalysisConfig:
    mode, value = _parse_threshold(threshold_spec)
    return AnalysisConfig(
        tau_strategy=tau_strategy,
        crispify_mode=crispify_mode,
        threshold_mode=mode,
        threshold_value=value,
    )


@cli.command()
@click.argument("bundle", type=str)
@_with_analysis_options
@click.option("--out", "out_dir", default=".", show_default=True, help="Output directory.")
def analyze(bundle, tau_strategy, crispify_mode, threshold_spec, out_dir):
    """Run the full analysis and write the report artifact set."""
    config = _build_config(tau_strategy, crispify_mode, threshold_spec)
    rep = report_mod.run_analysis(ingest.parse_study_bundle(Path(bundle).read_bytes()), config)
    out = Path(out_dir)
    _write_file(out / "results.csv", report_mod.render_results_csv(rep))
    _write_file(out / "report.json", report_mod.report_json_chunks(rep))
    _write_file(out / "network.dot", report_mod.render_graph_dot(rep.network))
    for key, value in rep.config.items():
        click.echo(f"{key}: {value}")
    click.echo(f"wrote results.csv, report.json, network.dot to {out}")


@cli.command()
@click.argument("bundle", type=str)
@_with_analysis_options
@click.option("--out", "out_file", default=None, help="Write the DOT file here instead of stdout.")
def graph(bundle, tau_strategy, crispify_mode, threshold_spec, out_file):
    """Extract the thresholded influence network as a DOT graph."""
    config = _build_config(tau_strategy, crispify_mode, threshold_spec)
    rep = report_mod.run_analysis(ingest.parse_study_bundle(Path(bundle).read_bytes()), config)
    dot = report_mod.render_graph_dot(rep.network)
    if out_file:
        _write_file(Path(out_file), dot)
    else:
        click.echo(dot.decode("utf-8"), nl=False)


@cli.command("reproduce-paper")
@_tau_option
@click.option("--out", "out_dir", default=None, help="Directory for the deviation ledger CSV.")
def reproduce_paper(tau_strategy, out_dir):
    """Rerun the shipped reference study and reconcile it against the published tables."""
    bundle = fixtures.load_study_bundle()
    reference = fixtures.load_reference_tables()
    config = AnalysisConfig(tau_strategy=tau_strategy)
    rep = report_mod.run_analysis(bundle, config)
    entries = report_mod.deviation_ledger(rep.analysis, reference)
    rep.deviations = entries
    if out_dir:
        out = Path(out_dir)
        _write_file(out / "deviations.csv", report_mod.render_deviations_csv(entries))
        _write_file(out / "report.json", report_mod.report_json_chunks(rep))
    tables = sorted({e.table for e in entries})
    for table in tables:
        rows = [e for e in entries if e.table == table]
        failed = sum(1 for e in rows if e.status == report_mod.FAIL)
        skipped = sum(1 for e in rows if e.status == report_mod.NOT_COMPARABLE)
        status = "FAIL" if failed else ("NOT-COMPARABLE" if skipped == len(rows) else "PASS")
        click.echo(f"{table}: {status} ({len(rows)} cells, {failed} failed, {skipped} not comparable)")
    click.echo(f"tau strategy: {tau_strategy} (tau = {rep.analysis.tau:.4f})")
    if not report_mod.ledger_passes(entries):
        sys.exit(2)


@cli.command()
@click.option("--criteria", "n_criteria", type=click.IntRange(min=2), required=True)
@click.option("--experts", "n_experts", type=click.IntRange(min=2), required=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--out", "out_file", default=None, help="Write the bundle here instead of stdout.")
def synth(n_criteria, n_experts, seed, out_file):
    """Generate a synthetic random study bundle (raw matrices)."""
    scale = ingest.Scale()
    criteria = [ingest.CriterionMeta(f"C{i + 1}", name=f"Criterion {i + 1}") for i in range(n_criteria)]
    respondents = [ingest.RespondentMeta(f"X{k + 1}") for k in range(n_experts)]
    panel = np.random.default_rng(seed).integers(
        scale.minimum, scale.maximum, size=(n_experts, n_criteria, n_criteria), endpoint=True
    )
    panel[:, range(n_criteria), range(n_criteria)] = 0
    bundle = ingest.StudyBundle(criteria=criteria, respondents=respondents, scale=scale, panel=panel)
    data = ingest.write_bundle(bundle)
    if out_file:
        _write_file(Path(out_file), data)
    else:
        click.echo(data.decode("utf-8"), nl=False)


def main():
    cli(auto_envvar_prefix="RDEMATEL")


if __name__ == "__main__":
    main()
