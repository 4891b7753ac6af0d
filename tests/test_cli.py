import errno
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

from click.testing import CliRunner
from hypothesis import event, given, settings
from hypothesis import strategies as st
import numpy as np

import rdematel
from rdematel import ingest, report as report_mod
from rdematel.cli import cli
from rdematel.errors import InvalidArgumentError
from rdematel.fixtures import _read, load_reference_tables, load_study_bundle
from rdematel.ingest import (
    CriterionMeta,
    RespondentMeta,
    Scale,
    StudyBundle,
    parse_expert_csv,
    parse_study_bundle,
    write_bundle,
)
from rdematel.network import CRISPIFY_MODES
from rdematel.pipeline import TAU_STRATEGIES
from rdematel.report import AnalysisConfig, deviation_ledger, render_report_json, run_analysis

import pytest


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def bundle_path(tmp_path):
    p = tmp_path / "study.json"
    p.write_bytes(_read("fbsc_study.json"))
    return str(p)


class TestValidate:
    def test_valid_bundle(self, runner, bundle_path):
        result = runner.invoke(cli, ["validate", bundle_path])
        assert result.exit_code == 0
        assert "OK" in result.output

    def test_invalid_bundle_exits_2_with_diagnostics(self, runner, tmp_path):
        doc = json.loads(_read("fbsc_study.json"))
        doc["criteria"][1]["id"] = "I1"
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        result = runner.invoke(cli, ["validate", str(p)])
        assert result.exit_code == 2
        assert "duplicate" in result.output

    def test_out_of_scale_judgment_names_cell(self, runner, tmp_path):
        doc = {
            "scale": {"min": 0, "max": 4},
            "criteria": [{"id": "A"}, {"id": "B"}],
            "respondents": [{"id": "r1"}, {"id": "r2"}],
            "matrices": {"r1": [[0, 5], [1, 0]], "r2": [[0, 1], [1, 0]]},
        }
        p = tmp_path / "scale.json"
        p.write_text(json.dumps(doc))
        result = runner.invoke(cli, ["validate", str(p)])
        assert result.exit_code == 2
        assert "r1" in result.output

    @pytest.mark.parametrize(
        "doc, error",
        [
            (
                {"criteria": [{"id": "A"}, {"id": "B"}], "respondents": [{"id": "r1"}],
                 "matrices": {"r1": [[0, 1], [2, 0]]}},
                "respondents: raw mode needs at least two experts, got 1",
            ),
            (
                {"criteria": [{"id": "A"}], "respondents": [], "rough_group": [[[0, 0]]]},
                "criteria: DEMATEL needs at least two criteria, got 1",
            ),
            (
                {"criteria": [{"id": c} for c in "ABC"], "respondents": [],
                 "rough_group": [[[0, 0], [0.5000000000004, 0.5], [1, 1]],
                                 [[1, 1], [0, 0], [2, 2]],
                                 [[0.5, 0.5], [1, 1], [0, 0]]]},
                "rough_group: entry (0,1) has lower 0.5000000000004 > upper 0.5",
            ),
        ],
        ids=["one-respondent", "one-criterion", "reversed-interval"],
    )
    def test_agrees_with_analyze_on_rejected_study(self, runner, tmp_path, doc, error):
        p = tmp_path / "small.json"
        p.write_text(json.dumps(doc))
        for args in (["validate", str(p)], ["analyze", str(p), "--out", str(tmp_path / "o")]):
            result = runner.invoke(cli, args)
            assert result.exit_code == 2
            assert result.output == f"invalid: {error}\n"

    def test_missing_file_exits_3(self, runner):
        result = runner.invoke(cli, ["validate", "/nonexistent/bundle.json"])
        assert result.exit_code == 3


class TestAnalyze:
    def test_writes_artifact_set(self, runner, bundle_path, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(cli, ["analyze", bundle_path, "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert (out / "results.csv").exists()
        assert (out / "report.json").exists()
        assert (out / "network.dot").exists()
        assert "tau_strategy: max-total-sum" in result.output

    def test_byte_identical_reruns(self, runner, bundle_path, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert runner.invoke(cli, ["analyze", bundle_path, "--out", str(out)]).exit_code == 0
        for name in ("results.csv", "report.json", "network.dot"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    @pytest.mark.parametrize("crispify", CRISPIFY_MODES)
    def test_report_json_is_the_rendered_report(self, runner, tmp_path, crispify):
        # analyze writes report.json as it renders; the bytes are those of render_report_json
        bundle = tmp_path / "synth.json"
        assert runner.invoke(cli, ["synth", "--criteria", "12", "--experts", "5", "--out", str(bundle)]).exit_code == 0
        out = tmp_path / "out"
        result = runner.invoke(cli, ["analyze", str(bundle), "--crispify", crispify, "--out", str(out)])
        assert result.exit_code == 0, result.output
        rep = run_analysis(parse_study_bundle(bundle.read_bytes()), AnalysisConfig(crispify_mode=crispify))
        assert (out / "report.json").read_bytes() == render_report_json(rep)

    def test_report_json_write_peaks_below_one_and_a_half_reports(self, runner, tmp_path, monkeypatch, bundle_path):
        # the analysis of a synth raw study, handed to analyze in place of the small study's
        bundle = tmp_path / "synth.json"
        args = ["synth", "--criteria", "100", "--experts", "6", "--seed", "3", "--out", str(bundle)]
        assert runner.invoke(cli, args).exit_code == 0
        rep = run_analysis(parse_study_bundle(bundle.read_bytes()))
        monkeypatch.setattr(report_mod, "run_analysis", lambda *args: rep)
        args = ["analyze", bundle_path, "--out", str(tmp_path / "out")]
        assert runner.invoke(cli, args).exit_code == 0  # once untraced, so first-call set-up is not counted
        tracemalloc.start()
        try:
            result = runner.invoke(cli, args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.exit_code == 0, result.output
        size = (tmp_path / "out" / "report.json").stat().st_size
        assert size > 10**6
        assert peak < 1.5 * size

    def test_config_flags_respected(self, runner, bundle_path, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(
            cli,
            ["analyze", bundle_path, "--tau", "max-upper-sum", "--crispify", "global-crisp",
             "--threshold", "fixed:0.5", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["tau_strategy"] == "max-upper-sum"
        assert report["config"]["crispify_mode"] == "global-crisp"
        assert report["config"]["threshold_value"] == 0.5
        assert report["config"]["threshold_q"] == 0.5

    def test_env_var_configuration(self, runner, bundle_path, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(
            cli,
            ["analyze", bundle_path, "--out", str(out)],
            env={"RDEMATEL_ANALYZE_TAU_STRATEGY": "max-upper-sum"},
            auto_envvar_prefix="RDEMATEL",
        )
        assert result.exit_code == 0, result.output
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["tau_strategy"] == "max-upper-sum"

    def test_one_criterion_bundle_rejected(self, runner, tmp_path):
        doc = {
            "criteria": [{"id": "A"}],
            "respondents": [],
            "rough_group": [[[0, 0]]],
        }
        p = tmp_path / "tiny.json"
        p.write_text(json.dumps(doc))
        result = runner.invoke(cli, ["analyze", str(p), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2


    def test_unit_radius_closure_exits_2_naming_bound(self, runner, tmp_path):
        # a unanimous all-4 panel: under max-upper-sum every row of D sums to 1, so rho(D) = 1
        grid = [[0 if i == j else 4 for j in range(3)] for i in range(3)]
        doc = {
            "criteria": [{"id": c} for c in "ABC"],
            "respondents": [{"id": "r1"}, {"id": "r2"}],
            "matrices": {"r1": grid, "r2": grid},
        }
        p = tmp_path / "unanimous.json"
        p.write_text(json.dumps(doc))
        result = runner.invoke(cli, ["analyze", str(p), "--tau", "max-upper-sum", "--out", str(tmp_path / "o")])
        assert result.exit_code == 2
        assert result.output.startswith("analysis error: lower-bound matrix: ")
        assert "rho(D) = 1" in result.output

    def test_overflowing_tau_exits_2_naming_normalization(self, runner, tmp_path):
        doc = {
            "criteria": [{"id": c} for c in "ABC"],
            "respondents": [],
            "rough_group": [[[0, 0] if i == j else [1e308, 1.7e308] for j in range(3)] for i in range(3)],
        }
        p = tmp_path / "huge.json"
        p.write_text(json.dumps(doc))
        result = runner.invoke(cli, ["analyze", str(p), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2
        assert result.output == (
            "analysis error: normalization: tau (max-total-sum) is inf; the rough group's row sums must be finite\n"
        )

    @pytest.mark.parametrize("k, q", [("1e308", "inf"), ("-1e308", "-inf")])
    def test_non_finite_q_exits_2(self, runner, tmp_path, k, q):
        # sigma of T* is about 23 here, so k * sigma overflows
        doc = {
            "criteria": [{"id": c} for c in "ABC"],
            "respondents": [],
            "rough_group": [[[0, 0], [1e-3, 100], [0, 0]], [[1e-3, 99], [0, 0], [0, 0]], [[0, 1], [0, 0], [0, 0]]],
        }
        p = tmp_path / "wide.json"
        p.write_text(json.dumps(doc))
        result = runner.invoke(cli, ["analyze", str(p), "--threshold", f"mean-sigma:{k}", "--out", str(tmp_path / "o")])
        assert result.exit_code == 2
        assert result.output == (
            f"analysis error: threshold mean-sigma:{float(k)} gives q = {q}; q must be a finite number\n"
        )
        assert not (tmp_path / "o").exists()

    def test_scale_above_zero_study_via_csv_and_bundle(self, runner, tmp_path):
        scale = Scale(1, 9)
        csvs = [",A,B,C\nA,0,9,1\nB,2,0,5\nC,7,3,0\n", ",A,B,C\nA,0,8,2\nB,1,0,5\nC,9,4,0\n"]
        bundle = StudyBundle(
            criteria=[CriterionMeta(c) for c in "ABC"],
            respondents=[RespondentMeta(f"r{k}") for k in range(len(csvs))],
            scale=scale,
            panel=np.stack([parse_expert_csv(text, scale) for text in csvs]),
        )
        p = tmp_path / "scale19.json"
        p.write_bytes(write_bundle(bundle))
        out = tmp_path / "out"
        result = runner.invoke(cli, ["analyze", str(p), "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert json.loads((out / "report.json").read_text())["results"][0]["criterion"] == "A"


class TestGraph:
    def test_dot_on_stdout(self, runner, bundle_path):
        result = runner.invoke(cli, ["graph", bundle_path])
        assert result.exit_code == 0
        assert result.output.startswith("digraph influence {")

    def test_fixed_threshold_above_max_empties_edges(self, runner, bundle_path):
        result = runner.invoke(cli, ["graph", bundle_path, "--threshold", "fixed:99"])
        assert result.exit_code == 0
        assert "->" not in result.output

    @pytest.mark.parametrize("spec", ["mean-sigma:abc", "fixed:abc", "fixed:nan", "mean-sigma:inf"])
    def test_malformed_threshold_value_is_a_usage_error(self, runner, bundle_path, spec):
        result = runner.invoke(cli, ["graph", bundle_path, "--threshold", spec])
        assert result.exit_code == 2
        assert "threshold spec" in result.output


class TestReproducePaper:
    def test_default_run_passes(self, runner, tmp_path):
        out = tmp_path / "repro"
        result = runner.invoke(cli, ["reproduce-paper", "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert "crisp_x: NOT-COMPARABLE" in result.output
        assert "FAIL" not in result.output.replace("NOT-COMPARABLE", "")
        assert (out / "deviations.csv").exists()

    @pytest.mark.parametrize("tau", TAU_STRATEGIES)
    def test_report_json_is_the_rendered_report(self, runner, tmp_path, tau):
        out = tmp_path / "repro"
        result = runner.invoke(cli, ["reproduce-paper", "--tau", tau, "--out", str(out)])
        assert result.exit_code in (0, 2), result.output
        rep = run_analysis(load_study_bundle(), AnalysisConfig(tau_strategy=tau))
        rep.deviations = deviation_ledger(rep.analysis, load_reference_tables())
        assert (out / "report.json").read_bytes() == render_report_json(rep)

    def test_literal_tau_reading_fails(self, runner):
        result = runner.invoke(cli, ["reproduce-paper", "--tau", "max-upper-sum"])
        assert result.exit_code == 2
        assert "FAIL" in result.output


class TestSynth:
    def test_round_trips_through_validate_and_analyze(self, runner, tmp_path):
        p = tmp_path / "synth.json"
        result = runner.invoke(cli, ["synth", "--criteria", "4", "--experts", "5", "--seed", "7", "--out", str(p)])
        assert result.exit_code == 0
        assert runner.invoke(cli, ["validate", str(p)]).exit_code == 0
        out = tmp_path / "out"
        assert runner.invoke(cli, ["analyze", str(p), "--out", str(out)]).exit_code == 0

    @pytest.mark.parametrize("flag", ["--criteria", "--experts"])
    def test_count_below_two_rejected(self, runner, flag):
        counts = {"--criteria": "3", "--experts": "3", flag: "1"}
        result = runner.invoke(cli, ["synth", *[part for item in counts.items() for part in item]])
        assert result.exit_code == 2
        assert "x>=2" in result.output

    def test_negative_seed_rejected(self, runner):
        result = runner.invoke(cli, ["synth", "--criteria", "3", "--experts", "2", "--seed", "-1"])
        assert result.exit_code == 2

    def test_seed_determinism(self, runner):
        r1 = runner.invoke(cli, ["synth", "--criteria", "3", "--experts", "2", "--seed", "42"])
        r2 = runner.invoke(cli, ["synth", "--criteria", "3", "--experts", "2", "--seed", "42"])
        r3 = runner.invoke(cli, ["synth", "--criteria", "3", "--experts", "2", "--seed", "43"])
        assert r1.output == r2.output
        assert r1.output != r3.output

    def test_output_matches_stdlib_encoder(self, runner):
        # the bytes json.dumps(indent=2) gives for the same document, as synth wrote it before
        # the panel was rendered by joining reprs
        result = runner.invoke(cli, ["synth", "--criteria", "4", "--experts", "3", "--seed", "5"])
        panel = np.random.default_rng(5).integers(0, 4, size=(3, 4, 4), endpoint=True)
        panel[:, range(4), range(4)] = 0
        doc = {
            "scale": {"min": 0, "max": 4},
            "criteria": [
                {"id": f"C{i + 1}", "name": f"Criterion {i + 1}", "category": "custom", "description": ""}
                for i in range(4)
            ],
            "respondents": [{"id": f"X{k + 1}", "role": "practitioner", "description": ""} for k in range(3)],
            "matrices": {f"X{k + 1}": panel[k].tolist() for k in range(3)},
        }
        assert result.exit_code == 0
        assert result.output == json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


# a stage each command calls, and the arguments that reach it
STAGES = {
    "validate": (ingest, "parse_study_bundle", ["{bundle}"]),
    "analyze": (report_mod, "render_graph_dot", ["{bundle}", "--out", "{out}"]),
    "graph": (report_mod, "render_graph_dot", ["{bundle}"]),
    "reproduce-paper": (report_mod, "deviation_ledger", ["--out", "{out}"]),
    "synth": (ingest, "write_bundle", ["--criteria", "3", "--experts", "2"]),
}


@pytest.mark.parametrize("command", list(STAGES))
@pytest.mark.parametrize(
    "error, exit_code, message",
    [(InvalidArgumentError("boom"), 2, "analysis error: boom"), (OSError("boom"), 3, "i/o error: boom")],
    ids=["package-error", "os-error"],
)
def test_every_command_maps_a_stage_error_to_its_exit_code(
    runner, monkeypatch, bundle_path, tmp_path, command, error, exit_code, message
):
    module, stage, args = STAGES[command]

    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(module, stage, fail)
    args = [a.format(bundle=bundle_path, out=tmp_path / "out") for a in args]
    result = runner.invoke(cli, [command, *args])
    assert result.exit_code == exit_code
    assert result.output == message + "\n"



def test_closed_stdout_is_left_to_click(runner, monkeypatch, bundle_path):
    def closed(*args, **kwargs):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    monkeypatch.setattr(report_mod, "render_graph_dot", closed)
    result = runner.invoke(cli, ["graph", bundle_path])
    assert result.exit_code == 1  # click's own exit for a closed stdout
    assert result.output == ""


numbers = st.one_of(st.floats(), st.integers(-10, 10)).map(str)
option_values = {
    "--tau": st.sampled_from(TAU_STRATEGIES) | st.text(max_size=8),
    "--crispify": st.sampled_from(CRISPIFY_MODES) | st.text(max_size=8),
    "--threshold": st.one_of(
        st.tuples(st.sampled_from(["mean-sigma:", "fixed:"]), numbers | st.text(max_size=6)).map("".join),
        st.text(max_size=12),
    ),
}


@settings(max_examples=100, deadline=None)
@given(st.fixed_dictionaries({}, optional=option_values))
def test_analyze_exit_code_is_always_0_2_or_3(tmp_path_factory, options):
    bundle = tmp_path_factory.getbasetemp() / "fbsc_study.json"
    if not bundle.exists():
        bundle.write_bytes(_read("fbsc_study.json"))
    args = ["analyze", str(bundle), "--out", str(tmp_path_factory.mktemp("out"))]
    for flag, value in options.items():
        args += [flag, value]
    result = CliRunner().invoke(cli, args)
    event(f"exit {result.exit_code}")
    assert result.exit_code in (0, 2, 3), (args, result.output, result.exception)


def test_cli_import_loads_no_scipy():
    src = str(Path(rdematel.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, rdematel.cli; print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.strip() == "[]"
