import errno
import io
import json
import os
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from unittest import mock

from hypothesis import event, given, settings
from hypothesis import strategies as st
import numpy as np

import rdematel
from rdematel import cli, ingest, report as report_mod
from rdematel.cli import main
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


@dataclass
class Result:
    exit_code: int
    output: str  # stdout and stderr as one stream, in the order they were written
    exception: Exception | None = None


def invoke(args) -> Result:
    """Run the CLI in-process on ``args``, capturing what it writes."""
    captured = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", write_through=True)
    exit_code, exception = 0, None
    with redirect_stdout(captured), redirect_stderr(captured):
        try:
            main(args)
        except SystemExit as exc:
            exit_code = exc.code or 0
        except Exception as exc:
            exit_code, exception = 1, exc
    return Result(exit_code, captured.buffer.getvalue().decode("utf-8"), exception)


@pytest.fixture()
def bundle_path(tmp_path):
    p = tmp_path / "study.json"
    p.write_bytes(_read("fbsc_study.json"))
    return str(p)


def raw_bundle_bytes(n=3, m=3):
    """A raw bundle of criteria C0..C{n-1} and m experts, with judgments on 0..4, as its file bytes."""
    panel = np.random.default_rng(0).integers(0, 5, size=(m, n, n))
    panel[:, range(n), range(n)] = 0
    ids = [CriterionMeta(f"C{i}") for i in range(n)]
    return write_bundle(StudyBundle(ids, [RespondentMeta(f"r{k}") for k in range(m)], panel=panel))


class TestValidate:
    def test_valid_bundle(self, bundle_path):
        result = invoke(["validate", bundle_path])
        assert result.exit_code == 0
        assert "OK" in result.output

    def test_invalid_bundle_exits_2_with_diagnostics(self, tmp_path):
        doc = json.loads(_read("fbsc_study.json"))
        doc["criteria"][1]["id"] = "I1"
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        result = invoke(["validate", str(p)])
        assert result.exit_code == 2
        assert "duplicate" in result.output

    def test_out_of_scale_judgment_names_cell(self, tmp_path):
        doc = {
            "scale": {"min": 0, "max": 4},
            "criteria": [{"id": "A"}, {"id": "B"}],
            "respondents": [{"id": "r1"}, {"id": "r2"}],
            "matrices": {"r1": [[0, 5], [1, 0]], "r2": [[0, 1], [1, 0]]},
        }
        p = tmp_path / "scale.json"
        p.write_text(json.dumps(doc))
        result = invoke(["validate", str(p)])
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
    def test_agrees_with_analyze_on_rejected_study(self, tmp_path, doc, error):
        p = tmp_path / "small.json"
        p.write_text(json.dumps(doc))
        for args in (["validate", str(p)], ["analyze", str(p), "--out", str(tmp_path / "o")]):
            result = invoke(args)
            assert result.exit_code == 2
            assert result.output == f"invalid: {error}\n"

    def test_missing_file_exits_3(self):
        result = invoke(["validate", "/nonexistent/bundle.json"])
        assert result.exit_code == 3

    def test_byte_order_mark_dropped(self, tmp_path):
        for name, data in (("study", _read("fbsc_study.json")), ("raw", raw_bundle_bytes())):
            p = tmp_path / f"{name}.json"
            p.write_bytes(b"\xef\xbb\xbf" + data)
            result = invoke(["validate", str(p)])
            assert result.exit_code == 0, result.output
            assert result.output.startswith("OK: ")

    @pytest.mark.parametrize("where", [b'"C1"', b"], ["], ids=["an id", "a grid"])
    def test_invalid_utf8_names_the_byte_position(self, tmp_path, where):
        # a 0xff byte in a criterion id, or inside a grid that the parser reads with numpy
        data = raw_bundle_bytes().replace(where, where[:-1] + b"\xff" + where[-1:], 1)
        p = tmp_path / "latin1.json"
        p.write_bytes(data)
        at = data.index(b"\xff")
        for args in (["validate", str(p)], ["analyze", str(p), "--out", str(tmp_path / "o")]):
            result = invoke(args)
            assert result.exit_code == 2
            assert result.output == ("invalid: not valid UTF-8: 'utf-8' codec can't decode byte 0xff "
                                     f"in position {at}: invalid start byte\n")


class TestAnalyze:
    def test_writes_artifact_set(self, bundle_path, tmp_path):
        out = tmp_path / "out"
        result = invoke(["analyze", bundle_path, "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert (out / "results.csv").exists()
        assert (out / "report.json").exists()
        assert (out / "network.dot").exists()
        assert "tau_strategy: max-total-sum" in result.output

    def test_byte_identical_reruns(self, bundle_path, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert invoke(["analyze", bundle_path, "--out", str(out)]).exit_code == 0
        for name in ("results.csv", "report.json", "network.dot"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_byte_identical_at_one_and_two_blas_threads(self, tmp_path):
        # at n = 200 BLAS may split the closure's matrix products across threads; seed 5's bounds have s < 1, while
        # under max-upper-sum seed 1's upper bound has s >= 1, so its series measures the norm of each power
        for seed, tau in (("5", "max-total-sum"), ("1", "max-upper-sum")):
            bundle = tmp_path / f"synth{seed}.json"
            proc = run_cli(["synth", "--criteria", "200", "--experts", "21", "--seed", seed, "--out", str(bundle)])
            assert proc.returncode == 0, proc.stderr
            outs = []
            for threads in ("1", "2"):
                out = tmp_path / seed / threads
                args = ["analyze", str(bundle), "--tau", tau, "--out", str(out)]
                proc = run_cli(args, env={"OPENBLAS_NUM_THREADS": threads})
                assert proc.returncode == 0, proc.stderr
                outs.append([(out / name).read_bytes() for name in ("results.csv", "report.json", "network.dot")])
            assert outs[0] == outs[1], tau

    @pytest.mark.parametrize("crispify", CRISPIFY_MODES)
    def test_report_json_is_the_rendered_report(self, tmp_path, crispify):
        # analyze writes report.json as it renders; the bytes are those of render_report_json
        bundle = tmp_path / "synth.json"
        assert invoke(["synth", "--criteria", "12", "--experts", "5", "--out", str(bundle)]).exit_code == 0
        out = tmp_path / "out"
        result = invoke(["analyze", str(bundle), "--crispify", crispify, "--out", str(out)])
        assert result.exit_code == 0, result.output
        rep = run_analysis(parse_study_bundle(bundle.read_bytes()), AnalysisConfig(crispify_mode=crispify))
        assert (out / "report.json").read_bytes() == render_report_json(rep)

    def test_report_json_write_peaks_below_one_and_a_half_reports(self, tmp_path, monkeypatch, bundle_path):
        # the analysis of a synth raw study, handed to analyze in place of the small study's
        bundle = tmp_path / "synth.json"
        args = ["synth", "--criteria", "120", "--experts", "6", "--seed", "3", "--out", str(bundle)]
        assert invoke(args).exit_code == 0
        rep = run_analysis(parse_study_bundle(bundle.read_bytes()))
        monkeypatch.setattr(report_mod, "run_analysis", lambda *args: rep)
        args = ["analyze", bundle_path, "--out", str(tmp_path / "out")]
        assert invoke(args).exit_code == 0  # once untraced, so first-call set-up is not counted
        tracemalloc.start()
        try:
            result = invoke(args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.exit_code == 0, result.output
        size = (tmp_path / "out" / "report.json").stat().st_size
        assert size > 10**6
        assert peak < 1.5 * size

    def test_config_flags_respected(self, bundle_path, tmp_path):
        out = tmp_path / "out"
        result = invoke(
            ["analyze", bundle_path, "--tau", "max-upper-sum", "--crispify", "global-crisp",
             "--threshold", "fixed:0.5", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["tau_strategy"] == "max-upper-sum"
        assert report["config"]["crispify_mode"] == "global-crisp"
        assert report["config"]["threshold_value"] == 0.5
        assert report["config"]["threshold_q"] == 0.5

    def test_one_criterion_bundle_rejected(self, tmp_path):
        doc = {
            "criteria": [{"id": "A"}],
            "respondents": [],
            "rough_group": [[[0, 0]]],
        }
        p = tmp_path / "tiny.json"
        p.write_text(json.dumps(doc))
        result = invoke(["analyze", str(p), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2


    def test_unit_radius_closure_exits_2_naming_bound(self, tmp_path):
        # a unanimous all-4 panel: under max-upper-sum every row of D sums to 1, so rho(D) = 1
        grid = [[0 if i == j else 4 for j in range(3)] for i in range(3)]
        doc = {
            "criteria": [{"id": c} for c in "ABC"],
            "respondents": [{"id": "r1"}, {"id": "r2"}],
            "matrices": {"r1": grid, "r2": grid},
        }
        p = tmp_path / "unanimous.json"
        p.write_text(json.dumps(doc))
        result = invoke(["analyze", str(p), "--tau", "max-upper-sum", "--out", str(tmp_path / "o")])
        assert result.exit_code == 2
        assert result.output.startswith("analysis error: lower-bound matrix: ")
        assert "rho(D) = 1" in result.output

    def test_overflowing_tau_exits_2_naming_normalization(self, tmp_path):
        doc = {
            "criteria": [{"id": c} for c in "ABC"],
            "respondents": [],
            "rough_group": [[[0, 0] if i == j else [1e308, 1.7e308] for j in range(3)] for i in range(3)],
        }
        p = tmp_path / "huge.json"
        p.write_text(json.dumps(doc))
        result = invoke(["analyze", str(p), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2
        assert result.output == (
            "analysis error: normalization: tau (max-total-sum) is inf; the rough group's row sums must be finite\n"
        )

    def test_all_zero_rough_group_exits_2_naming_normalization(self, tmp_path):
        doc = {
            "criteria": [{"id": c} for c in "ABC"],
            "respondents": [],
            "rough_group": [[[0, 0]] * 3 for _ in range(3)],
        }
        p = tmp_path / "zero.json"
        p.write_text(json.dumps(doc))
        result = invoke(["analyze", str(p), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2
        assert result.output == "analysis error: normalization: all-zero rough matrix cannot be normalized\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("k, q", [("1e308", "inf"), ("-1e308", "-inf")])
    def test_non_finite_q_exits_2(self, tmp_path, k, q):
        # sigma of T* is about 23 here, so k * sigma overflows
        doc = {
            "criteria": [{"id": c} for c in "ABC"],
            "respondents": [],
            "rough_group": [[[0, 0], [1e-3, 100], [0, 0]], [[1e-3, 99], [0, 0], [0, 0]], [[0, 1], [0, 0], [0, 0]]],
        }
        p = tmp_path / "wide.json"
        p.write_text(json.dumps(doc))
        result = invoke(["analyze", str(p), "--threshold", f"mean-sigma:{k}", "--out", str(tmp_path / "o")])
        assert result.exit_code == 2
        assert result.output == (
            f"analysis error: threshold mean-sigma:{float(k)} gives q = {q}; q must be a finite number\n"
        )
        assert not (tmp_path / "o").exists()

    def test_scale_above_zero_study_via_csv_and_bundle(self, tmp_path):
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
        result = invoke(["analyze", str(p), "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert json.loads((out / "report.json").read_text())["results"][0]["criterion"] == "A"


class TestGraph:
    def test_dot_on_stdout(self, bundle_path):
        result = invoke(["graph", bundle_path])
        assert result.exit_code == 0
        assert result.output.startswith("digraph influence {")

    def test_fixed_threshold_above_max_empties_edges(self, bundle_path):
        result = invoke(["graph", bundle_path, "--threshold", "fixed:99"])
        assert result.exit_code == 0
        assert "->" not in result.output

    def test_out_writes_the_printed_dot(self, bundle_path, tmp_path):
        out = tmp_path / "missing" / "network.dot"
        result = invoke(["graph", bundle_path, "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert result.output == ""
        assert out.read_bytes() == invoke(["graph", bundle_path]).output.encode()

    @pytest.mark.parametrize("spec", ["mean-sigma:abc", "fixed:abc", "fixed:nan", "mean-sigma:inf"])
    def test_malformed_threshold_value_is_a_usage_error(self, bundle_path, spec):
        result = invoke(["graph", bundle_path, "--threshold", spec])
        assert result.exit_code == 2
        assert "threshold spec" in result.output


    @pytest.mark.parametrize("spec", ["fixed", "fixed:"])
    def test_fixed_threshold_without_a_value_is_a_usage_error(self, bundle_path, spec):
        result = invoke(["graph", bundle_path, "--threshold", spec])
        assert result.exit_code == 2
        assert "fixed threshold needs a value, e.g. fixed:0.5" in result.output


class TestReproducePaper:
    def test_default_run_passes(self, tmp_path):
        out = tmp_path / "repro"
        result = invoke(["reproduce-paper", "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert "crisp_x: NOT-COMPARABLE" in result.output
        assert "FAIL" not in result.output.replace("NOT-COMPARABLE", "")
        assert (out / "deviations.csv").exists()

    @pytest.mark.parametrize("tau", TAU_STRATEGIES)
    def test_report_json_is_the_rendered_report(self, tmp_path, tau):
        out = tmp_path / "repro"
        result = invoke(["reproduce-paper", "--tau", tau, "--out", str(out)])
        assert result.exit_code in (0, 2), result.output
        rep = run_analysis(load_study_bundle(), AnalysisConfig(tau_strategy=tau))
        rep.deviations = deviation_ledger(rep.analysis, load_reference_tables())
        assert (out / "report.json").read_bytes() == render_report_json(rep)

    def test_literal_tau_reading_fails(self):
        result = invoke(["reproduce-paper", "--tau", "max-upper-sum"])
        assert result.exit_code == 2
        assert "FAIL" in result.output


class TestSynth:
    def test_round_trips_through_validate_and_analyze(self, tmp_path):
        p = tmp_path / "synth.json"
        result = invoke(["synth", "--criteria", "4", "--experts", "5", "--seed", "7", "--out", str(p)])
        assert result.exit_code == 0
        assert invoke(["validate", str(p)]).exit_code == 0
        out = tmp_path / "out"
        assert invoke(["analyze", str(p), "--out", str(out)]).exit_code == 0

    def test_all_zero_panel_exits_2_naming_seed_and_writes_nothing(self, tmp_path):
        # seed 156 draws every off-diagonal judgment of a 2 x 2, 2-expert panel as 0, which analyze cannot normalize
        p = tmp_path / "out" / "synth.json"
        result = invoke(["synth", "--criteria", "2", "--experts", "2", "--seed", "156", "--out", str(p)])
        assert result.exit_code == 2
        assert result.output == "analysis error: synth: seed 156 draws an all-zero panel, which cannot be normalized\n"
        assert not p.parent.exists()
        assert invoke(["synth", "--criteria", "2", "--experts", "2", "--seed", "156"]).output == result.output

    @pytest.mark.parametrize("flag", ["--criteria", "--experts"])
    def test_count_below_two_rejected(self, flag):
        counts = {"--criteria": "3", "--experts": "3", flag: "1"}
        result = invoke(["synth", *[part for item in counts.items() for part in item]])
        assert result.exit_code == 2
        assert "x>=2" in result.output

    def test_negative_seed_rejected(self):
        result = invoke(["synth", "--criteria", "3", "--experts", "2", "--seed", "-1"])
        assert result.exit_code == 2

    def test_seed_determinism(self):
        r1 = invoke(["synth", "--criteria", "3", "--experts", "2", "--seed", "42"])
        r2 = invoke(["synth", "--criteria", "3", "--experts", "2", "--seed", "42"])
        r3 = invoke(["synth", "--criteria", "3", "--experts", "2", "--seed", "43"])
        assert r1.output == r2.output
        assert r1.output != r3.output

    def test_bundle_file_is_written_as_it_renders(self, tmp_path):
        # the whole text is never held: past the peak that synth's panel and the write-time check set before the
        # first chunk, one grid row at a time adds next to nothing; the joined text would add 1.5 texts
        out = tmp_path / "synth.json"
        args = ["synth", "--criteria", "100", "--experts", "30", "--seed", "3"]
        expected = invoke(args).output.encode()  # once untraced, so first-call set-up is not counted

        def first_chunk_only(path, chunks):
            next(iter(chunks))

        peaks = []
        for write in (first_chunk_only, cli._write_file):
            tracemalloc.start()
            try:
                with mock.patch.object(cli, "_write_file", write):
                    result = invoke([*args, "--out", str(out)])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert result.exit_code == 0, result.output
        assert out.read_bytes() == expected
        assert peaks[1] - peaks[0] < out.stat().st_size / 2

    def test_bundle_on_stdout_is_written_as_it_renders(self):
        writes = []

        class Sink(io.RawIOBase):
            def writable(self):
                return True

            def write(self, data):
                writes.append(bytes(data))
                return len(data)

        args = ["synth", "--criteria", "100", "--experts", "30", "--seed", "3"]
        with redirect_stdout(io.TextIOWrapper(io.BufferedWriter(Sink()), encoding="utf-8")):
            main(args)
        assert b"".join(writes) == invoke(args).output.encode()
        assert max(map(len, writes)) < len(b"".join(writes)) / 50  # the criteria table is the longest

    def test_output_matches_stdlib_encoder(self):
        # the bytes the stdlib's encoder gives for the same document
        result = invoke(["synth", "--criteria", "4", "--experts", "3", "--seed", "5"])
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
        assert result.output == json.dumps(doc, ensure_ascii=False) + "\n"


# a stage each command calls, and the arguments that reach it
STAGES = {
    "validate": (ingest, "parse_study_bundle", ["{bundle}"]),
    "analyze": (report_mod, "render_graph_dot", ["{bundle}", "--out", "{out}"]),
    "graph": (report_mod, "render_graph_dot", ["{bundle}"]),
    "reproduce-paper": (report_mod, "deviation_ledger", ["--out", "{out}"]),
    "synth": (ingest, "bundle_chunks", ["--criteria", "3", "--experts", "2"]),
}


@pytest.mark.parametrize("command", list(STAGES))
@pytest.mark.parametrize(
    "error, exit_code, message",
    [
        (InvalidArgumentError("boom"), 2, "analysis error: boom"),
        (OSError("boom"), 3, "i/o error: boom"),
        (MemoryError("boom"), 2, "out of memory: boom"),
    ],
    ids=["package-error", "os-error", "memory-error"],
)
def test_every_command_maps_a_stage_error_to_its_exit_code(
    monkeypatch, bundle_path, tmp_path, command, error, exit_code, message
):
    module, stage, args = STAGES[command]

    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(module, stage, fail)
    args = [a.format(bundle=bundle_path, out=tmp_path / "out") for a in args]
    result = invoke([command, *args])
    assert result.exit_code == exit_code
    assert result.output == message + "\n"


def test_closed_stdout_exits_1_with_no_output(monkeypatch, bundle_path):
    def closed(*args, **kwargs):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    monkeypatch.setattr(report_mod, "render_graph_dot", closed)
    result = invoke(["graph", bundle_path])
    assert result.exit_code == 1
    assert result.output == ""


def fresh_env(env=None):
    """The environment plus ``env``, with this checkout's package first on PYTHONPATH."""
    src = str(Path(rdematel.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, **(env or {}), "PYTHONPATH": path}


def run_cli(args, env=None, code="import rdematel.cli; rdematel.cli.main()"):
    """Run ``code`` (by default the CLI) in a fresh interpreter on ``args``; the finished process, output as bytes."""
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, env=fresh_env(env))


@pytest.mark.parametrize(
    "args, read",
    [(["graph", "{bundle}"], 0), (["synth", "--criteria", "200", "--experts", "5"], 5)],
    ids=["before-writing", "mid-write"],  # synth's 0.6 MB bundle is far more than a pipe holds
)
def test_real_closed_stdout_exits_1_with_no_output(bundle_path, args, read):
    args = [a.format(bundle=bundle_path) for a in args]
    proc = subprocess.Popen([sys.executable, "-m", "rdematel.cli", *args],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=fresh_env())
    proc.stdout.read(read)
    proc.stdout.close()  # the reader is gone
    _, stderr = proc.communicate(timeout=120)
    assert proc.returncode == 1
    assert stderr == b""


def test_interrupt_in_a_stage_exits_1_with_aborted(bundle_path):
    code = (
        "import rdematel.cli, rdematel.ingest\n"
        "def interrupt(*args):\n    raise KeyboardInterrupt\n"
        "rdematel.ingest.parse_study_bundle = interrupt\n"
        "rdematel.cli.main()"
    )
    proc = run_cli(["validate", bundle_path], code=code)
    assert proc.returncode == 1
    assert proc.stdout == b""
    assert proc.stderr == b"\nAborted!\n"  # no traceback


class TestOutputEncoding:
    """Ids reach stdout and stderr as UTF-8 even when the locale's encoding is ASCII."""

    @pytest.fixture()
    def study(self):
        return json.loads(_read("fbsc_study.json"))

    def test_graph_writes_the_rendered_dot(self, tmp_path, study):
        study["criteria"][0]["id"] = "\u00c4"
        p = tmp_path / "umlaut.json"
        p.write_text(json.dumps(study), encoding="utf-8")
        proc = run_cli(["graph", str(p)], env={"PYTHONIOENCODING": "ascii"})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == report_mod.render_graph_dot(run_analysis(parse_study_bundle(p.read_bytes())).network)
        assert '"\u00c4";'.encode("utf-8") in proc.stdout

    def test_validate_names_the_id_in_utf8(self, tmp_path, study):
        study["criteria"][0]["id"] = study["criteria"][1]["id"] = "\u00c4"
        p = tmp_path / "twice.json"
        p.write_text(json.dumps(study), encoding="utf-8")
        proc = run_cli(["validate", str(p)], env={"PYTHONIOENCODING": "ascii"})
        assert proc.returncode == 2
        assert "invalid: criteria[1]: duplicate id '\u00c4'\n".encode("utf-8") in proc.stderr


# one variable per option, named RDEMATEL_<COMMAND>_<PARAMETER>; each would change or break its command's run
STRAY_VARIABLES = {
    "RDEMATEL_ANALYZE_TAU_STRATEGY": "max-upper-sum",
    "RDEMATEL_ANALYZE_CRISPIFY_MODE": "bogus",
    "RDEMATEL_ANALYZE_THRESHOLD_SPEC": "fixed:0",
    "RDEMATEL_ANALYZE_OUT_DIR": "{elsewhere}",
    "RDEMATEL_GRAPH_TAU_STRATEGY": "max-upper-sum",
    "RDEMATEL_GRAPH_CRISPIFY_MODE": "global-crisp",
    "RDEMATEL_GRAPH_THRESHOLD_SPEC": "fixed:0",
    "RDEMATEL_GRAPH_OUT_FILE": "{elsewhere}/network.dot",
    "RDEMATEL_REPRODUCE_PAPER_TAU_STRATEGY": "max-upper-sum",
    "RDEMATEL_REPRODUCE_PAPER_OUT_DIR": "{elsewhere}",
    "RDEMATEL_SYNTH_N_CRITERIA": "abc",
    "RDEMATEL_SYNTH_N_EXPERTS": "3",
    "RDEMATEL_SYNTH_SEED": "7",
    "RDEMATEL_SYNTH_OUT_FILE": "{elsewhere}/synth.json",
}


@pytest.mark.parametrize("args", [
    ["analyze", "{bundle}", "--out", "{out}"],
    ["graph", "{bundle}"],
    ["reproduce-paper", "--out", "{out}"],
    ["synth", "--criteria", "4", "--experts", "2"],
], ids=lambda args: args[0])
def test_environment_sets_no_option(bundle_path, tmp_path, args):
    """Options come from the command line only: variables named after them change no exit code, output or file."""
    elsewhere = tmp_path / "elsewhere"
    runs = []
    for name, env in [("clean", {}), ("stray", {k: v.format(elsewhere=elsewhere) for k, v in STRAY_VARIABLES.items()})]:
        out = tmp_path / name
        proc = run_cli([a.format(bundle=bundle_path, out=out) for a in args], env=env)
        files = {p.relative_to(out): p.read_bytes() for p in out.rglob("*")} if out.exists() else {}
        runs.append((proc.returncode, proc.stdout.replace(bytes(out), b"<out>"), proc.stderr, files))
    assert runs[0][0] == 0, runs[0][2]
    assert runs[1] == runs[0]
    assert not elsewhere.exists()


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
    result = invoke(args)
    event(f"exit {result.exit_code}")
    assert result.exit_code in (0, 2, 3), (args, result.output, result.exception)


@pytest.mark.parametrize("args, message", [
    (["-h"], "unrecognized arguments: -h"),  # only --help exists
    (["--bogus", "validate", "x"], "unrecognized arguments: --bogus"),
    ([], "the following arguments are required: COMMAND"),
], ids=["unknown-option-alone", "unknown-option-before-command", "no-command"])
def test_usage_error_names_the_fault(args, message):
    result = invoke(args)
    assert result.exit_code == 2
    assert result.output.endswith(f"rdematel: error: {message}\n")


def test_cli_import_loads_no_scipy():
    # nor click: the CLI runs on the standard library's argparse
    code = "import sys, rdematel.cli; print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'click')))"
    proc = run_cli([], code=code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == b"[]"
