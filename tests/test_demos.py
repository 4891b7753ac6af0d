"""Every demo script runs to completion and leaves no files behind, and the README's library example runs."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from rdematel.fixtures import _read

ROOT = Path(__file__).resolve().parents[1]
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=ENV, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert not any(tmp_path.iterdir())


def test_crisp_demo_matches_rough_pipeline_on_unanimous_panel(tmp_path):
    # -O strips the demo's own assert, so the printed deviations are what is checked
    demo = ROOT / "demos" / "01_crisp_dematel.py"
    proc = subprocess.run([sys.executable, "-O", str(demo)], cwd=tmp_path, env=ENV, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    found = re.search(r"max \|X - R\| = (\S+), max \|Y - D\| = (\S+)$", proc.stdout, re.MULTILINE)
    assert found, proc.stdout
    assert max(float(v) for v in found.groups()) <= 1e-9


def test_readme_library_example_runs_on_bundled_study(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    code = readme.split("```python\n", 1)[1].split("```", 1)[0]
    (tmp_path / "study.json").write_bytes(_read("fbsc_study.json"))
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=ENV, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
