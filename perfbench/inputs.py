"""Workload definitions and the benchmark's own seeded input generator.

Bundles are written here directly with numpy and json, never through
`rdematel synth` or `ingest.write_bundle`, so the inputs do not change when
the program under test changes how it generates or serializes studies.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SCALE_MAX = 4


@dataclass(frozen=True)
class Workload:
    name: str
    n: int  # criteria
    m: int  # experts; 0 for the bundled aggregate-mode study
    crispify: str
    # CLI arguments after `python -m rdematel.cli`; "{bundle}" and "{out}" are filled in per op
    cli_args: tuple[str, ...]

    @property
    def is_paper(self) -> bool:
        return self.m == 0


WORKLOADS = {
    w.name: w
    for w in (
        # The bundled 7-barrier study ships as a published rough group matrix, so
        # aggregation is bypassed and interpreter start plus import dominate.
        Workload("paper-7x21", 7, 0, "midpoint", ("reproduce-paper", "--out", "{out}")),
        # Criterion-heavy study: n^2 cells to aggregate, crispify and render, and
        # 21 grids of 200 x 200 to parse. It also covers the layers an expert-heavy
        # survey (30 criteria by 200 experts) would stress; that workload was left
        # out because its one 12 s op per run moved by up to a third from run to
        # run on a shared 2-vCPU host.
        Workload(
            "criteria-200x21",
            200,
            21,
            "global-crisp",
            ("analyze", "{bundle}", "--crispify", "global-crisp", "--out", "{out}"),
        ),
    )
}


def raw_bundle(n: int, m: int, seed: int) -> bytes:
    """A raw-mode bundle: m experts' n x n integer grids in 0..4 with a zero diagonal."""
    rng = np.random.default_rng(seed)
    grids = rng.integers(0, SCALE_MAX + 1, size=(m, n, n))
    diag = np.arange(n)
    grids[:, diag, diag] = 0
    doc = {
        "scale": {"min": 0, "max": SCALE_MAX},
        "criteria": [{"id": f"C{i + 1}", "name": f"Criterion {i + 1}"} for i in range(n)],
        "respondents": [{"id": f"X{k + 1}"} for k in range(m)],
        "matrices": {f"X{k + 1}": grids[k].tolist() for k in range(m)},
    }
    return (json.dumps(doc) + "\n").encode("utf-8")


def workload_input(w: Workload, seed: int, src: Path) -> bytes:
    """The bundle bytes one op of workload `w` parses; the paper study ignores the seed."""
    if w.is_paper:
        return (src / "rdematel" / "fixtures" / "fbsc_study.json").read_bytes()
    return raw_bundle(w.n, w.m, seed)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
