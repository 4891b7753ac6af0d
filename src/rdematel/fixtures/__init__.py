"""Bundled reference study: seven blockchain-adoption barriers scored by 21 experts.

The study ships in aggregate mode (the published rough group matrix) because
only one of the 21 raw expert matrices was ever published; that single matrix
is available separately as a CSV.
"""

from __future__ import annotations

import json
from importlib import resources

from ..ingest import StudyBundle, parse_study_bundle


def _read(name: str) -> bytes:
    return resources.files(__package__).joinpath(name).read_bytes()


def load_study_bundle() -> StudyBundle:
    """The reference study in aggregate (rough-group-matrix) mode."""
    return parse_study_bundle(_read("fbsc_study.json"))


def load_reference_tables() -> dict:
    """Published intermediate and final tables used by the reproduction harness."""
    return json.loads(_read("reference_tables.json"))
