"""Rough DEMATEL: group decision analysis with rough-number intervals.

Pairwise influence judgments from multiple experts are aggregated into
rough intervals, closed into a total-relation matrix, and distilled into
prominence/relation scores, criterion weights, cause/effect groups, and a
thresholded influence network.
"""

from .ingest import parse_study_bundle
from .report import AnalysisConfig, run_analysis

__version__ = "0.1.0"
