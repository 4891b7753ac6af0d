"""Rough DEMATEL: group decision analysis with rough-number intervals.

Pairwise influence judgments from multiple experts are aggregated into
rough intervals, closed into a total-relation matrix, and distilled into
prominence/relation scores, criterion weights, cause/effect groups, and a
thresholded influence network.
"""

from .crisp import CrispScores, average_expert_matrices, crisp_scores, normalize_crisp, solve_total_relation
from .ingest import CriterionMeta, RespondentMeta, StudyBundle, parse_expert_csv, parse_study_bundle, write_bundle
from .network import Edge, InfluenceNetwork, crispify_total, extract_network, threshold
from .pipeline import (
    AnalysisResult,
    RoughAnalysis,
    RoughMatrix,
    RoughScores,
    Scale,
    analyze_rough,
    classify,
    crisp_convert,
    normalize_rough,
    prominence_relation,
    rough_group_matrix,
    rough_sums,
    rough_total_relation,
    weights,
)
from .report import AnalysisConfig, AnalysisReport, DeviationEntry, deviation_ledger, run_analysis

__version__ = "0.1.0"
