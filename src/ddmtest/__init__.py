"""Tests for dependency distance minimization (and its reversal) in the
3- and 4-word sentences of dependency treebanks, built on exact
random-linear-arrangement null models and one-tailed binomial tests."""

from .nullmodels import (
    Direction,
    EnsembleKind,
    EnsembleSpec,
    expected_d_from_distribution,
    expected_d_random_arrangement,
    mixture_probability,
    noncrossing_mixture_probability,
    sample_distance_sums,
    sample_random_arrangement,
)
from .pipeline import (
    LevelCounts,
    LevelSpec,
    LevelSummary,
    Report,
    TestResult,
    analyze_collection,
    emit_report,
    load_families,
    run_tests,
    tally_level,
)
from .stats import (
    AdjustedPValues,
    BinomialTestInput,
    binomial_upper_tail,
    binomial_upper_tail_exact,
    holm_adjust,
    min_sample_size,
)
from .treebank import (
    ExclusionReason,
    ParseError,
    PreprocessConfig,
    RawSentence,
    RawToken,
    Scheme,
    gather_files,
    parse_treebank,
    preprocess,
)
from .trees import (
    DistanceDistribution,
    EnumerationCapError,
    LinearizedTree,
    TreeShape,
    enumerate_arrangements,
)

__version__ = "0.1.0"

__all__ = [
    "AdjustedPValues",
    "BinomialTestInput",
    "Direction",
    "DistanceDistribution",
    "EnsembleKind",
    "EnsembleSpec",
    "EnumerationCapError",
    "ExclusionReason",
    "LevelCounts",
    "LevelSpec",
    "LevelSummary",
    "LinearizedTree",
    "ParseError",
    "PreprocessConfig",
    "RawSentence",
    "RawToken",
    "Report",
    "Scheme",
    "TestResult",
    "TreeShape",
    "analyze_collection",
    "binomial_upper_tail",
    "binomial_upper_tail_exact",
    "emit_report",
    "enumerate_arrangements",
    "expected_d_from_distribution",
    "expected_d_random_arrangement",
    "gather_files",
    "holm_adjust",
    "load_families",
    "min_sample_size",
    "mixture_probability",
    "noncrossing_mixture_probability",
    "parse_treebank",
    "preprocess",
    "run_tests",
    "sample_distance_sums",
    "sample_random_arrangement",
    "tally_level",
]
