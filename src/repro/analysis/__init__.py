"""Experiment drivers: feasibility classification, sweeps, the gap table."""

from .exhaustive import (
    ExhaustiveReport,
    verify_fact_11_impossibility,
    verify_theorem_41,
)
from .feasibility import (
    FeasibilitySummary,
    PairClass,
    classify_all_pairs,
    classify_pair,
    summarize_tree,
)
from .gap import GapRow, format_gap_table, gap_table
from .program_atlas import (
    DEFAULT_ATLAS_GRID,
    ProgramAtlasRow,
    program_atlas_rows,
)
from .tradeoff import TradeoffRow, reps_factor_tradeoff, stress_instances
from .phases import Phase, format_timeline, stage_timeline
from .stats import Series, fit_loglog_slope, geometric_mean, growth_ratios
from .sweep import (
    SweepPoint,
    memory_vs_leaves,
    memory_vs_n_fixed_leaves,
    prime_rounds_vs_path_length,
    success_sweep,
    thm42_size_vs_bits,
)

__all__ = [
    "classify_pair",
    "ExhaustiveReport",
    "verify_theorem_41",
    "verify_fact_11_impossibility",
    "classify_all_pairs",
    "PairClass",
    "FeasibilitySummary",
    "summarize_tree",
    "gap_table",
    "format_gap_table",
    "GapRow",
    "DEFAULT_ATLAS_GRID",
    "ProgramAtlasRow",
    "program_atlas_rows",
    "Series",
    "growth_ratios",
    "fit_loglog_slope",
    "geometric_mean",
    "SweepPoint",
    "memory_vs_n_fixed_leaves",
    "memory_vs_leaves",
    "prime_rounds_vs_path_length",
    "thm42_size_vs_bits",
    "success_sweep",
    "TradeoffRow",
    "reps_factor_tradeoff",
    "stress_instances",
    "Phase",
    "stage_timeline",
    "format_timeline",
]
