"""Experiment harness: trials, exact oracle, statistics, export."""

from .oracle import OracleResult, exact_small_oracle
from .stats import (
    ChiSquareReport,
    MeanReport,
    chi2_sf,
    chi_square_test,
    mean_ci,
    normal_sf,
    paired_one_sided_p,
)
from .trials import (
    DominanceReport,
    PROP_HAM,
    PROP_MIN_DEGREE,
    PROP_PM,
    PROPERTIES,
    TrajectoryReport,
    TrialResult,
    TrialSpec,
    TrialSummary,
    dominance_experiment,
    run_trials,
    trajectory_check,
)
from .export import (
    summary_to_json,
    tables_to_csv,
    tables_to_json,
    write_text,
)

__all__ = [
    "OracleResult",
    "exact_small_oracle",
    "ChiSquareReport",
    "MeanReport",
    "chi2_sf",
    "chi_square_test",
    "mean_ci",
    "normal_sf",
    "paired_one_sided_p",
    "DominanceReport",
    "PROP_HAM",
    "PROP_MIN_DEGREE",
    "PROP_PM",
    "PROPERTIES",
    "TrajectoryReport",
    "TrialResult",
    "TrialSpec",
    "TrialSummary",
    "dominance_experiment",
    "run_trials",
    "trajectory_check",
    "summary_to_json",
    "tables_to_csv",
    "tables_to_json",
    "write_text",
]
