"""Analysis tooling: safety checks, sweeps, complexity fits, Catch Tree."""

from .checker import check_safety, classify_runs
from .complexity import FitResult, best_fit, fit_model, MODELS
from .catch_log import CatchRecord, log_catches, successor_violations
from .catch_tree import CatchEvent, CatchTree, FORBIDDEN_SEQUENCES
from .model_check import (
    ForcedEdgeAdversary,
    SearchResult,
    effective_edge_choices,
    exhaustive_worst_case,
    verify_theorem3,
    verify_theorem5,
)

__all__ = [
    "CatchEvent",
    "CatchRecord",
    "CatchTree",
    "FORBIDDEN_SEQUENCES",
    "FitResult",
    "ForcedEdgeAdversary",
    "MODELS",
    "SearchResult",
    "best_fit",
    "check_safety",
    "classify_runs",
    "effective_edge_choices",
    "exhaustive_worst_case",
    "fit_model",
    "log_catches",
    "successor_violations",
    "verify_theorem3",
    "verify_theorem5",
]
