"""Analysis tooling: safety checks, sweeps, complexity fits, Catch Tree."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".catch_log": ("CatchRecord", "log_catches", "successor_violations"),
    ".catch_tree": ("CatchEvent", "CatchTree", "FORBIDDEN_SEQUENCES"),
    ".checker": ("check_safety", "classify_runs"),
    ".complexity": ("FitResult", "MODELS", "best_fit", "fit_model"),
    ".model_check": (
        "ForcedEdgeAdversary", "SearchResult", "effective_edge_choices",
        "exhaustive_worst_case", "verify_theorem3", "verify_theorem5"),
})
