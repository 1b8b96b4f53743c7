"""The paper's theory surface: closed-form bounds and the feasibility map."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".bounds": (
        "fsync_known_bound_time", "fsync_lower_bound_two_agents",
        "no_chirality_timeout", "partial_termination_lower_bound",
        "pt_bound_moves_lower", "pt_landmark_moves_lower"),
    ".tables": (
        "TABLE_ROWS", "Knowledge", "Model", "ResultKind", "TableRow",
        "Termination", "lookup"),
})
