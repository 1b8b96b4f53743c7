"""Edge adversaries: benign baselines and the paper's proof constructions."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".blocking": ("BlockAgentAdversary", "MeetingPreventionAdversary"),
    ".impossibility": (
        "NSStarvationAdversary", "Theorem19Adversary",
        "theorem10_configuration"),
    ".restricted": ("DeltaRecurrentAdversary", "TIntervalAdversary"),
    ".simple": (
        "FixedMissingEdge", "FunctionAdversary", "NoRemoval",
        "PeriodicMissingEdge", "RandomMissingEdge"),
    ".worst_case": (
        "ETPingPongAdversary", "Figure2Schedule", "ZigZagForcingAdversary"),
})
