"""Robustness as a first-class subsystem, at both layers of the stack.

The paper's guarantees are stated for fault-free agents and the fleet
from the distributed subsystem is SIGKILL-tested — this package covers
everything in between:

* :mod:`~repro.resilience.faults` — agent fault models (crash-at-round,
  crash-on-edge-removal, stochastic crash rate) as an ordinary campaign
  dimension (``CellConfig.faults``), injected by one per-run
  :class:`FaultInjector` that the
  :class:`~repro.core.sim.SimulationCore` round loop and
  :class:`~repro.core.batch.BatchCore` both consult;
* :mod:`~repro.resilience.chaos` — a seeded, env-gated
  (``REPRO_CHAOS=<spec>``) :class:`ChaosPolicy` injecting transient
  ``OperationalError``\\ s, crash-before/after-commit points, heartbeat
  clock skew and delayed completions into the store/queue layer,
  replayable byte-for-byte from its seed;
* :mod:`~repro.resilience.retry` — the one capped-exponential-backoff
  :func:`retry` helper every store/queue transaction routes through;
* :mod:`~repro.resilience.fsck` — store integrity checks behind
  ``campaign fsck`` (torn JSONL tails, orphaned leases, duplicate cell
  keys, chunk/span referential integrity) with quarantine-and-continue.
"""

from .._lazy import lazy_exports

# The one name eager on purpose: ``retry`` is also the name of its
# submodule, and the import system binds a submodule to its package
# attribute when it loads.  A lazy ``retry`` would be shadowed by the
# module as soon as any store imports ``repro.resilience.retry``.
from .retry import retry

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".chaos": (
        "ChaosCrash", "ChaosPolicy", "chaos_policy", "reset_chaos_policy"),
    ".faults": ("FaultInjector", "FaultPlan"),
    ".fsck": ("Finding", "FsckReport", "fsck_store"),
    ".retry": ("retry",),
})
