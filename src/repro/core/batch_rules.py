"""Which cells :class:`~repro.core.batch.BatchCore` can run, decided
without loading it.

The chunk planner (:func:`repro.campaigns.executor.plan_chunks`) asks
these rules for every cell of every run, but most runs batch nothing:
every shipped preset is too narrow to batch under ``auto``.  So the
rules live here, apart from the 1,800 lines of BatchCore and its
kernels, and this module imports neither them nor NumPy.  Only a process
that runs a batch loads :mod:`repro.core.batch`.

:data:`BATCH_ALGORITHMS` must equal the kernels' ``PROGRAMS`` keys;
``tests/core/test_batch_equivalence.py`` pins that.
"""

from __future__ import annotations

import os
from importlib.util import find_spec
from typing import TYPE_CHECKING

from .errors import ConfigurationError
from .sim import MAX_ROUNDS_LIMIT

if TYPE_CHECKING:  # pragma: no cover
    from ..campaigns.spec import CellConfig

#: Whether the batch path is available in this process: NumPy is
#: installed (found, not imported) and ``REPRO_NO_NUMPY`` is not ``1``.
#: Module-level so tests can monkeypatch it; consult
#: :func:`numpy_available` from other modules (it reads this attribute
#: dynamically).
HAVE_NUMPY = (find_spec("numpy") is not None
              and os.environ.get("REPRO_NO_NUMPY", "") != "1")

#: Most cells one lockstep batch holds — also the chunk-size cap
#: :func:`repro.campaigns.executor.default_chunk_size` gives a campaign's
#: batchable cells, which the chunk planner keeps apart from its scalar
#: ones (fill the vector width instead of 25-cell IPC chunks).
BATCH_WIDTH = 256

#: Algorithms with a :class:`~repro.core.batch_kernels.VectorProgram`.
BATCH_ALGORITHMS = frozenset({
    "known-bound", "unconscious", "landmark-chirality",
    "landmark-no-chirality", "start-from-landmark", "pt-bound",
    "pt-landmark", "pt-bound-3", "pt-landmark-3", "et-unconscious",
    "et-exact"})

#: Adversaries whose edge choice is a function of (round, own RNG), plus
#: ``block-agent``, which peeks only at agent 0's intended move.
BATCH_ADVERSARIES = frozenset(
    {"none", "fixed", "periodic", "random", "block-agent"})

#: Transport models with an array form (ET's guarantees live in its
#: scheduler, so its move phase is NS's; PT adds the port ride).
BATCH_TRANSPORTS = frozenset({"ns", "pt", "et"})

#: Schedulers with an array form ("auto" resolves per transport via the
#: registry).
BATCH_SCHEDULERS = frozenset(
    {"auto", "fsync", "round-robin", "random-fair", "et-fair"})

#: Scalar-path minimum ``bound`` per algorithm (ctor-enforced); an
#: explicit smaller bound must fall back so the scalar error reproduces.
_MIN_BOUND = {"known-bound": 3, "pt-bound": 3, "pt-bound-3": 2, "et-exact": 3}


def numpy_available() -> bool:
    """Dynamic read of :data:`HAVE_NUMPY` (monkeypatch-friendly)."""
    return HAVE_NUMPY


def _batch_ineligibility(cell: "CellConfig") -> tuple[str, str] | None:
    """``(key, reason)`` why ``cell`` must run scalar (``None`` = batchable).

    The contract: for an eligible cell, :class:`BatchCore` produces the
    exact :class:`~repro.core.results.RunResult` the scalar engine would.
    Configurations the scalar path *rejects* (bad bound, out-of-range
    fixed edge or landmark, invalid flip vector...) are therefore
    ineligible too, so the fallback path reproduces the identical error
    record.

    ``key`` is a short stable identifier the executor uses to label
    rejection-reason counters (``executor.batch_reject.<key>``);
    ``reason`` is the human message.
    """
    if cell.topology != "ring":
        return "topology", f"topology {cell.topology!r} is not the ring"
    if cell.algorithm not in BATCH_ALGORITHMS:
        return "algorithm", f"algorithm {cell.algorithm!r} has no vectorized kernel"
    if cell.adversary not in BATCH_ADVERSARIES:
        return "adversary", f"adversary {cell.adversary!r} peeks or schedules"
    if cell.faults:
        from ..resilience.faults import FaultPlan

        try:
            FaultPlan.parse(cell.faults).validate_agents(cell.agents)
        except ConfigurationError as exc:
            return ("faults", f"fault plan {cell.faults!r} is invalid "
                              f"(scalar path rejects it): {exc}")
    if cell.transport not in BATCH_TRANSPORTS:
        return "transport", f"transport {cell.transport!r} has no array form"
    if cell.scheduler not in BATCH_SCHEDULERS:
        return ("scheduler",
                f"scheduler {cell.scheduler!r} interleaves with the engine")
    if cell.landmark is not None and not 0 <= cell.landmark < cell.ring_size:
        return ("landmark",
                f"landmark {cell.landmark} outside ring of size "
                f"{cell.ring_size} (scalar path rejects it)")
    if cell.debug_invariants:
        return "debug_invariants", "per-round invariant audit requested"
    if not 0 < cell.max_rounds <= MAX_ROUNDS_LIMIT:
        return ("max_rounds",
                f"max_rounds {cell.max_rounds} outside (0, {MAX_ROUNDS_LIMIT}]")
    min_bound = _MIN_BOUND.get(cell.algorithm)
    if (min_bound is not None and cell.bound is not None
            and cell.bound < min_bound):
        return ("bound",
                f"bound {cell.bound} < {min_bound} (scalar path rejects it)")
    if cell.adversary in ("fixed", "periodic") and not 0 <= cell.edge < cell.ring_size:
        return "edge", f"edge {cell.edge} outside ring of size {cell.ring_size}"
    if cell.chirality and cell.flipped:
        return "chirality", "chirality with flipped agents (scalar path rejects it)"
    if cell.flipped and any(not 0 <= i < cell.agents for i in cell.flipped):
        return "flipped", "flipped index out of range (scalar path rejects it)"
    if cell.placement == "explicit":
        if cell.positions is None:
            return ("placement",
                    "explicit placement without positions (scalar path rejects it)")
    else:
        if cell.positions is not None:
            return "placement", "positions given for a non-explicit placement"
        if cell.placement not in ("spread", "offset-spread", "thirds", "origin"):
            return "placement", f"unknown placement {cell.placement!r}"
    return None


def batch_ineligible_reason(cell: "CellConfig") -> str | None:
    """Human-readable reason ``cell`` must run scalar (``None`` = batchable)."""
    verdict = _batch_ineligibility(cell)
    return None if verdict is None else verdict[1]


def batch_ineligible_key(cell: "CellConfig") -> str | None:
    """Short stable rejection key for metrics (``None`` = batchable)."""
    verdict = _batch_ineligibility(cell)
    return None if verdict is None else verdict[0]


def batch_eligible(cell: "CellConfig") -> bool:
    """Can ``cell`` run on :class:`BatchCore`? (shared routing predicate)"""
    return _batch_ineligibility(cell) is None


def batch_shape(cell: "CellConfig") -> tuple[str, int]:
    """The two axes one :class:`BatchCore` requires uniform: the
    algorithm and the agent count.  Cells of one shape can share a batch."""
    return cell.algorithm, cell.agents


__all__ = [
    "BATCH_ADVERSARIES",
    "BATCH_ALGORITHMS",
    "BATCH_SCHEDULERS",
    "BATCH_TRANSPORTS",
    "BATCH_WIDTH",
    "HAVE_NUMPY",
    "batch_eligible",
    "batch_ineligible_key",
    "batch_ineligible_reason",
    "batch_shape",
    "numpy_available",
]
