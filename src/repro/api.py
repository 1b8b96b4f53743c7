"""High-level facade: build and run an exploration in one call.

Most users want::

    from repro import run_exploration
    from repro.algorithms.fsync import KnownUpperBound

    result = run_exploration(KnownUpperBound(bound=12), ring_size=12,
                             positions=[0, 5], max_rounds=100)
    print(result.summary())

Everything is overridable: adversary, scheduler, transport model,
orientations (chirality), landmark, tracing.  Defaults give the benign
FSYNC setting: no edge ever missing, everyone active, shared orientation.

For *families* of runs there are two campaign entry points built on
:mod:`repro.campaigns`: :func:`run_cell` executes one declarative,
serialisable :class:`~repro.campaigns.spec.CellConfig`, and
:func:`run_campaign` expands a whole sweep spec and executes it in
parallel with resumable JSONL persistence.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .adversary.simple import NoRemoval
from .core.directions import Orientation, orientations_for
from .core.engine import Engine, TransportModel
from .core.interfaces import ActivationScheduler, Algorithm, EdgeAdversary
from .core.results import RunResult
from .core.ring import Ring
from .core.trace import Trace
from .schedulers.fsync import FsyncScheduler


def build_engine(
    algorithm: Algorithm,
    *,
    ring_size: int,
    positions: Sequence[int],
    landmark: int | None = None,
    chirality: bool = True,
    flipped: tuple[int, ...] = (),
    orientations: Sequence[Orientation] | None = None,
    adversary: EdgeAdversary | None = None,
    scheduler: ActivationScheduler | None = None,
    transport: TransportModel = TransportModel.NS,
    trace: Trace | None = None,
    debug_invariants: bool | None = None,
) -> Engine:
    """Assemble an :class:`Engine` with sensible defaults.

    ``chirality``/``flipped`` build the orientation vector unless an
    explicit ``orientations`` sequence is given.  Default adversary is
    :class:`NoRemoval`, default scheduler FSYNC.  ``debug_invariants``
    gates the per-round model audit (``None`` = on under pytest, off
    otherwise).
    """
    ring = Ring(ring_size, landmark=landmark)
    if orientations is None:
        orientations = orientations_for(
            len(positions), chirality=chirality, flipped=flipped
        )
    return Engine(
        ring,
        algorithm,
        positions,
        orientations=orientations,
        scheduler=scheduler if scheduler is not None else FsyncScheduler(),
        adversary=adversary if adversary is not None else NoRemoval(),
        transport=transport,
        trace=trace,
        debug_invariants=debug_invariants,
    )


def run_exploration(
    algorithm: Algorithm,
    *,
    ring_size: int,
    positions: Sequence[int],
    max_rounds: int,
    landmark: int | None = None,
    chirality: bool = True,
    flipped: tuple[int, ...] = (),
    orientations: Sequence[Orientation] | None = None,
    adversary: EdgeAdversary | None = None,
    scheduler: ActivationScheduler | None = None,
    transport: TransportModel = TransportModel.NS,
    trace: Trace | None = None,
    stop_on_exploration: bool = False,
    stop_when: Callable[[Engine], bool] | None = None,
) -> RunResult:
    """Build an engine and run it to completion (see :func:`build_engine`)."""
    engine = build_engine(
        algorithm,
        ring_size=ring_size,
        positions=positions,
        landmark=landmark,
        chirality=chirality,
        flipped=flipped,
        orientations=orientations,
        adversary=adversary,
        scheduler=scheduler,
        transport=transport,
        trace=trace,
    )
    return engine.run(
        max_rounds,
        stop_on_exploration=stop_on_exploration,
        stop_when=stop_when,
    )


def run_cell(cell, *, trace: Trace | None = None) -> RunResult:
    """Run one campaign cell (:class:`~repro.campaigns.spec.CellConfig`).

    The declarative twin of :func:`run_exploration`: the configuration is
    plain data (names into the campaign registry), so it can be hashed,
    stored and shipped across processes.  Works for every topology —
    ring cells and graph cells build on the same unified core and return
    the same :class:`RunResult`.  Imported lazily because
    :mod:`repro.campaigns` itself builds on this module.
    """
    from .campaigns.registry import build_cell_engine

    engine = build_cell_engine(cell, trace=trace)
    return engine.run(cell.max_rounds, stop_on_exploration=cell.stop_on_exploration)


def run_campaign(
    spec,
    store: str | None = None,
    *,
    workers: int | None = None,
    chunk_size: int | None = None,
    retry_failed: bool = False,
    distributed: bool = False,
    lease_ttl_s: float | None = None,
):
    """Expand and execute a campaign spec; returns the executor's report.

    ``spec`` is a :class:`~repro.campaigns.spec.CampaignSpec` or the name
    of a preset (``"smoke"``, ``"table2-fsync"``, …).  ``store`` selects
    where results stream: a backend URI (``"sqlite:results/t2.db"``,
    ``"jsonl:results/t2.jsonl"``), a bare path (JSONL by default), or a
    :class:`~repro.campaigns.stores.ResultStore` instance (default:
    ``results/<name>.jsonl``).  Re-running with the same spec and store
    resumes, skipping completed cells; ``retry_failed=True`` also
    re-drives cells whose only outcome so far is an error record.

    ``distributed=True`` executes through the lease-based work queue of
    :mod:`repro.campaigns.distributed` instead of a multiprocessing
    pool: pending cells are enqueued as claimable chunks in the (SQLite;
    default ``results/<name>.db``) store and ``workers`` local worker
    processes drain them — while any other machine pointed at the same
    store with ``python -m repro campaign worker`` joins the same fleet.
    """
    from .campaigns import executor, presets

    if isinstance(spec, str):
        spec = presets.get_spec(spec)
    if store is None:
        store = (f"results/{spec.name}.db" if distributed
                 else f"results/{spec.name}.jsonl")
    return executor.run_campaign(
        spec, store, workers=workers, chunk_size=chunk_size,
        retry_failed=retry_failed, distributed=distributed,
        lease_ttl_s=lease_ttl_s,
    )
