"""Campaign execution: one claim → run → commit loop for every mode.

:func:`drain` is the only execution loop.  It claims a chunk of cells
from a queue, runs it through :func:`run_chunk`, commits the records
back through the queue, and keeps the progress, span and metrics
accounting.  Two things differ by mode, and both are arguments:

* the **queue** — :class:`LocalQueue`, a list of chunks committed with
  ``store.append_many`` (serial and pool runs, any store backend), or
  the distributed worker's lease-holding view of the SQLite
  :class:`~repro.campaigns.distributed.queue.WorkQueue`;
* the **runner** — :func:`run_inline` runs each chunk in this process,
  :func:`run_pooled` on a ``multiprocessing`` pool.  Pool processes are
  long-lived (no ``maxtasksperchild``), so each pays the import cost once
  and keeps its warm registry state for every chunk it runs.

Chunks reach the store as they complete, so an interrupted campaign
loses at most the chunks in flight; :func:`run_cells` consults
``store.completed_keys()`` first and never re-runs a recorded cell.
The chunking helpers (:func:`default_chunk_size`, :func:`chunk_cells`)
size serial, pool and distributed chunks alike.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable, Sequence

from ..core.batch import (
    batch_eligible,
    batch_ineligible_key,
    batch_ineligible_reason,
    batch_width,
    numpy_available,
    run_batch_cells,
)
from ..core.errors import ConfigurationError
from ..obs import metrics as obs_metrics
from ..obs import spans as obs_spans
from ..obs.logs import get_logger
from .aggregate import metrics_from_result
from .distributed.queue import LeaseLost, has_live_chunks
from .registry import build_cell_engine, validate_cell
from .spec import CampaignSpec, CellConfig
from .stores import ResultStore, open_store

_log = get_logger(__name__)

#: Valid values of the execution-routing switch (CLI ``--batch``).
BATCH_MODES = ("auto", "on", "off")

#: Metric-name prefix of the per-reason batch rejection counters.
BATCH_REJECT_PREFIX = "executor.batch_reject."


def batch_reject_counts(snapshot: dict[str, dict] | None) -> dict[str, int]:
    """Per-reason scalar-fallback counts from a metrics snapshot.

    Collapses the ``executor.batch_reject.<key>`` counters (written by
    :func:`run_chunk` whenever a cell that *could* have batched is routed
    scalar) into ``{reason_key: count}``, ordered most-frequent first so
    a rendered table leads with the dominant reason.  Empty dict when the
    snapshot is ``None`` or holds no rejections.
    """
    rejects: dict[str, int] = {}
    for name, dump in (snapshot or {}).items():
        if not name.startswith(BATCH_REJECT_PREFIX):
            continue
        if dump.get("type") != "counter" or not dump.get("value"):
            continue
        rejects[name[len(BATCH_REJECT_PREFIX):]] = int(dump["value"])
    return dict(sorted(rejects.items(), key=lambda kv: (-kv[1], kv[0])))


def execute_cell(cell: CellConfig) -> dict[str, Any]:
    """Run one cell to completion and package the outcome as a store record.

    Every topology takes the same path: the registry builds a facade over
    the unified :class:`~repro.core.sim.SimulationCore`, which returns a
    full :class:`~repro.core.results.RunResult` — so graph cells report
    the identical metric schema (termination modes included) ring cells
    always had.

    When span tracing is active the cell gets a ``cell`` span
    (route=scalar) and its record carries the ``span_id`` so a store row
    can be traced back to the worker/host/chunk that produced it; with
    tracing off, records are byte-identical to the pre-obs schema.
    """
    rec = obs_spans.recorder()
    if rec is None:
        return _execute_cell(cell)
    with rec.span("cell", cell.algorithm, key=cell.key(),
                  route="scalar") as span:
        record = _execute_cell(cell)
        if "error" in record:
            span.status = "error"
            span.attrs["error"] = record["error"]
        record["span_id"] = span.span_id
    return record


def _execute_cell(cell: CellConfig) -> dict[str, Any]:
    start = time.perf_counter()
    timer = obs_metrics.phase_timer()
    try:
        engine = build_cell_engine(cell)
        if timer is not None:
            engine.set_instrument(timer)
        result = engine.run(
            cell.max_rounds, stop_on_exploration=cell.stop_on_exploration
        )
        if timer is not None:
            timer.flush()
        metrics = metrics_from_result(result)
        record = {
            "key": cell.key(),
            "config": cell.to_dict(),
            "metrics": metrics,
            "elapsed_s": round(time.perf_counter() - start, 6),
        }
    except Exception as exc:  # record the failure as an attempted outcome
        # (resumes skip it unless retry_failed re-drives it explicitly)
        record = {
            "key": cell.key(),
            "config": cell.to_dict(),
            "error": f"{type(exc).__name__}: {exc}",
            "elapsed_s": round(time.perf_counter() - start, 6),
        }
    if obs_metrics.enabled():
        reg = obs_metrics.registry()
        reg.counter("executor.cells").inc()
        reg.counter("executor.cells_scalar").inc()
        if "error" in record:
            reg.counter("executor.cells_failed").inc()
        reg.histogram("executor.cell_s").observe(record["elapsed_s"])
    return record


def _effective_batch(cell: CellConfig, override: str | None) -> str:
    """The routing mode one cell runs under: CLI override beats the cell."""
    if override is not None:
        return override
    return getattr(cell, "batch", "auto")


def _wants_batch(cell: CellConfig, override: str | None) -> bool:
    """True when routing *and* eligibility say this cell may batch."""
    return (_effective_batch(cell, override) != "off"
            and numpy_available()
            and batch_eligible(cell))


def run_chunk(
    cells: Sequence[CellConfig],
    *,
    batch: str | None = None,
    abort: Callable[[], bool] | None = None,
) -> tuple[list[dict[str, Any]], int]:
    """Run one chunk of cells, batching the eligible ones in lockstep.

    The single routing point of every execution mode: eligible cells
    (shared predicate :func:`~repro.core.batch.batch_eligible`, honouring
    the ``batch`` override / per-cell ``batch`` field) run through
    :class:`~repro.core.batch.BatchCore`; the rest fall back to
    :func:`execute_cell` one by one.  Records come back in input order
    with the exact schema the scalar path appends, so stores cannot tell
    the paths apart.  Returns ``(records, batched)`` where ``batched``
    counts cells that actually took the vector path.

    ``abort`` (polled between scalar cells) lets a lease-losing worker
    stop early; already-produced records are returned for the caller to
    discard or keep.

    Observability (all no-ops unless enabled): cell spans nest under the
    caller's open span (the chunk span :func:`drain` emits); routing
    decisions feed the ``executor.*`` counters — per-reason batch
    rejections (``executor.batch_reject.<key>``) and vector-path
    degradations (``executor.degrade_to_scalar``).
    """
    if batch is not None and batch not in BATCH_MODES:
        raise ConfigurationError(
            f"batch must be one of {BATCH_MODES}, got {batch!r}")
    rec = obs_spans.recorder()
    reg = obs_metrics.registry() if obs_metrics.enabled() else None
    records: list[dict[str, Any] | None] = [None] * len(cells)
    eligible = [(i, c) for i, c in enumerate(cells) if _wants_batch(c, batch)]
    if reg is not None:
        reg.counter("executor.chunks").inc()
        reg.histogram("executor.chunk_cells").observe(len(cells))
        for cell in cells:
            if _effective_batch(cell, batch) == "off":
                continue
            if not numpy_available():
                reg.counter("executor.batch_reject.no_numpy").inc()
                continue
            reason_key = batch_ineligible_key(cell)
            if reason_key is not None:
                reg.counter(f"executor.batch_reject.{reason_key}").inc()
    batched = 0
    if eligible:
        start = time.perf_counter()
        try:
            results = run_batch_cells([c for _, c in eligible])
        except Exception:
            # Defensive only: the batch path is differentially proven,
            # but a routing bug must degrade to the scalar path, never
            # lose cells.  (The bench guard catches a silent
            # always-fallback.)
            results = None
            _log.warning(
                "batch path failed for %d cells; degrading to scalar",
                len(eligible), exc_info=True)
            if reg is not None:
                reg.counter("executor.degrade_to_scalar").inc()
        if results is not None:
            per_cell = round((time.perf_counter() - start) / len(eligible), 6)
            for (i, cell), result in zip(eligible, results):
                records[i] = {
                    "key": cell.key(),
                    "config": cell.to_dict(),
                    "metrics": metrics_from_result(result),
                    "elapsed_s": per_cell,
                }
                if rec is not None:
                    records[i]["span_id"] = rec.emit(
                        "cell", cell.algorithm, elapsed_s=per_cell,
                        attrs={"key": cell.key(), "route": "batch"})
            batched = len(eligible)
            if reg is not None:
                reg.counter("executor.cells").inc(batched)
                reg.counter("executor.cells_batched").inc(batched)
    for i, cell in enumerate(cells):
        if records[i] is not None:
            continue
        if abort is not None and abort():
            break
        records[i] = execute_cell(cell)
    return [r for r in records if r is not None], batched


# ---------------------------------------------------------------------------
# runners: where a claimed chunk executes
# ---------------------------------------------------------------------------

def _timed_chunk(cells, batch, span_id, abort=None):
    """``run_chunk`` under the chunk span ``span_id``, plus its wall start
    (epoch seconds) and duration: ``(records, batched, start_s, run_s)``."""
    rec = obs_spans.recorder()
    start_s, t0 = time.time(), time.perf_counter()
    with rec.within(span_id) if rec is not None else nullcontext():
        records, batched = run_chunk(cells, batch=batch, abort=abort)
    return records, batched, start_s, time.perf_counter() - t0


def _run_chunk(task, batch: str | None = None):
    """Pool-worker entry point: run one chunk of serialised cells.

    ``task`` is ``(n, cell_dicts, span_id)``; returns ``(n, records,
    batched, start_s, run_s, metrics_snapshot)``.  The snapshot is a
    per-chunk delta (the child registry is drained after each chunk) so
    the parent can merge pool snapshots without double counting.
    """
    n, payload, span_id = task
    obs_spans.ensure_recorder()  # pool children: env-driven JSONL sink
    outcome = _timed_chunk(
        [CellConfig.from_dict(d) for d in payload], batch, span_id)
    snap: dict | None = None
    if obs_metrics.enabled():
        snap = obs_metrics.snapshot()
        obs_metrics.reset()
    return (n, *outcome, snap)


def run_inline(chunks, *, batch: str | None = None):
    """Runner: execute each claimed chunk here, as it is claimed."""
    for chunk in chunks:
        yield chunk, (*_timed_chunk(chunk.cells, batch, chunk.span_id,
                                    chunk.abort), None)


def run_pooled(chunks, *, workers: int, batch: str | None = None):
    """Runner: every claimed chunk goes to a pool of ``workers`` forked
    processes; outcomes come back in completion order."""
    by_id = {chunk.id: chunk for chunk in chunks}
    tasks = [(n, [c.to_dict() for c in chunk.cells], chunk.span_id)
             for n, chunk in by_id.items()]
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else None)
    with ctx.Pool(processes=workers) as pool:
        for n, *outcome in pool.imap_unordered(
                functools.partial(_run_chunk, batch=batch), tasks):
            yield by_id.pop(n), outcome


# ---------------------------------------------------------------------------
# queues: where chunks come from and where their records go
# ---------------------------------------------------------------------------

@dataclass
class Chunk:
    """One claimed unit of work, as :func:`drain` sees it."""

    id: int
    cells: list[CellConfig]
    #: Queue-specific chunk span attrs (attempt, stolen_from, ...).
    attrs: dict[str, Any] = field(default_factory=dict)
    claim_s: float = 0.0
    #: Claimed cells dropped because the store already holds them.
    skipped: int = 0
    abort: Callable[[], bool] | None = None
    span_id: str | None = None


class LocalQueue:
    """The queue of serial and pool runs: a list of chunks in memory.

    Commits go through ``store.append_many``, so every store backend
    works; nothing is leased, so release is a no-op and an interrupted
    run resumes from the store.  ``records`` keeps what was committed.
    """

    def __init__(self, store: ResultStore,
                 chunks: Iterable[list[CellConfig]]) -> None:
        self.store = store
        self.records: list[dict[str, Any]] = []
        self._chunks = enumerate(chunks)

    def claim(self) -> Chunk | None:
        n, cells = next(self._chunks, (None, None))
        return None if cells is None else Chunk(n, cells)

    def complete(self, chunk: Chunk, records, **telemetry) -> None:
        self.store.append_many(records)
        self.records.extend(records)

    def release(self, chunk: Chunk, *, to_pending: bool = True) -> None:
        pass

    def publish(self, report: "WorkerReport") -> None:
        record = getattr(self.store, "record_metrics_snapshot", None)
        if report.metrics and record is not None:
            record(report.worker_id, report.metrics)


# ---------------------------------------------------------------------------
# the loop
# ---------------------------------------------------------------------------

@dataclass
class WorkerReport:
    """What one :func:`drain` (a run, or one worker's session) did."""

    worker_id: str
    chunks_done: int = 0
    cells_done: int = 0
    cells_failed: int = 0
    cells_skipped: int = 0
    chunks_stolen: int = 0
    leases_lost: int = 0
    cells_batched: int = 0
    elapsed_s: float = 0.0
    #: Merged metrics snapshot (None unless metrics enabled): this
    #: process's registry plus every pool child's per-chunk snapshot.
    metrics: dict[str, dict] | None = field(default=None, repr=False)

    def summary(self) -> str:
        batched = (f" batched={self.cells_batched}"
                   if self.cells_batched else "")
        return (
            f"worker {self.worker_id}: chunks={self.chunks_done} "
            f"cells={self.cells_done} failed={self.cells_failed} "
            f"skipped={self.cells_skipped}{batched} "
            f"stolen={self.chunks_stolen} "
            f"leases-lost={self.leases_lost} in {self.elapsed_s:.1f}s"
        )


def drain(
    queue,
    runner: Callable,
    report: WorkerReport,
    *,
    say: Callable[[str], None] = _log.debug,
    progress: Callable[[int], None] | None = None,
    max_chunks: int | None = None,
) -> WorkerReport:
    """Claim → run → commit until ``queue`` has nothing left to claim.

    ``queue`` hands out :class:`Chunk` objects (``claim()``, ``None``
    when drained), commits their records (``complete``; raising
    :class:`LeaseLost` discards the chunk), takes back held chunks when
    the loop fails (``release``) and persists metrics (``publish``).
    ``runner(chunks)`` yields ``(chunk, (records, batched, start_s,
    run_s, snapshot))`` per chunk: :func:`run_inline` or
    :func:`run_pooled`.  ``max_chunks`` bounds the committed chunks.

    Observability (no-ops unless enabled): the session is one
    ``campaign`` span; each chunk a ``chunk`` span covering claim →
    execute → commit with ``claim_s``/``commit_s`` attrs (what
    ``campaign trace --critical-path`` attributes wall clock to), its
    cells nested inside.  Spans and metrics are published after every
    committed chunk, so ``campaign status`` sees a live fleet.
    """
    campaign = queue.store.campaign or ""
    rec = obs_spans.ensure_recorder(store=queue.store, campaign=campaign,
                                    worker=report.worker_id)
    held: dict[int, Chunk] = {}
    pooled: list[dict] = []
    started = time.perf_counter()

    def claims():
        while max_chunks is None or report.chunks_done < max_chunks:
            chunk = queue.claim()
            if chunk is None:
                return
            chunk.span_id = obs_spans.new_span_id()
            report.chunks_stolen += "stolen_from" in chunk.attrs
            report.cells_skipped += chunk.skipped
            held[chunk.id] = chunk
            yield chunk

    session = (rec.span("campaign", campaign or "campaign",
                        worker_id=report.worker_id)
               if rec is not None else nullcontext())
    try:
        with session:
            for chunk, outcome in runner(claims()):
                records, batched, start_s, run_s, snap = outcome
                pooled.append(snap)
                rate = len(records) / run_s if records and run_s > 0 else None
                attrs = dict(chunk.attrs, chunk_id=chunk.id)
                commit_t0 = time.perf_counter()
                try:
                    queue.complete(chunk, records, batched=batched > 0,
                                   cells_per_s=rate)
                    attrs.update(cells=len(records), batched=batched)
                except LeaseLost as exc:
                    attrs["lease_lost"] = True
                    report.leases_lost += 1
                    say(f"chunk {chunk.id}: {exc}; discarding")
                commit_s = time.perf_counter() - commit_t0
                del held[chunk.id]
                if rec is not None:
                    attrs.update(claim_s=round(chunk.claim_s, 6),
                                 commit_s=round(commit_s, 6))
                    rec.emit("chunk",
                             f"chunk[{len(chunk.cells) + chunk.skipped}]",
                             span_id=chunk.span_id,
                             start_s=start_s - chunk.claim_s,
                             elapsed_s=chunk.claim_s + run_s + commit_s,
                             attrs=attrs)
                if "lease_lost" in attrs:
                    continue
                report.chunks_done += 1
                report.cells_done += len(records)
                report.cells_failed += sum(1 for r in records if "error" in r)
                report.cells_batched += batched
                queue.publish(report)
                obs_spans.flush()
                if progress is not None:
                    progress(report.cells_done)
                say(f"chunk {chunk.id}: done ({len(records)} cells"
                    + (f", {batched} batched" if batched else "")
                    + (f", {rate:.0f} cells/s" if rate else "") + ")")
    except BaseException as exc:
        # Ctrl-C hands held chunks straight back, so a fleet does not
        # wait a lease TTL for them.  Any other failure only stops their
        # heartbeat: the lease ages out and a peer steals the chunk with
        # the attempt counted, so a chunk that keeps failing is parked.
        interrupted = isinstance(exc, (KeyboardInterrupt, SystemExit))
        for chunk in held.values():
            queue.release(chunk, to_pending=interrupted)
            say(f"chunk {chunk.id}: {type(exc).__name__}; "
                + ("released" if interrupted else "left to its lease"))
        raise
    report.elapsed_s = time.perf_counter() - started
    if obs_metrics.enabled():
        report.metrics = obs_metrics.merge_snapshots(
            [obs_metrics.snapshot(), *pooled])
    queue.publish(report)
    obs_spans.flush()
    return report


@dataclass
class CampaignRun:
    """What one :func:`run_cells` invocation did."""

    total: int
    skipped: int
    executed: int
    failed: int
    elapsed_s: float
    workers: int
    #: Cells that took the vectorized BatchCore path (0 on scalar runs).
    batched: int = 0
    records: list[dict[str, Any]] = field(default_factory=list, repr=False)
    #: Merged metrics snapshot (None unless metrics were enabled) — the
    #: run's own registry plus every pool/fleet worker's snapshot.
    metrics: dict[str, dict] | None = field(default=None, repr=False)

    def summary(self) -> str:
        batched = f" batched={self.batched}" if self.batched else ""
        rejects = batch_reject_counts(self.metrics)
        scalar = ""
        if rejects:
            pairs = ",".join(f"{k}={v}" for k, v in rejects.items())
            scalar = f" scalar[{pairs}]"
        return (
            f"cells={self.total} skipped={self.skipped} executed={self.executed} "
            f"failed={self.failed}{batched}{scalar} workers={self.workers} "
            f"in {self.elapsed_s:.1f}s"
        )


def default_chunk_size(
    pending: int, workers: int | None = None, *, batch: bool = False
) -> int:
    """Cells per work unit: ~4 chunks per worker balances scheduling slack
    against IPC, capped at 25 so a straggler chunk never dominates.

    With ``batch=True`` (every pending cell qualifies for the vector
    path) the cap rises to :func:`~repro.core.batch.batch_width` (the
    ``REPRO_BATCH_WIDTH``-overridable vector width) and the target
    becomes one chunk per worker: a batched chunk is a single lockstep
    NumPy run, so wide chunks amortise the per-chunk setup and fill the
    vector width instead of slicing it into 25-cell slivers.

    Shared with the distributed queue (where the eventual fleet size is
    unknown at enqueue time and this host's CPU count stands in — small
    chunks are also what makes lease stealing fine-grained).
    """
    if workers is None:
        workers = multiprocessing.cpu_count()
    if batch:
        return max(1, min(batch_width(), -(-pending // workers)))
    return max(1, min(25, -(-pending // (workers * 4))))


def chunk_cells(items: Sequence[Any], size: int) -> list[list[Any]]:
    """Split a work list into chunks of at most ``size`` items."""
    return [list(items[i:i + size]) for i in range(0, len(items), size)]


def prepare_cells(
    cells: Iterable[CellConfig],
    *,
    debug_invariants: bool | None = None,
    batch: str | None = None,
) -> list[CellConfig]:
    """Apply a run's cell overrides and refuse what cannot run.

    The gate serial, pool and distributed runs all pass before any cell
    is executed or enqueued.  ``debug_invariants`` (``None`` = leave each
    cell's flag alone) is applied here because it is part of the cell
    key.  ``batch="on"`` is refused unless NumPy is importable and every
    cell is batch-eligible.
    """
    cells = list(cells)
    if debug_invariants is not None:
        cells = [replace(c, debug_invariants=debug_invariants) for c in cells]
    if batch is not None and batch not in BATCH_MODES:
        raise ConfigurationError(
            f"batch must be one of {BATCH_MODES}, got {batch!r}")
    if batch == "on":
        if not numpy_available():
            raise ConfigurationError(
                "--batch on requires NumPy, which is not importable here; "
                "use --batch auto for a scalar fallback")
        ineligible = [r for r in map(batch_ineligible_reason, cells)
                      if r is not None]
        if ineligible:
            raise ConfigurationError(
                f"--batch on: {len(ineligible)} cell(s) are not "
                f"batch-eligible (first: {ineligible[0]}); use --batch auto "
                "to run them through the scalar core")
    return cells


def run_cells(
    cells: Iterable[CellConfig],
    store: ResultStore,
    *,
    workers: int | None = None,
    chunk_size: int | None = None,
    progress: Callable[[int, int], None] | None = None,
    debug_invariants: bool | None = None,
    retry_failed: bool = False,
    batch: str | None = None,
) -> CampaignRun:
    """Execute every cell not already attempted; return what happened.

    ``batch`` overrides every cell's own ``batch`` field for this run:
    ``"auto"`` routes eligible cells through the vectorized
    :class:`~repro.core.batch.BatchCore` (scalar fallback otherwise),
    ``"off"`` forces the scalar path, ``"on"`` demands the vector path
    and refuses up front if NumPy is missing or any cell is ineligible.
    Routing never changes store keys or record contents.

    ``workers=None`` uses every CPU; ``workers<=1`` runs the chunks
    in-process (same chunks and records, useful under debuggers and in
    tests).  Either way a :class:`LocalQueue` feeds :func:`drain`, so
    results stream into ``store`` chunk by chunk and re-invoking with the
    same cells resumes where an interrupted run stopped.

    Cells whose only stored outcome is an error record are skipped unless
    ``retry_failed``: re-driving failures is an explicit decision (a fleet
    must not re-execute a deterministically crashing cell forever), made
    per invocation via ``campaign resume --retry-failed``.

    ``debug_invariants`` (``None`` = leave each cell's own flag alone)
    force-overrides the per-round engine audit for every cell of this run;
    campaigns default the audit off, so passing ``True`` is the "paranoid
    sweep" switch (note it changes non-default cells' store keys).
    """
    cells = prepare_cells(cells, debug_invariants=debug_invariants,
                          batch=batch)
    for cell in cells:
        validate_cell(cell)
    start = time.perf_counter()
    skip = set(store.completed_keys())
    if not retry_failed:
        skip |= store.error_keys()
    pending = [c for c in cells if c.key() not in skip]

    if pending and store.supports_leases:
        # Writing past the lease barrier while a fleet drains the same
        # campaign could record a cell twice (a worker's chunk may hold
        # a pending cell this run would also execute).  Refuse loudly.
        if has_live_chunks(store):
            raise ConfigurationError(
                f"campaign {store.campaign or '?'!r} has pending or leased "
                "chunks in its distributed work queue; run "
                "'campaign worker' / '--distributed' to join the fleet "
                "(or let it drain) instead of a pool-mode run that could "
                "record cells twice")

    if workers is None:
        workers = multiprocessing.cpu_count()
    workers = max(1, min(workers, len(pending) or 1))
    if chunk_size is None:
        chunk_size = default_chunk_size(
            len(pending), workers,
            batch=bool(pending) and all(_wants_batch(c, batch)
                                        for c in pending))
    queue = LocalQueue(store, chunk_cells(pending, chunk_size))
    runner = (functools.partial(run_inline, batch=batch) if workers == 1
              else functools.partial(run_pooled, workers=workers,
                                     batch=batch))
    report = drain(
        queue, runner, WorkerReport(worker_id=f"run-{os.getpid()}"),
        progress=(None if progress is None
                  else lambda done: progress(done, len(pending))))
    return CampaignRun(
        total=len(cells),
        skipped=len(cells) - len(pending),
        executed=report.cells_done,
        failed=report.cells_failed,
        elapsed_s=time.perf_counter() - start,
        workers=workers,
        batched=report.cells_batched,
        records=queue.records,
        metrics=report.metrics,
    )


def run_campaign(
    spec: CampaignSpec,
    store: ResultStore | str,
    *,
    workers: int | None = None,
    chunk_size: int | None = None,
    progress: Callable[[int, int], None] | None = None,
    debug_invariants: bool | None = None,
    retry_failed: bool = False,
    distributed: bool = False,
    lease_ttl_s: float | None = None,
    batch: str | None = None,
) -> CampaignRun:
    """Expand a spec and execute it against a store (URI, path or instance).

    Strings go through :func:`~repro.campaigns.stores.open_store`, so
    ``"sqlite:results/t2.db"`` selects the SQLite backend and a plain
    path keeps the JSONL default.

    ``distributed=True`` routes through the lease-based work queue
    (:mod:`repro.campaigns.distributed`): the spec's pending cells are
    enqueued as claimable chunks in the (SQLite) store and ``workers``
    local worker processes drain them — the same queue any number of
    extra hosts can join mid-run with ``python -m repro campaign worker``.
    """
    options = dict(workers=workers, chunk_size=chunk_size, progress=progress,
                   debug_invariants=debug_invariants,
                   retry_failed=retry_failed, batch=batch)
    if not distributed:
        return run_cells(spec.cells(), open_store(store, campaign=spec.name),
                         **options)
    from .distributed.status import run_distributed

    if lease_ttl_s is not None:
        options["lease_ttl_s"] = lease_ttl_s
    return run_distributed(spec, store, **options)
