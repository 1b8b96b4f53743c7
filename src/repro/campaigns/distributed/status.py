"""Coordinator verbs and live fleet telemetry — all read from the store.

``campaign enqueue`` (:func:`enqueue_campaign`) expands a spec and
persists its pending cells as claimable chunks; ``campaign status``
(:func:`fleet_status` / :func:`render_status`, ``--watch`` via
:func:`watch_status`) renders what the fleet is doing *right now* from
the same tables the workers write — workers alive, chunks
pending/leased/orphaned/done, cells per second, ETA.  Nothing here holds
state: kill the status process, run it on another host, same picture.

:func:`run_distributed` is the single-host convenience path behind
``campaign run --distributed``: enqueue, spawn N local worker processes,
poll progress, and summarise — the UX of ``campaign run``, the machinery
of the fleet.  Multi-host is the same thing minus the spawn: run
``python -m repro campaign worker`` anywhere that can reach the store.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable, Sequence

from ...core.errors import ConfigurationError
from ...obs import metrics as obs_metrics
from ...obs.analyze import straggler_hint
from ..executor import CampaignRun, batch_reject_counts, prepare_cells
from ..spec import CampaignSpec, CellConfig
from ..stores import ResultStore, open_store
from .queue import (
    DEFAULT_LEASE_TTL_S,
    ChunkInfo,
    EnqueueReport,
    QueueCounts,
    WorkQueue,
    WorkerInfo,
)
from .worker import run_worker


def enqueue_campaign(
    spec: CampaignSpec,
    store: ResultStore | str,
    *,
    cells: Sequence[CellConfig] | None = None,
    chunk_size: int | None = None,
    retry_failed: bool = False,
    lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
) -> tuple[WorkQueue, EnqueueReport]:
    """Expand a spec and enqueue its pending cells as claimable chunks."""
    store = open_store(store, campaign=spec.name)
    queue = WorkQueue(store, lease_ttl_s=lease_ttl_s)
    report = queue.enqueue(
        cells if cells is not None else spec.cell_list(),
        chunk_size=chunk_size, retry_failed=retry_failed)
    return queue, report


@dataclass(frozen=True)
class FleetStatus:
    """One snapshot of a campaign's fleet, read entirely from the store."""

    campaign: str
    store_uri: str
    counts: QueueCounts
    workers: tuple[WorkerInfo, ...]
    alive: int
    cells_completed: int     # distinct completed cell keys in the store
    cells_errored: int       # cells whose only outcome is an error record
    rate_cells_per_s: float | None
    eta_s: float | None
    lease_ttl_s: float
    finished: bool
    #: False when no chunk (in any state) exists for the campaign — the
    #: store may hold pool-mode results, or the enqueue hasn't run yet.
    ever_enqueued: bool = True
    #: The most recently retired chunks (batched flag + cells/s each).
    recent_chunks: tuple[ChunkInfo, ...] = ()
    #: Claim-latency summary (count/p50/p90/p99 seconds) merged from the
    #: workers' persisted metrics snapshots; None when no worker ran
    #: with ``--metrics``.
    claim_latency: dict | None = None
    #: Percentiles of per-chunk cells/s over every retired chunk.
    chunk_rate: dict | None = None
    #: Fraction of done cells that took the vector path (None before
    #: any cell is done).
    batch_share: float | None = None
    #: Per-reason scalar-fallback counts (``executor.batch_reject.*``
    #: counters merged across workers), most frequent first; None when
    #: no worker recorded a rejection (or none ran with ``--metrics``).
    batch_rejects: dict[str, int] | None = None
    #: One-line skew hint: the slowest active lease vs the fleet median
    #: chunk time (:func:`repro.obs.analyze.straggler_hint`); None when
    #: nothing is skewed — the quiet common case.
    straggler: str | None = None


def fleet_status(
    store: ResultStore | str,
    *,
    campaign: str | None = None,
    lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
    clock: Callable[[], float] = time.time,
) -> FleetStatus:
    """Read the fleet's current state (workers, chunks, throughput, ETA)."""
    queue = WorkQueue(
        store, campaign=campaign, lease_ttl_s=lease_ttl_s, clock=clock)
    now = clock()
    counts = queue.counts()
    workers = tuple(queue.workers())
    alive = sum(1 for w in workers if now - w.last_seen <= lease_ttl_s)
    rate = queue.completion_rate()
    remaining = counts.cells_remaining
    eta = (remaining / rate) if (rate and remaining) else None
    queue.store.invalidate_caches()
    claim_latency = None
    merged = obs_metrics.merge_snapshots(
        snap for _, _, snap in queue.worker_metrics())
    claim_dump = merged.get("queue.claim_s")
    if claim_dump and claim_dump.get("type") == "histogram" \
            and claim_dump.get("count"):
        claim_latency = obs_metrics.summarize_histogram(claim_dump)
    chunk_rate = _rate_percentiles(queue.chunk_rates())
    batch_share = (counts.cells_batched / counts.cells_done
                   if counts.cells_done else None)
    return FleetStatus(
        campaign=queue.campaign,
        store_uri=queue.store.uri(),
        counts=counts,
        workers=workers,
        alive=alive,
        cells_completed=len(queue.store.completed_keys()),
        cells_errored=len(queue.store.error_keys()),
        rate_cells_per_s=rate,
        eta_s=eta,
        lease_ttl_s=lease_ttl_s,
        finished=queue.finished(),
        ever_enqueued=queue.ever_enqueued(),
        recent_chunks=tuple(queue.recent_chunks()),
        claim_latency=claim_latency,
        chunk_rate=chunk_rate,
        batch_share=batch_share,
        batch_rejects=batch_reject_counts(merged) or None,
        straggler=straggler_hint(
            queue.active_leases(), queue.chunk_seconds(), now=now),
    )


def _rate_percentiles(rates: Sequence[float]) -> dict | None:
    """count/p50/p90/p99 summary of a sorted cells/s list (None if empty)."""
    if not rates:
        return None
    return obs_metrics.summarize_histogram({
        "count": len(rates), "sum": sum(rates),
        "min": rates[0], "max": rates[-1], "sample": list(rates),
    })


def store_metrics(
    store: ResultStore | str, *, campaign: str | None = None
) -> tuple[dict[str, dict], dict]:
    """The ``campaign metrics`` data: (merged snapshot, fleet section).

    The snapshot merges every persisted worker/run snapshot for the
    campaign (counters sum, histogram reservoirs pool); the fleet
    section derives cross-worker stats straight from the queue tables —
    per-chunk cells/s percentiles and the batch share.  Requires a
    store backend with telemetry tables (SQLite).
    """
    store = open_store(store, campaign=campaign)
    snapshots_fn = getattr(store, "metrics_snapshots", None)
    if snapshots_fn is None:
        raise ConfigurationError(
            f"store backend {type(store).__name__} ({store.uri()}) does not "
            "persist metrics snapshots — use a SQLite store "
            "(--store sqlite:PATH)")
    rows = snapshots_fn()
    merged = obs_metrics.merge_snapshots(snap for _, _, snap in rows)
    fleet: dict = {}
    if rows:
        fleet["metrics.snapshots"] = len(rows)
    queue = WorkQueue(store)
    chunk_rate = _rate_percentiles(queue.chunk_rates())
    if chunk_rate is not None:
        fleet["chunk.cells_per_s"] = {
            k: chunk_rate[k] for k in ("count", "p50", "p90", "p99")}
    counts = queue.counts()
    if counts.cells_done:
        fleet["batch.share"] = counts.cells_batched / counts.cells_done
    return merged, fleet


def _age(now: float, then: float) -> str:
    delta = max(0.0, now - then)
    if delta < 120:
        return f"{delta:.1f}s ago"
    return f"{delta / 60:.1f}m ago"


def render_batch_rejects(rejects: dict[str, int] | None) -> list[str]:
    """The per-reason scalar-fallback table of ``campaign status``.

    One line per rejection reason (keys of
    :func:`~repro.campaigns.executor.batch_reject_counts`), so a user
    who expected a vectorized sweep can see *why* cells ran scalar —
    e.g. a peeking adversary or a fault plan.  Empty list when nothing
    was rejected.
    """
    if not rejects:
        return []
    total = sum(rejects.values())
    lines = [f"scalar  : {total} cell routing(s) fell back to the scalar "
             "path, by reason:"]
    width = max(len(key) for key in rejects)
    for key, count in rejects.items():
        lines.append(f"  {key:<{width}}  x{count}")
    return lines


def render_status(status: FleetStatus, *, clock: Callable[[], float] = time.time) -> str:
    """Human-readable fleet telemetry (one call of ``campaign status``)."""
    now = clock()
    c = status.counts
    lines = [
        f"== campaign {status.campaign} — fleet status ({status.store_uri})"
    ]
    orphaned = f" ({c.orphaned} orphaned)" if c.orphaned else ""
    failed = (f" / {c.failed} PARKED ({c.cells_failed} cells; re-enqueue "
              "to retry)" if c.failed else "")
    lines.append(
        f"chunks  : {c.pending} pending / {c.leased} leased{orphaned} / "
        f"{c.done} done{failed}  [{c.chunks_total} total"
        + (f", worst attempt {c.max_attempt}" if c.max_attempt > 1 else "")
        + "]")
    rate = (f"{status.rate_cells_per_s:.1f} cells/s"
            if status.rate_cells_per_s else "rate n/a")
    eta = (f"ETA {status.eta_s:.0f}s" if status.eta_s is not None
           else ("done" if status.finished else "ETA n/a"))
    errored = (f" ({status.cells_errored} errored)"
               if status.cells_errored else "")
    lines.append(
        f"cells   : {status.cells_completed} done / "
        f"{c.cells_remaining} queued{errored}   {rate}   {eta}")
    if status.chunk_rate is not None:
        r = status.chunk_rate
        lines.append(
            f"rates   : chunk cells/s p50={r['p50']:.0f} "
            f"p90={r['p90']:.0f} p99={r['p99']:.0f} "
            f"(over {r['count']} done chunks)")
    if status.claim_latency is not None:
        cl = status.claim_latency
        lines.append(
            f"latency : claim p50={cl['p50'] * 1e3:.1f}ms "
            f"p90={cl['p90'] * 1e3:.1f}ms p99={cl['p99'] * 1e3:.1f}ms "
            f"(n={cl['count']})")
    if c.batched_done:
        share = (f", {status.batch_share:.0%} of done cells"
                 if status.batch_share is not None else "")
        lines.append(
            f"batch   : {c.batched_done}/{c.done} done chunks vectorized "
            f"({c.cells_batched} cells{share})")
    lines.extend(render_batch_rejects(status.batch_rejects))
    if status.straggler is not None:
        lines.append(f"slowest : {status.straggler}")
    for chunk in status.recent_chunks:
        per_s = (f"{chunk.cells_per_s:.0f} cells/s"
                 if chunk.cells_per_s else "rate n/a")
        lines.append(
            f"  chunk {chunk.chunk_id:<6} done {_age(now, chunk.done_at):<11} "
            f"{chunk.n_cells} cells  "
            f"batched={'true ' if chunk.batched else 'false'}  {per_s}")
    gone = len(status.workers) - status.alive
    lines.append(
        f"workers : {status.alive} alive"
        + (f" / {gone} gone" if gone else "")
        + f"  (lease TTL {status.lease_ttl_s:g}s)")
    for w in status.workers:
        liveness = "alive" if now - w.last_seen <= status.lease_ttl_s else "gone "
        span = w.last_seen - w.started_at
        avg = (f"  ~{w.cells_done / span:.0f} cells/s"
               if w.cells_done and span > 0 else "")
        lines.append(
            f"  {liveness}  {w.worker_id:<28} last seen {_age(now, w.last_seen):<11} "
            f"chunks={w.chunks_done} cells={w.cells_done}{avg}")
    if not status.workers:
        lines.append("  (no worker has polled yet)")
    if not status.ever_enqueued:
        lines.append(
            "note    : no chunks have been enqueued for this campaign — "
            "the store may hold pool-mode results, or run "
            "'campaign enqueue' first")
    lines.append(f"finished: {'yes' if status.finished else 'no'}")
    return "\n".join(lines)


def watch_status(
    store: ResultStore | str,
    *,
    campaign: str | None = None,
    lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
    interval_s: float = 2.0,
    out=None,
    max_snapshots: int | None = None,
) -> FleetStatus:
    """Re-render the fleet every ``interval_s`` until the queue finishes.

    Returns the final snapshot; Ctrl-C stops the watch (not the fleet).
    """
    out = out if out is not None else sys.stdout
    snapshots = 0
    while True:
        status = fleet_status(
            store, campaign=campaign, lease_ttl_s=lease_ttl_s)
        print(render_status(status), file=out, flush=True)
        snapshots += 1
        if status.finished:
            return status
        if max_snapshots is not None and snapshots >= max_snapshots:
            return status
        print(file=out)
        time.sleep(interval_s)


# ---------------------------------------------------------------------------
# the single-host distributed path (campaign run --distributed)
# ---------------------------------------------------------------------------

def _local_worker_main(store_uri: str, campaign: str, worker_id: str,
                       lease_ttl_s: float, batch: str | None = None) -> None:
    """Entry point of one spawned local worker process."""
    run_worker(
        store_uri,
        campaign=campaign,
        worker_id=worker_id,
        lease_ttl_s=lease_ttl_s,
        poll_s=0.2,
        batch=batch,
    )


def run_distributed(
    spec: CampaignSpec,
    store: ResultStore | str,
    *,
    workers: int | None = None,
    chunk_size: int | None = None,
    lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
    retry_failed: bool = False,
    debug_invariants: bool | None = None,
    progress: Callable[[int, int], None] | None = None,
    cells: Sequence[CellConfig] | None = None,
    poll_s: float = 0.25,
    batch: str | None = None,
) -> CampaignRun:
    """Enqueue a spec, then drain it with N local worker processes.

    The distributed twin of :func:`~repro.campaigns.executor.run_cells`:
    the same cell gate (:func:`~repro.campaigns.executor.prepare_cells`),
    progress callback and :class:`CampaignRun` summary (with ``records``
    left empty — results live in the store).  Each worker process runs
    the shared execution loop over the queue.  The queue carries the
    real state, so Ctrl-C / crashes resume exactly like a multi-host
    fleet would: re-run with the same spec and store.
    """
    start = time.perf_counter()
    # Overrides apply before enqueue keys the cells: workers execute
    # chunks exactly as enqueued.
    cells = prepare_cells(spec.cell_list() if cells is None else cells,
                          debug_invariants=debug_invariants, batch=batch)
    queue, report = enqueue_campaign(
        spec, store, cells=cells, chunk_size=chunk_size,
        retry_failed=retry_failed, lease_ttl_s=lease_ttl_s)
    store = queue.store
    counts = queue.counts()
    # Clamp to the chunks actually claimable — including leftovers from a
    # crashed or interrupted earlier run, which a resume drains at full
    # width even though it enqueued nothing new.  With none (every cell
    # already recorded) no worker is spawned.
    open_chunks = counts.pending + counts.leased
    if workers is None:
        workers = multiprocessing.cpu_count()
    workers = max(1, min(workers, open_chunks)) if open_chunks else 0
    records_before, errors_before = store.result_counts()
    total = counts.cells_remaining   # includes leftovers being resumed

    def report_progress() -> None:
        if progress is not None and total:
            done_now, _ = store.result_counts()
            progress(min(done_now - records_before, total), total)

    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else None)
    procs = [
        ctx.Process(target=_local_worker_main,
                    args=(store.uri(), queue.campaign,
                          f"local-{i}-{os.getpid()}", lease_ttl_s, batch),
                    daemon=True)
        for i in range(workers)
    ]
    for proc in procs:
        proc.start()
    try:
        while any(p.is_alive() for p in procs) and not queue.finished():
            report_progress()
            time.sleep(poll_s)
    finally:
        for proc in procs:
            proc.join(timeout=max(2 * lease_ttl_s, 10.0))
            if proc.is_alive():  # pragma: no cover - stuck worker backstop
                proc.terminate()
                proc.join()
    report_progress()
    if workers and not queue.finished():
        raise ConfigurationError(
            f"distributed run of {queue.campaign!r} stopped before the queue "
            "drained (all local workers exited); inspect 'campaign status' "
            "and re-run — completed chunks are not lost")
    store.invalidate_caches()
    if queue.counts().failed:
        # Parked chunks are terminal for finished() so a poison chunk
        # cannot hang the fleet — but a "successful" summary must not
        # hide cells that were never run.  (A re-enqueue may already
        # have re-driven them: only cells with no outcome at all count.)
        never_ran = (queue.parked_cell_keys()
                     - store.completed_keys() - store.error_keys())
        if never_ran:
            raise ConfigurationError(
                f"distributed run of {queue.campaign!r} drained, but "
                f"{len(never_ran)} cell(s) sit in chunks parked after "
                "repeatedly killing their workers and were never "
                "executed; inspect 'campaign status', then "
                "'campaign enqueue' to retry them")
    records_after, errors_after = store.result_counts()
    run_metrics = None
    if workers and obs_metrics.enabled():
        # Each worker upserted its cumulative snapshot; the merged view
        # is the whole fleet's counters and pooled histograms.
        run_metrics = obs_metrics.merge_snapshots(
            snap for _, _, snap in queue.worker_metrics())
    return CampaignRun(
        total=report.total,
        # cells found already queued are drained (executed) by this very
        # run's workers, so only done/failed skips count as skipped
        skipped=report.skipped_done + report.skipped_failed,
        executed=records_after - records_before,
        failed=errors_after - errors_before,
        elapsed_s=time.perf_counter() - start,
        workers=workers,
        metrics=run_metrics,
    )
