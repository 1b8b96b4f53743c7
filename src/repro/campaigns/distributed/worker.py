"""The distributed campaign worker: the shared loop over a lease queue.

``python -m repro campaign worker --store sqlite:PATH --campaign NAME``
runs this.  A worker needs nothing but the store URI and the campaign
tag — the chunks carry fully serialised cells — so scaling a campaign
out is literally "run the same command on more machines".

The loop is :func:`~repro.campaigns.executor.drain`, the same one serial
and pool runs use, with each chunk run inline.  What is distributed
lives in the queue it drains, :class:`LeasedQueue`:

1. ``claim`` takes a chunk from the
   :class:`~repro.campaigns.distributed.queue.WorkQueue` (pending first,
   else steal an orphaned lease), starts a :class:`LeaseKeeper` — a
   daemon thread with its **own** database connection that heartbeats
   the lease every quarter-TTL *while cells compute*, so a single cell
   slower than the TTL cannot get a healthy worker's chunk stolen — and
   drops cells whose key already completed (protects against
   re-enqueues racing a finish);
2. ``complete`` stops the keeper; a lost lease (a heartbeat came back
   ``False``) discards the chunk — the thief records it — otherwise
   records and chunk retirement commit atomically, or
   :class:`~repro.campaigns.distributed.queue.LeaseLost` discards.

A worker keeps polling until the campaign's queue is *finished* (no
pending or leased chunk remains), not merely until it is empty-handed:
while another worker still holds a lease, this one stays around to steal
the chunk should that worker die — the crash-safe resume needs no
coordinator process.  Ctrl-C releases the held chunk back to the pending
pool on the way out, so a graceful shutdown costs the fleet nothing (a
SIGKILL costs at most one lease TTL).
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Callable

from ...obs import metrics as obs_metrics
from .. import executor as executor_module  # noqa: F401  (test hook)
from ..executor import (  # noqa: F401  (run_chunk is re-exported)
    Chunk,
    WorkerReport,
    drain,
    run_chunk,
    run_inline,
)
from ..spec import CellConfig
from ..stores import ResultStore
from .queue import (
    DEFAULT_LEASE_TTL_S,
    DEFAULT_MAX_ATTEMPTS,
    LeaseLost,
    WorkQueue,
    worker_identity,
)


class LeaseKeeper:
    """Heartbeat one claimed chunk from a daemon thread.

    SQLite connections are not shareable across threads, so the keeper
    opens its own :class:`WorkQueue` (hence its own connection) from the
    store's URI.  :attr:`lost` is set the moment a heartbeat reports the
    lease is no longer ours; transient database errors (lock contention)
    are retried on the next beat rather than treated as loss.
    """

    def __init__(self, queue: WorkQueue, chunk_id: int, worker_id: str) -> None:
        self._queue = WorkQueue(
            queue.store.uri(), campaign=queue.campaign or None,
            lease_ttl_s=queue.lease_ttl_s, clock=queue._clock)
        self._chunk_id = chunk_id
        self._worker_id = worker_id
        self._interval = max(queue.lease_ttl_s / 4.0, 0.05)
        self.lost = threading.Event()
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name=f"lease-keeper-{chunk_id}", daemon=True)

    def __enter__(self) -> "LeaseKeeper":
        self._thread.start()
        return self

    def _run(self) -> None:
        try:
            while not self._stop.wait(self._interval):
                try:
                    if not self._queue.heartbeat(
                            self._chunk_id, self._worker_id):
                        self.lost.set()
                        return
                except Exception:  # lock contention etc.: retry next beat
                    continue
        finally:
            # SQLite connections are thread-bound: close where we opened.
            self._queue.store.close()

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()


class LeasedQueue:
    """One worker's view of a :class:`WorkQueue`, as the shared loop
    drains it: claims are leased to ``worker_id`` and heartbeated by a
    :class:`LeaseKeeper` until they are committed or released."""

    def __init__(self, queue: WorkQueue, worker_id: str, *,
                 poll_s: float, say: Callable[[str], None]) -> None:
        self.queue = queue
        self.store = queue.store
        self.worker_id = worker_id
        self._poll_s = poll_s
        self._say = say
        self._keepers: dict[int, LeaseKeeper] = {}

    def claim(self) -> Chunk | None:
        """The next chunk; polls while a peer's lease may still orphan,
        ``None`` once the queue is finished."""
        announced = False
        while True:
            claim_t0 = time.perf_counter()
            claim = self.queue.claim(self.worker_id)
            claim_s = time.perf_counter() - claim_t0
            if claim is not None:
                break
            if self.queue.finished():
                return None
            if not announced and not self.queue.ever_enqueued():
                # Fleet bring-up: workers may start before the enqueue
                # commits.  finished() stays False for a never-enqueued
                # campaign, so we wait here instead of exiting 0 and
                # silently stranding the campaign.
                self._say(f"no chunks enqueued yet for campaign "
                          f"{self.queue.campaign!r}; waiting")
                announced = True
            time.sleep(self._poll_s)
        self._keepers[claim.chunk_id] = LeaseKeeper(
            self.queue, claim.chunk_id, self.worker_id).__enter__()
        attrs: dict = {"attempt": claim.attempt}
        if claim.stolen_from is not None:
            attrs["stolen_from"] = claim.stolen_from
            self._say(f"chunk {claim.chunk_id}: reclaimed from "
                      f"{claim.stolen_from} (attempt {claim.attempt})")
        else:
            self._say(f"chunk {claim.chunk_id}: claimed "
                      f"({len(claim.cells)} cells)")
        if claim.created_at is not None:
            attrs["queue_wait_s"] = round(
                max(0.0, time.time() - claim.created_at), 6)
        # A re-enqueue may race a finishing worker; never re-record a
        # completed cell.  invalidate_caches() makes this one indexed
        # query against the current truth, not a stale snapshot.
        self.store.invalidate_caches()
        done = self.store.completed_keys()
        cells = [CellConfig.from_dict(d) for d in claim.cells]
        todo = [c for c in cells if c.key() not in done]
        return Chunk(claim.chunk_id, todo, attrs, claim_s=claim_s,
                     skipped=len(cells) - len(todo),
                     abort=self._keepers[claim.chunk_id].lost.is_set)

    def complete(self, chunk: Chunk, records, *, batched: bool,
                 cells_per_s: float | None) -> None:
        if self.release(chunk, to_pending=False):
            raise LeaseLost("lease lost mid-chunk")
        self.queue.complete(chunk.id, self.worker_id, records,
                            batched=batched, cells_per_s=cells_per_s)

    def release(self, chunk: Chunk, *, to_pending: bool = True) -> bool:
        """Stop the chunk's heartbeat and, with ``to_pending``, hand the
        chunk back; True when the heartbeat had found the lease lost."""
        keeper = self._keepers.pop(chunk.id, None)
        if keeper is not None:
            keeper.__exit__()
        if to_pending:
            self.queue.release(chunk.id, self.worker_id)
        return keeper is not None and keeper.lost.is_set()

    def publish(self, report: WorkerReport) -> None:
        if obs_metrics.enabled():
            try:
                self.queue.record_worker_metrics(self.worker_id,
                                                 obs_metrics.snapshot())
            except Exception:  # telemetry must never kill the worker
                pass


def run_worker(
    store: ResultStore | str,
    *,
    campaign: str | None = None,
    worker_id: str | None = None,
    lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    poll_s: float = 0.5,
    max_chunks: int | None = None,
    progress: Callable[[str], None] | None = None,
    clock: Callable[[], float] = time.time,
    batch: str | None = None,
) -> WorkerReport:
    """Drain one campaign's work queue until it is finished.

    ``max_chunks`` bounds how many chunks this worker will complete
    (useful in tests and for batch-scheduler time slices); ``progress``
    receives one human-readable line per claimed/completed chunk.

    Workers execute cells *exactly* as enqueued — configuration
    overrides like ``debug_invariants`` change a cell's content-hash
    key, so they are applied at enqueue time (``campaign enqueue
    --debug-invariants`` / ``run_distributed``), never per worker: a
    worker re-keying cells would record them under keys the queue's
    dedupe and the fleet's resume logic cannot see.  ``batch`` is safe
    per worker precisely because it is *not* configuration: routing
    through :class:`~repro.core.batch.BatchCore` changes neither keys
    nor records, so a mixed fleet (some hosts without NumPy) stays
    coherent.
    """
    queue = WorkQueue(
        store, campaign=campaign, lease_ttl_s=lease_ttl_s,
        max_attempts=max_attempts, clock=clock)
    say = progress or (lambda message: None)
    report = WorkerReport(worker_id=worker_id or worker_identity())
    leased = LeasedQueue(queue, report.worker_id, poll_s=poll_s, say=say)
    return drain(leased, functools.partial(run_inline, batch=batch), report,
                 say=say, max_chunks=max_chunks)
