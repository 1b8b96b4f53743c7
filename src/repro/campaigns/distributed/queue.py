"""The lease-based work queue: the SQLite store *is* the coordinator.

A campaign becomes claimable work in three tables next to ``results``
(schema in :mod:`repro.campaigns.stores.sqlite`):

* ``chunks`` — the unit of claimable work (an ordered JSON array of cell
  dicts), moving ``pending -> leased -> done``;
* ``leases`` — at most one row per leased chunk: the holding worker, its
  last heartbeat, and the attempt count;
* ``workers`` — telemetry: one row per worker that ever polled.

There is **no coordinator process**.  Every transition is one SQLite
``BEGIN IMMEDIATE`` transaction, so any number of workers on any number
of hosts pointed at the same database serialise on the write lock:

* :meth:`WorkQueue.claim` atomically turns one pending chunk into a
  lease (or *steals* a leased chunk whose heartbeat is older than the
  lease TTL — the crash-recovery path);
* :meth:`WorkQueue.heartbeat` refreshes the lease mid-chunk and reports
  whether it is still held (a ``False`` means the chunk was stolen and
  the worker must discard its partial work);
* :meth:`WorkQueue.complete` appends the chunk's result records **and**
  retires the chunk in the same transaction — so results are recorded
  exactly once even when a slow worker and the thief that stole its
  chunk both finish: whoever commits first wins, the loser gets
  :class:`LeaseLost` and discards.

Idempotence comes from the content-hashed cell keys: enqueueing skips
cells already completed in the store (and cells already sitting in a
live chunk), so ``enqueue`` after a crash re-queues exactly the missing
work.
"""

from __future__ import annotations

import json
import os
import socket
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from ...core.errors import ConfigurationError
from ...obs import metrics as obs_metrics
from ...resilience.chaos import chaos_policy
from ...resilience.retry import retry
from ..registry import validate_cell
from ..spec import CellConfig
from ..stores import ResultStore, open_store
from ..stores.base import SCHEMA_VERSION
from ..stores.sqlite import INSERT_RESULT_SQL, result_rows

#: Default lease time-to-live: a lease whose heartbeat is older than this
#: is considered orphaned and may be stolen.  Workers heartbeat at a
#: quarter of the TTL, so one missed beat never costs a healthy worker
#: its lease.
DEFAULT_LEASE_TTL_S = 30.0

#: Claim attempts after which a chunk is *parked* (state ``failed``)
#: instead of stolen again.  A chunk whose cells kill the worker process
#: outright (OOM, segfault — no Python exception, so no error record)
#: would otherwise be re-stolen forever, killing every worker that
#: touches it and never letting the campaign finish.  Parked chunks are
#: terminal for :meth:`WorkQueue.finished`, show up in ``campaign
#: status``, and their cells become enqueueable again by a fresh
#: ``campaign enqueue``.
DEFAULT_MAX_ATTEMPTS = 5


class LeaseLost(RuntimeError):
    """The lease was stolen (or released) out from under the worker."""


def has_live_chunks(store) -> bool:
    """Are pending/leased chunks registered for this store's campaign?

    Cheap probe used by the pool executor: writing results past the
    lease barrier (plain ``append_many``) while a fleet is draining the
    same campaign could record a cell twice, so ``run_cells`` refuses
    when this is true.
    """
    if not getattr(store, "supports_leases", False) or not store.exists():
        return False
    (live,) = store.connection().execute(
        "SELECT COUNT(*) FROM chunks WHERE campaign_key = ? "
        "AND state IN ('pending', 'leased')",
        (store.campaign or "",)).fetchone()
    return live > 0


def worker_identity(suffix: str | None = None) -> str:
    """A fleet-unique worker id: ``host-pid`` (plus an optional suffix)."""
    base = f"{socket.gethostname()}-{os.getpid()}"
    return f"{base}-{suffix}" if suffix else base


@dataclass(frozen=True)
class Claim:
    """One successfully claimed chunk of work."""

    chunk_id: int
    cells: tuple[dict[str, Any], ...]
    attempt: int
    stolen_from: str | None = None
    #: When the chunk was enqueued — lets the worker stamp the chunk
    #: span's ``queue_wait_s`` (time spent claimable before this claim).
    created_at: float | None = None


@dataclass(frozen=True)
class EnqueueReport:
    """What one :meth:`WorkQueue.enqueue` call did."""

    total: int
    enqueued_cells: int
    chunks: int
    chunk_size: int
    skipped_done: int
    skipped_failed: int
    skipped_queued: int

    def summary(self) -> str:
        return (
            f"cells={self.total} enqueued={self.enqueued_cells} "
            f"(chunks={self.chunks} x <= {self.chunk_size}) "
            f"skipped: done={self.skipped_done} failed={self.skipped_failed} "
            f"queued={self.skipped_queued}"
        )


@dataclass(frozen=True)
class QueueCounts:
    """Chunk/cell totals for one campaign's queue (a status snapshot)."""

    pending: int
    leased: int
    orphaned: int
    done: int
    cells_pending: int
    cells_leased: int
    cells_done: int
    max_attempt: int
    failed: int = 0          # chunks parked after exhausting max_attempts
    cells_failed: int = 0    # cells inside parked chunks
    batched_done: int = 0    # done chunks that ran through BatchCore
    cells_batched: int = 0   # cells inside those batched chunks

    @property
    def chunks_total(self) -> int:
        return self.pending + self.leased + self.done + self.failed

    @property
    def cells_remaining(self) -> int:
        return self.cells_pending + self.cells_leased


@dataclass(frozen=True)
class WorkerInfo:
    """One worker row: identity, liveness and completion counters."""

    worker_id: str
    host: str
    pid: int
    started_at: float
    last_seen: float
    cells_done: int
    chunks_done: int


@dataclass(frozen=True)
class ChunkInfo:
    """Telemetry of one retired chunk (``campaign status`` per-chunk rows)."""

    chunk_id: int
    n_cells: int
    done_at: float
    batched: bool
    cells_per_s: float | None


@dataclass(frozen=True)
class LeaseInfo:
    """One currently-held lease (``status`` straggler detection rows)."""

    chunk_id: int
    worker_id: str
    acquired_at: float
    heartbeat: float
    attempt: int
    n_cells: int


class WorkQueue:
    """Atomic claim/lease semantics over one campaign in a SQLite store."""

    def __init__(
        self,
        store: ResultStore | str,
        *,
        campaign: str | None = None,
        lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        clock: Callable[[], float] = time.time,
    ) -> None:
        store = open_store(store, campaign=campaign)
        if not store.supports_leases:
            raise ConfigurationError(
                f"store backend {type(store).__name__} ({store.uri()}) cannot "
                "host a distributed work queue: lease claims need atomic "
                "multi-writer transactions — use a SQLite store "
                "(--store sqlite:PATH)")
        if lease_ttl_s <= 0:
            raise ConfigurationError(f"lease_ttl_s must be > 0, got {lease_ttl_s}")
        if max_attempts < 1:
            raise ConfigurationError(f"max_attempts must be >= 1, got {max_attempts}")
        self.store = store
        self.campaign = store.campaign or ""
        self.lease_ttl_s = float(lease_ttl_s)
        self.max_attempts = int(max_attempts)
        chaos = chaos_policy()
        if chaos is not None and clock is time.time:
            # Chaos clock skew applies only to the real wall clock: the
            # lease keeper re-opens a queue passing this queue's (already
            # skewed) clock through, and test harnesses inject FakeClocks
            # — neither must be skewed twice.
            clock = chaos.skewed(clock)
        self._clock = clock
        self._last_idle_touch = float("-inf")

    # -- transaction plumbing ------------------------------------------

    def _begin(self):
        """Open an IMMEDIATE transaction (writers serialise here).

        With metrics on, the time spent waiting for the write lock is
        recorded (``queue.lock_wait_s``) — the first signal that a fleet
        has outgrown one SQLite writer.
        """
        conn = self.store.connection()
        if obs_metrics.enabled():
            t0 = time.perf_counter()
            conn.execute("BEGIN IMMEDIATE")
            obs_metrics.registry().histogram("queue.lock_wait_s").observe(
                time.perf_counter() - t0)
        else:
            conn.execute("BEGIN IMMEDIATE")
        return conn

    def _txn(self, site: str, body):
        """Run ``body(conn)`` inside one retried IMMEDIATE transaction.

        Every queue write routes through here: one BEGIN IMMEDIATE, the
        body, one COMMIT — rolled back on any failure — the whole
        attempt wrapped in :func:`~repro.resilience.retry.retry`, so
        transient ``SQLITE_BUSY`` contention backs off and retries
        uniformly instead of each site improvising.  A body is re-run
        from scratch on retry and must be idempotent up to its own reads
        (they all are: each re-checks state inside the fresh
        transaction).  Non-transient errors — :class:`LeaseLost`,
        :class:`~repro.resilience.chaos.ChaosCrash` — propagate
        immediately.
        """
        def attempt():
            conn = self._begin()
            try:
                out = body(conn)
                conn.execute("COMMIT")
                return out
            except BaseException:
                if conn.in_transaction:
                    conn.execute("ROLLBACK")
                raise

        return retry(attempt, site=site)

    # -- enqueue -------------------------------------------------------

    def enqueue(
        self,
        cells: Iterable[CellConfig],
        *,
        chunk_size: int | None = None,
        retry_failed: bool = False,
    ) -> EnqueueReport:
        """Persist the pending cells of a campaign as claimable chunks.

        Cells whose key is already completed in the store are skipped;
        cells whose only outcome is an error record are skipped too
        unless ``retry_failed`` (the fleet twin of
        ``campaign resume --retry-failed``).  Cells already sitting in a
        pending or leased chunk are never double-queued — the scan and
        the inserts share one transaction, so concurrent enqueues
        serialise instead of racing each other into duplicates.
        """
        from ..executor import _wants_batch, default_chunk_size

        cells = list(cells)
        for cell in cells:
            validate_cell(cell)
        keyed = [(cell.key(), cell) for cell in cells]
        done = self.store.completed_keys()
        errored = set() if retry_failed else self.store.error_keys()
        skipped_done = sum(1 for key, _ in keyed if key in done)
        skipped_failed = sum(
            1 for key, _ in keyed if key not in done and key in errored)
        # Dedupe within the batch too (two spec variants can collapse to
        # identical cells): the first occurrence wins, the rest count as
        # already queued.
        seen: set[str] = set()
        duplicates = 0
        runnable = []
        for key, cell in keyed:
            if key in done or key in errored:
                continue
            if key in seen:
                duplicates += 1
                continue
            seen.add(key)
            runnable.append((key, cell))
        if chunk_size is None:
            # Chunks sized to fill the vector width when every runnable
            # cell qualifies for the batch path (wide chunks are what
            # makes one lease one lockstep NumPy run).
            batchable = bool(runnable) and all(
                _wants_batch(cell, None) for _, cell in runnable)
            chunk_size = default_chunk_size(len(runnable), batch=batchable)
        elif chunk_size < 1:
            raise ConfigurationError(
                f"chunk_size must be >= 1, got {chunk_size}")
        now = self._clock()
        # Serialise payloads before taking the write lock; the only work
        # inside the transaction is the indexed dedupe scan (reading the
        # precomputed cell_keys column — no JSON cell parsing, no
        # re-hashing) and the inserts, so fleet heartbeats/claims queued
        # behind a large enqueue wait microseconds, not a key-hash pass.
        prepared = []
        for start in range(0, len(runnable), chunk_size):
            batch = runnable[start:start + chunk_size]
            prepared.append((
                [key for key, _ in batch],
                json.dumps([cell.to_dict() for _, cell in batch],
                           sort_keys=True, separators=(",", ":")),
            ))
        by_key = dict(runnable)   # built outside the write lock

        def body(conn):
            queued = self._chunk_keys(conn, "pending", "leased")
            fresh = 0
            rows = []
            for keys, payload in prepared:
                kept = [k for k in keys if k not in queued]
                if len(kept) != len(keys):
                    # Rare overlap with a concurrent enqueue: rebuild the
                    # chunk from the surviving cells only.
                    payload = json.dumps(
                        [by_key[k].to_dict() for k in kept],
                        sort_keys=True, separators=(",", ":"))
                    keys = kept
                if not keys:
                    continue
                fresh += len(keys)
                rows.append((
                    self.campaign, payload,
                    json.dumps(keys, separators=(",", ":")),
                    len(keys), now,
                ))
            conn.executemany(
                "INSERT INTO chunks (campaign_key, cells, cell_keys, "
                "n_cells, created_at) VALUES (?, ?, ?, ?, ?)", rows)
            return fresh, len(rows)

        fresh_count, chunk_count = self._txn("queue.enqueue", body)
        return EnqueueReport(
            total=len(cells),
            enqueued_cells=fresh_count,
            chunks=chunk_count,
            chunk_size=chunk_size,
            skipped_done=skipped_done,
            skipped_failed=skipped_failed,
            skipped_queued=len(runnable) - fresh_count + duplicates,
        )

    def _chunk_keys(self, conn, *states: str) -> set[str]:
        """Cell keys inside this campaign's chunks in any of ``states``."""
        keys: set[str] = set()
        marks = ", ".join("?" * len(states))
        for (keys_json,) in conn.execute(
            "SELECT cell_keys FROM chunks "
            f"WHERE campaign_key = ? AND state IN ({marks})",
            (self.campaign, *states),
        ):
            keys.update(json.loads(keys_json))
        return keys

    def queued_cell_keys(self) -> set[str]:
        """Cell keys currently pending or leased (enqueue's dedupe set).

        ``failed`` (parked) chunks are excluded on purpose: a fresh
        ``campaign enqueue`` is the operator's way of giving poison
        chunks' cells a new attempt cycle.
        """
        return self._chunk_keys(self.store.connection(), "pending", "leased")

    # -- claim / heartbeat / complete ----------------------------------

    def claim(self, worker_id: str) -> Claim | None:
        """Atomically claim one chunk: pending first, else steal an
        orphaned lease (heartbeat older than the TTL).  ``None`` when
        nothing is claimable right now.

        Empty-handed polls are cheap on purpose: a read-only probe runs
        first, and the write transaction (plus the worker-liveness
        upsert, rate-limited to once per quarter-TTL) is only taken when
        there is something to claim — N idle workers polling one
        straggler's lease must not serialise on the write lock.  The
        probe is racy by design: work appearing after it is simply
        picked up on the next poll.
        """
        now = self._clock()
        reg = obs_metrics.registry() if obs_metrics.enabled() else None
        t0 = time.perf_counter()
        read = self.store.connection()
        claimable = read.execute(
            "SELECT 1 FROM chunks WHERE campaign_key = ? "
            "AND state = 'pending' LIMIT 1", (self.campaign,)).fetchone()
        if claimable is None:
            claimable = read.execute(
                "SELECT 1 FROM chunks c JOIN leases l ON l.chunk_id = c.id "
                "WHERE c.campaign_key = ? AND c.state = 'leased' "
                "AND l.heartbeat < ? LIMIT 1",
                (self.campaign, now - self.lease_ttl_s)).fetchone()
        if claimable is None:
            if now - self._last_idle_touch >= self.lease_ttl_s / 4.0:
                self._txn(
                    "queue.claim",
                    lambda conn: self._touch_worker(conn, worker_id, now))
                self._last_idle_touch = now
            if reg is not None:
                reg.counter("queue.idle_polls").inc()
            return None

        def body(conn):
            self._touch_worker(conn, worker_id, now)
            row = conn.execute(
                "SELECT id, cells, created_at FROM chunks "
                "WHERE campaign_key = ? AND state = 'pending' "
                "ORDER BY id LIMIT 1", (self.campaign,),
            ).fetchone()
            if row is not None:
                chunk_id, payload, created_at = row
                conn.execute(
                    "UPDATE chunks SET state = 'leased' WHERE id = ?",
                    (chunk_id,))
                conn.execute(
                    "INSERT INTO leases (chunk_id, worker_id, heartbeat, "
                    "acquired_at, attempt) VALUES (?, ?, ?, ?, 1)",
                    (chunk_id, worker_id, now, now))
                return chunk_id, payload, 1, None, created_at
            while True:
                row = conn.execute(
                    "SELECT c.id, c.cells, l.worker_id, l.attempt, "
                    "c.created_at "
                    "FROM chunks c JOIN leases l ON l.chunk_id = c.id "
                    "WHERE c.campaign_key = ? AND c.state = 'leased' "
                    "AND l.heartbeat < ? ORDER BY l.heartbeat LIMIT 1",
                    (self.campaign, now - self.lease_ttl_s),
                ).fetchone()
                if row is None:
                    return None
                chunk_id, payload, stolen_from, previous, created_at = row
                if previous >= self.max_attempts:
                    # A chunk that has burned through its attempts is
                    # poison (its cells likely kill the worker process
                    # outright): park it instead of feeding it to yet
                    # another worker, and keep looking for real work.
                    conn.execute(
                        "UPDATE chunks SET state = 'failed', "
                        "done_at = ? WHERE id = ?", (now, chunk_id))
                    conn.execute(
                        "DELETE FROM leases WHERE chunk_id = ?",
                        (chunk_id,))
                    if reg is not None:
                        reg.counter("queue.parked").inc()
                    continue
                attempt = previous + 1
                conn.execute(
                    "UPDATE leases SET worker_id = ?, heartbeat = ?, "
                    "acquired_at = ?, attempt = ? WHERE chunk_id = ?",
                    (worker_id, now, now, attempt, chunk_id))
                return chunk_id, payload, attempt, stolen_from, created_at

        claimed = self._txn("queue.claim", body)
        if claimed is None:
            if reg is not None:
                reg.counter("queue.idle_polls").inc()
            return None
        chunk_id, payload, attempt, stolen_from, created_at = claimed
        self._last_idle_touch = now  # the claim transaction touched us
        if reg is not None:
            reg.counter("queue.claims").inc()
            if stolen_from is not None:
                reg.counter("queue.steals").inc()
            reg.histogram("queue.claim_s").observe(time.perf_counter() - t0)
        return Claim(
            chunk_id=chunk_id,
            cells=tuple(json.loads(payload)),
            attempt=attempt,
            stolen_from=stolen_from,
            created_at=created_at,
        )

    def heartbeat(self, chunk_id: int, worker_id: str) -> bool:
        """Refresh a held lease; ``False`` means it is no longer ours."""
        now = self._clock()

        def body(conn):
            cursor = conn.execute(
                "UPDATE leases SET heartbeat = ? "
                "WHERE chunk_id = ? AND worker_id = ?",
                (now, chunk_id, worker_id))
            self._touch_worker(conn, worker_id, now)
            return cursor.rowcount == 1

        held = self._txn("queue.heartbeat", body)
        if obs_metrics.enabled():
            reg = obs_metrics.registry()
            reg.counter("queue.heartbeats").inc()
            if not held:
                reg.counter("queue.heartbeat_lost").inc()
        return held

    def complete(
        self, chunk_id: int, worker_id: str,
        records: Sequence[dict[str, Any]],
        *,
        batched: bool = False,
        cells_per_s: float | None = None,
    ) -> None:
        """Append the chunk's records and retire it — one transaction.

        This is the exactly-once-recording barrier: if the lease was
        stolen while the worker computed, :class:`LeaseLost` is raised
        and *nothing* is written — the thief's eventual ``complete``
        records the chunk instead.

        ``batched``/``cells_per_s`` are pure telemetry stamped onto the
        retired chunk row (``campaign status`` shows them); they never
        touch the result records themselves.
        """
        now = self._clock()
        stamped = [dict(r, schema=SCHEMA_VERSION) for r in records]
        rows = result_rows(stamped, self.campaign)
        chaos = chaos_policy()
        if chaos is not None:
            chaos.maybe_delay()

        def body(conn):
            holder = conn.execute(
                "SELECT worker_id FROM leases WHERE chunk_id = ?",
                (chunk_id,)).fetchone()
            if holder is None or holder[0] != worker_id:
                conn.execute("ROLLBACK")
                if obs_metrics.enabled():
                    obs_metrics.registry().counter("queue.lease_lost").inc()
                raise LeaseLost(
                    f"chunk {chunk_id} is no longer leased to {worker_id} "
                    f"(holder: {holder[0] if holder else 'nobody'})")
            conn.executemany(INSERT_RESULT_SQL, rows)
            conn.execute(
                "UPDATE chunks SET state = 'done', done_at = ?, "
                "batched = ?, cells_per_s = ? WHERE id = ?",
                (now, 1 if batched else 0, cells_per_s, chunk_id))
            conn.execute("DELETE FROM leases WHERE chunk_id = ?", (chunk_id,))
            conn.execute(
                "UPDATE workers SET cells_done = cells_done + ?, "
                "chunks_done = chunks_done + 1, last_seen = ? "
                "WHERE worker_id = ?",
                (len(rows), now, worker_id))
            if chaos is not None:
                # Dies holding the lease, records rolled back: the chunk
                # orphans and a peer steals it after the TTL.
                chaos.crash_point("before-commit")

        self._txn("queue.complete", body)
        if chaos is not None:
            # Dies with the records durably committed and the lease gone:
            # the exactly-once barrier already did its job.
            chaos.crash_point("after-commit")
        self.store.invalidate_caches()
        if obs_metrics.enabled():
            reg = obs_metrics.registry()
            reg.counter("queue.completes").inc()
            reg.counter("queue.cells_completed").inc(len(rows))

    def release(self, chunk_id: int, worker_id: str) -> bool:
        """Hand a held chunk back to the pending pool (graceful shutdown)."""
        def body(conn):
            cursor = conn.execute(
                "DELETE FROM leases WHERE chunk_id = ? AND worker_id = ?",
                (chunk_id, worker_id))
            if cursor.rowcount == 1:
                conn.execute(
                    "UPDATE chunks SET state = 'pending' WHERE id = ?",
                    (chunk_id,))
            return cursor.rowcount == 1

        return self._txn("queue.release", body)

    # -- telemetry -----------------------------------------------------

    def finished(self) -> bool:
        """Chunks were enqueued and none is still pending or leased.

        A campaign with *no* chunks at all is **not** finished: workers
        started before the enqueue commits (fleet bring-up scripts do
        this) must wait for work to appear, not exit 0 and silently
        strand the campaign.  Parked (``failed``) chunks are terminal —
        a poison chunk must not hang the fleet forever; ``campaign
        status`` surfaces them.
        """
        row = self.store.connection().execute(
            "SELECT COUNT(*), "
            "COALESCE(SUM(state IN ('pending', 'leased')), 0) FROM chunks "
            "WHERE campaign_key = ?",
            (self.campaign,)).fetchone()
        total, open_chunks = int(row[0]), int(row[1])
        return total > 0 and open_chunks == 0

    def parked_cell_keys(self) -> set[str]:
        """Cell keys inside parked (``failed``) chunks of this campaign.

        A parked cell is not necessarily lost: a later enqueue may have
        re-queued it (parked chunks are excluded from the dedupe scan)
        and a worker may have completed or errored it since — compare
        against the store's completed/error keys to find the cells that
        truly never ran.
        """
        return self._chunk_keys(self.store.connection(), "failed")

    def ever_enqueued(self) -> bool:
        """Has any chunk (in any state) ever existed for this campaign?"""
        (total,) = self.store.connection().execute(
            "SELECT COUNT(*) FROM chunks WHERE campaign_key = ?",
            (self.campaign,)).fetchone()
        return total > 0

    def counts(self) -> QueueCounts:
        """Chunk/cell totals plus orphan detection (one aggregate query)."""
        now = self._clock()
        conn = self.store.connection()
        by_state = {
            state: (chunks, cells)
            for state, chunks, cells in conn.execute(
                "SELECT state, COUNT(*), COALESCE(SUM(n_cells), 0) "
                "FROM chunks WHERE campaign_key = ? GROUP BY state",
                (self.campaign,))
        }
        (orphaned,) = conn.execute(
            "SELECT COUNT(*) FROM chunks c JOIN leases l ON l.chunk_id = c.id "
            "WHERE c.campaign_key = ? AND c.state = 'leased' "
            "AND l.heartbeat < ?",
            (self.campaign, now - self.lease_ttl_s)).fetchone()
        (max_attempt,) = conn.execute(
            "SELECT COALESCE(MAX(l.attempt), 0) FROM leases l "
            "JOIN chunks c ON c.id = l.chunk_id WHERE c.campaign_key = ?",
            (self.campaign,)).fetchone()
        batched_done, cells_batched = conn.execute(
            "SELECT COUNT(*), COALESCE(SUM(n_cells), 0) FROM chunks "
            "WHERE campaign_key = ? AND state = 'done' AND batched = 1",
            (self.campaign,)).fetchone()
        pending = by_state.get("pending", (0, 0))
        leased = by_state.get("leased", (0, 0))
        done = by_state.get("done", (0, 0))
        failed = by_state.get("failed", (0, 0))
        return QueueCounts(
            pending=pending[0], leased=leased[0], orphaned=orphaned,
            done=done[0],
            cells_pending=pending[1], cells_leased=leased[1],
            cells_done=done[1], max_attempt=max_attempt,
            failed=failed[0], cells_failed=failed[1],
            batched_done=batched_done, cells_batched=cells_batched,
        )

    def workers(self) -> list[WorkerInfo]:
        """Every worker that ever polled this campaign, newest beat first."""
        return [
            WorkerInfo(*row)
            for row in self.store.connection().execute(
                "SELECT worker_id, host, pid, started_at, last_seen, "
                "cells_done, chunks_done FROM workers "
                "WHERE campaign_key = ? ORDER BY last_seen DESC, worker_id",
                (self.campaign,))
        ]

    def recent_chunks(self, limit: int = 5) -> list[ChunkInfo]:
        """The most recently retired chunks, newest first (status rows)."""
        return [
            ChunkInfo(chunk_id=row[0], n_cells=row[1], done_at=row[2],
                      batched=bool(row[3]), cells_per_s=row[4])
            for row in self.store.connection().execute(
                "SELECT id, n_cells, done_at, batched, cells_per_s "
                "FROM chunks WHERE campaign_key = ? AND state = 'done' "
                "ORDER BY done_at DESC, id DESC LIMIT ?",
                (self.campaign, limit))
        ]

    def active_leases(self) -> list[LeaseInfo]:
        """Every currently-held lease, oldest acquisition first.

        The live half of straggler detection: a lease whose age dwarfs
        the fleet's median chunk time (:meth:`chunk_seconds`) is either
        a skewed chunk or a dying worker — ``campaign status`` renders
        the hint via :func:`repro.obs.analyze.straggler_hint`.
        """
        return [
            LeaseInfo(chunk_id=row[0], worker_id=row[1], acquired_at=row[2],
                      heartbeat=row[3], attempt=row[4], n_cells=row[5])
            for row in self.store.connection().execute(
                "SELECT l.chunk_id, l.worker_id, l.acquired_at, "
                "l.heartbeat, l.attempt, c.n_cells "
                "FROM leases l JOIN chunks c ON c.id = l.chunk_id "
                "WHERE c.campaign_key = ? AND c.state = 'leased' "
                "ORDER BY l.acquired_at, l.chunk_id",
                (self.campaign,))
        ]

    def chunk_seconds(self) -> list[float]:
        """Estimated wall seconds of every retired chunk (sorted).

        Derived from the per-chunk telemetry the completion transaction
        stamps (``n_cells / cells_per_s``) — the fleet-median baseline
        the straggler hint compares active lease ages against.
        """
        return sorted(
            n_cells / rate
            for n_cells, rate in self.store.connection().execute(
                "SELECT n_cells, cells_per_s FROM chunks "
                "WHERE campaign_key = ? AND state = 'done' "
                "AND cells_per_s IS NOT NULL AND cells_per_s > 0 "
                "AND n_cells > 0",
                (self.campaign,))
        )

    def completion_rate(self, window_s: float = 60.0) -> float | None:
        """Fleet-wide cells/second over the trailing window (None if idle)."""
        now = self._clock()
        (cells,) = self.store.connection().execute(
            "SELECT COALESCE(SUM(n_cells), 0) FROM chunks "
            "WHERE campaign_key = ? AND state = 'done' AND done_at >= ?",
            (self.campaign, now - window_s)).fetchone()
        if not cells:
            return None
        return cells / window_s

    def chunk_rates(self) -> list[float]:
        """Per-chunk ``cells_per_s`` of every retired chunk (sorted).

        The raw distribution behind the ``status``/``campaign metrics``
        cells/s percentiles — per chunk, not per worker, so a straggler
        chunk is visible even on a healthy fleet.
        """
        return sorted(
            rate for (rate,) in self.store.connection().execute(
                "SELECT cells_per_s FROM chunks WHERE campaign_key = ? "
                "AND state = 'done' AND cells_per_s IS NOT NULL",
                (self.campaign,))
        )

    def record_worker_metrics(
        self, worker_id: str, snapshot: dict[str, Any]
    ) -> None:
        """Persist one worker's metrics snapshot (upsert; telemetry only)."""
        self.store.record_metrics_snapshot(worker_id, snapshot)

    def worker_metrics(self) -> list[tuple[str, float, dict[str, Any]]]:
        """Every persisted worker snapshot for this campaign."""
        return self.store.metrics_snapshots()

    def _touch_worker(self, conn, worker_id: str, now: float) -> None:
        # On conflict, refresh identity as well as liveness: a reused
        # worker_id (restarted process, or the same id polling a
        # different campaign in a shared database) must show up in the
        # campaign it is polling *now*.
        conn.execute(
            "INSERT INTO workers (worker_id, campaign_key, host, pid, "
            "started_at, last_seen) VALUES (?, ?, ?, ?, ?, ?) "
            "ON CONFLICT(worker_id) DO UPDATE SET "
            "last_seen = excluded.last_seen, "
            "campaign_key = excluded.campaign_key, "
            "host = excluded.host, pid = excluded.pid",
            (worker_id, self.campaign, socket.gethostname(), os.getpid(),
             now, now))

    def __repr__(self) -> str:
        return (f"WorkQueue({self.store.uri()!r}, campaign={self.campaign!r}, "
                f"lease_ttl_s={self.lease_ttl_s})")
