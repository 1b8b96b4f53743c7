"""SQLite backend: concurrent appends, indexed resume and filter queries.

Scaling past a single JSONL writer needs three things the flat file
cannot give:

* **safe concurrent appends** — WAL journal mode plus a generous busy
  timeout lets several worker *processes* append to one database while
  readers keep streaming (writers serialise on a short lock instead of
  corrupting each other);
* **indexed resume** — :meth:`completed_keys` is one indexed
  ``SELECT DISTINCT cell_key ... WHERE ok = 1`` instead of a full-file
  re-parse, and ``completed_keys(among=keys)`` looks up just those keys;
* **indexed reports** — equality filters on config dimensions are pushed
  down into SQL (``json_extract`` over the stored record), and several
  campaigns can share one database, scoped by the indexed
  ``campaign_key`` column.

The stored unit is still the full JSON record, so every backend returns
byte-identical dicts and aggregation/reporting code never knows which
backend fed it.
"""

from __future__ import annotations

import json
import os
import sqlite3
import weakref
from typing import Any, Collection, Iterator, Mapping

from ...core.errors import ConfigurationError
from ...resilience.retry import retry
from .base import LIST_FIELDS, ResultStore, _check_dimension

#: First bytes of every SQLite database file.
_SQLITE_MAGIC = b"SQLite format 3\x00"

#: Every live store, so the fork hook below can find their connections.
_LIVE_STORES: "weakref.WeakSet[SqliteStore]" = weakref.WeakSet()

#: Connections inherited across ``fork()``, pinned forever in the child.
#:
#: SQLite documents that carrying an open connection across ``fork()``
#: is unsafe — and *closing* one in the child is the worst case: the
#: close path can drop POSIX locks and reset the WAL underneath the
#: child's (or a sibling's) own healthy connection, silently discarding
#: committed transactions.  Python finalizes unreferenced connections
#: from the cyclic GC at unpredictable moments, so a child forked while
#: the parent held cycle-trapped connections would eventually "close"
#: them mid-campaign.  The documented-safe alternative is to never touch
#: them: this list keeps a strong reference so the child leaks one file
#: descriptor per inherited connection instead of corrupting the store.
_QUARANTINED_CONNECTIONS: list = []


def _quarantine_inherited_connections() -> None:
    """after-fork(child) hook: detach every inherited connection."""
    for store in list(_LIVE_STORES):
        conn = store._conn
        store._conn = None
        store._pid = None
        if conn is not None:
            _QUARANTINED_CONNECTIONS.append(conn)


if hasattr(os, "register_at_fork"):  # POSIX; fork is where the hazard is
    os.register_at_fork(after_in_child=_quarantine_inherited_connections)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS results (
    id           INTEGER PRIMARY KEY,
    cell_key     TEXT NOT NULL,
    campaign_key TEXT NOT NULL DEFAULT '',
    ok           INTEGER NOT NULL,
    record       TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS ix_results_cell_key ON results (cell_key, ok);
CREATE INDEX IF NOT EXISTS ix_results_campaign_key ON results (campaign_key);
"""

#: Distributed-queue tables (see :mod:`repro.campaigns.distributed`).
#: They live next to ``results`` on purpose: the store *is* the
#: coordinator, and lease completion appends result rows and retires the
#: chunk in one transaction — the exactly-once-recording guarantee.
#:
#: ``chunks``  — the unit of claimable work: an ordered JSON array of cell
#:              dicts (plus the parallel array of their content-hash keys,
#:              so dedupe scans never re-hash cells inside the write lock),
#:              moving ``pending -> leased -> done``;
#: ``leases``  — at most one row per leased chunk: who holds it, when the
#:              holder last heartbeat, and how many times the chunk has
#:              been claimed (attempt > 1 means it was stolen);
#: ``workers`` — fleet telemetry: one row per worker that ever polled,
#:              with its last-seen heartbeat and completion counters.
_QUEUE_SCHEMA = """
CREATE TABLE IF NOT EXISTS chunks (
    id           INTEGER PRIMARY KEY,
    campaign_key TEXT NOT NULL DEFAULT '',
    state        TEXT NOT NULL DEFAULT 'pending',
    cells        TEXT NOT NULL,
    cell_keys    TEXT NOT NULL,
    n_cells      INTEGER NOT NULL,
    created_at   REAL NOT NULL,
    done_at      REAL,
    batched      INTEGER NOT NULL DEFAULT 0,
    cells_per_s  REAL
);
CREATE INDEX IF NOT EXISTS ix_chunks_state ON chunks (campaign_key, state);
CREATE TABLE IF NOT EXISTS leases (
    chunk_id     INTEGER PRIMARY KEY,
    worker_id    TEXT NOT NULL,
    heartbeat    REAL NOT NULL,
    acquired_at  REAL NOT NULL,
    attempt      INTEGER NOT NULL DEFAULT 1
);
CREATE TABLE IF NOT EXISTS workers (
    worker_id    TEXT PRIMARY KEY,
    campaign_key TEXT NOT NULL DEFAULT '',
    host         TEXT NOT NULL DEFAULT '',
    pid          INTEGER NOT NULL DEFAULT 0,
    started_at   REAL NOT NULL,
    last_seen    REAL NOT NULL,
    cells_done   INTEGER NOT NULL DEFAULT 0,
    chunks_done  INTEGER NOT NULL DEFAULT 0
);
"""

#: Observability tables (see :mod:`repro.obs`).  Additive — ``CREATE
#: TABLE IF NOT EXISTS`` is the whole migration for stores created
#: before this schema existed.
#:
#: ``spans``          — the persisted form of the campaign → chunk → cell
#:                      span hierarchy (``repro.obs.spans``): one row per
#:                      closed span, correlating worker/host/route with
#:                      result rows via the record's ``span_id``;
#: ``worker_metrics`` — one row per worker (or pool run): its latest
#:                      serialized metrics snapshot, merged by ``campaign
#:                      metrics`` / ``status`` into the fleet view.
_OBS_SCHEMA = """
CREATE TABLE IF NOT EXISTS spans (
    span_id      TEXT PRIMARY KEY,
    parent_id    TEXT,
    campaign_key TEXT NOT NULL DEFAULT '',
    kind         TEXT NOT NULL,
    name         TEXT NOT NULL,
    worker_id    TEXT NOT NULL DEFAULT '',
    host         TEXT NOT NULL DEFAULT '',
    start_s      REAL NOT NULL,
    elapsed_s    REAL,
    status       TEXT NOT NULL DEFAULT 'ok',
    attrs        TEXT NOT NULL DEFAULT '{}'
);
CREATE INDEX IF NOT EXISTS ix_spans_campaign ON spans (campaign_key, kind);
CREATE INDEX IF NOT EXISTS ix_spans_parent ON spans (parent_id);
CREATE TABLE IF NOT EXISTS worker_metrics (
    worker_id    TEXT PRIMARY KEY,
    campaign_key TEXT NOT NULL DEFAULT '',
    updated_at   REAL NOT NULL,
    snapshot     TEXT NOT NULL
);
"""


def _migrate_chunk_telemetry(conn: sqlite3.Connection) -> None:
    """Grow ``chunks`` columns added after the first queue release.

    ``batched``/``cells_per_s`` (per-chunk execution telemetry for
    ``campaign status``; ``batched`` holds the planned route until the
    chunk completes) arrived with the vectorized batch core; stores
    created earlier lack the columns, and ``CREATE TABLE IF NOT EXISTS``
    will not add them — so additive ``ALTER TABLE`` here keeps old
    databases resumable without a rewrite.
    """
    have = {row[1] for row in conn.execute("PRAGMA table_info(chunks)")}
    if "batched" not in have:
        conn.execute(
            "ALTER TABLE chunks ADD COLUMN batched INTEGER NOT NULL DEFAULT 0")
    if "cells_per_s" not in have:
        conn.execute("ALTER TABLE chunks ADD COLUMN cells_per_s REAL")


#: INSERT statement matching :func:`result_rows` (shared with the queue's
#: lease-completion transaction).
INSERT_RESULT_SQL = (
    "INSERT INTO results (cell_key, campaign_key, ok, record) VALUES (?, ?, ?, ?)"
)


def result_rows(
    records: list[dict[str, Any]], campaign: str
) -> list[tuple[str, str, int, str]]:
    """``results``-table rows for already schema-stamped records."""
    return [
        (
            record["key"],
            campaign,
            0 if "error" in record else 1,
            json.dumps(record, sort_keys=True, separators=(",", ":")),
        )
        for record in records
    ]


class SqliteStore(ResultStore):
    """A result store backed by one SQLite database (WAL mode)."""

    scheme = "sqlite"
    supports_leases = True

    def __init__(self, path: str | os.PathLike[str], *,
                 campaign: str | None = None, timeout_s: float = 30.0) -> None:
        super().__init__(path, campaign=campaign)
        self._timeout_s = timeout_s
        self._conn: sqlite3.Connection | None = None
        self._pid: int | None = None
        _LIVE_STORES.add(self)

    # -- connection management ----------------------------------------

    def _connect(self) -> sqlite3.Connection:
        """The process-local connection (reopened after a fork)."""
        pid = os.getpid()
        if self._conn is None or self._pid != pid:
            # A connection inherited across fork() must never be reused:
            # SQLite locks are per-process.  The module's after-fork hook
            # quarantines inherited connections eagerly (never closing
            # them in the child); this pid check is the backstop.  Drop
            # without closing — the parent still owns it.
            if self._conn is not None:
                _QUARANTINED_CONNECTIONS.append(self._conn)
            self._conn = None
            self._check_magic()
            self.path.parent.mkdir(parents=True, exist_ok=True)
            conn = sqlite3.connect(self.path, timeout=self._timeout_s)
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            # The connect() timeout only guards the implicit lock waits
            # sqlite3 knows about; busy_timeout makes SQLite itself block
            # (instead of raising) on locks taken inside explicit BEGIN
            # IMMEDIATE transactions too.  Every connection goes through
            # here — including fork-quarantine reopens and the lease
            # keeper's — so there is no unguarded path.
            conn.execute(f"PRAGMA busy_timeout = {int(self._timeout_s * 1000)}")
            conn.executescript(_SCHEMA)
            conn.executescript(_QUEUE_SCHEMA)
            conn.executescript(_OBS_SCHEMA)
            _migrate_chunk_telemetry(conn)
            conn.commit()
            self._conn = conn
            self._pid = pid
        return self._conn

    def connection(self) -> sqlite3.Connection:
        """The process-local connection (schema applied, WAL mode).

        Public for the distributed work queue, which runs its own
        claim/heartbeat/complete transactions against the same database
        so result appends and lease transitions commit atomically.
        """
        return self._connect()

    def _check_magic(self) -> None:
        """Refuse to run SQL against a file another backend wrote.

        A pre-existing ``.db`` path may hold JSONL from a version where
        every store was JSONL; without this check sqlite3 raises an
        opaque ``DatabaseError`` mid-query (or, worse, a write could
        clobber history).
        """
        if not self.path.is_file() or self.path.stat().st_size == 0:
            return
        with self.path.open("rb") as fh:
            magic = fh.read(len(_SQLITE_MAGIC))
        if magic != _SQLITE_MAGIC:
            raise ConfigurationError(
                f"{self.path} is not a SQLite database — if it was written "
                f"by the JSONL backend, point at it with jsonl:{self.path}")

    def close(self) -> None:
        if self._conn is not None and self._pid == os.getpid():
            self._conn.close()
        self._conn = None
        self._pid = None

    def __del__(self) -> None:
        # A sqlite3 connection sits in a reference cycle (its statement
        # cache), so a dropped store's connection would stay open until
        # the cyclic GC runs — possibly after a fork(), and its close
        # then resets the WAL under the children's commits.  Close it
        # with the store instead.
        if getattr(self, "_conn", None) is not None:
            self.close()

    # -- campaign scoping ---------------------------------------------

    def _scope(self) -> tuple[str, list[Any]]:
        """WHERE fragment confining reads to this store's campaign tag."""
        if self.campaign is None:
            return "", []
        return "campaign_key = ?", [self.campaign]

    # -- reading -------------------------------------------------------

    def records(self) -> Iterator[dict[str, Any]]:
        yield from self._select_sql([], [])

    def _select_sql(
        self, clauses: list[str], params: list[Any]
    ) -> Iterator[dict[str, Any]]:
        if not self.path.exists():
            return
        scope, scope_params = self._scope()
        where = " AND ".join(([scope] if scope else []) + clauses)
        sql = "SELECT record FROM results"
        if where:
            sql += f" WHERE {where}"
        sql += " ORDER BY id"
        cursor = self._connect().execute(sql, scope_params + params)
        for (text,) in cursor:
            try:
                record = json.loads(text)
            except json.JSONDecodeError:  # pragma: no cover - rows are atomic
                continue
            if isinstance(record, dict) and "key" in record:
                yield record

    def _load_completed_keys(
            self, among: Collection[str] | None = None) -> set[str]:
        """A single indexed query — no record parsing at all."""
        if not self.path.exists():
            return set()
        sql, params = self._completed_sql(among)
        return {key for (key,) in self._connect().execute(sql, params)}

    def _completed_sql(
            self, among: Collection[str] | None) -> tuple[str, list[Any]]:
        """The query behind :meth:`completed_keys`, with its parameters.

        With ``among`` it probes ``ix_results_cell_key`` once per key.
        The unary ``+`` on the campaign scope matters: a plain
        ``campaign_key = ?`` lets the planner pick
        ``ix_results_campaign_key`` and scan the whole campaign instead.
        """
        scope, params = self._scope()
        sql = "SELECT DISTINCT cell_key FROM results WHERE ok = 1"
        if among is not None:
            sql += " AND cell_key IN (SELECT value FROM json_each(?))"
            params = [json.dumps(list(among)), *params]
            scope = scope and f"+{scope}"
        if scope:
            sql += f" AND {scope}"
        return sql, params

    def result_counts(self) -> tuple[int, int]:
        """(total records, error records) for this store's campaign scope.

        One indexed aggregate — the distributed coordinator polls this
        for progress accounting, so the results-table/scoping knowledge
        stays here with the other indexed queries.
        """
        if not self.path.exists():
            return (0, 0)
        scope, scope_params = self._scope()
        sql = "SELECT COUNT(*), COALESCE(SUM(1 - ok), 0) FROM results"
        if scope:
            sql += f" WHERE {scope}"
        row = self._connect().execute(sql, scope_params).fetchone()
        return (int(row[0]), int(row[1]))

    def _load_error_keys(self) -> set[str]:
        """Indexed errored-only keys: errored minus ever-succeeded."""
        if not self.path.exists():
            return set()
        scope, scope_params = self._scope()
        tail = f" AND {scope}" if scope else ""
        sql = (
            f"SELECT DISTINCT cell_key FROM results WHERE ok = 0{tail} "
            f"EXCEPT SELECT DISTINCT cell_key FROM results WHERE ok = 1{tail}"
        )
        return {key for (key,) in
                self._connect().execute(sql, scope_params + scope_params)}

    def select(
        self, where: Mapping[str, Any] | None = None
    ) -> Iterator[dict[str, Any]]:
        """Push scalar equality/membership filters into indexed SQL.

        Callable predicates and list-valued fields (``flipped``,
        ``positions``) fall back to the Python-side filter; everything
        else becomes a ``json_extract`` comparison evaluated by SQLite.
        """
        from .base import record_matches

        where = dict(where or {})
        clauses: list[str] = []
        params: list[Any] = []
        residual: dict[str, Any] = {}
        for dim, expected in where.items():
            _check_dimension(dim)
            expr = f"json_extract(record, '$.config.{dim}')"
            if callable(expected) or dim in LIST_FIELDS:
                residual[dim] = expected
            elif expected is None:
                clauses.append(f"{expr} IS NULL")
            elif isinstance(expected, bool):
                clauses.append(f"{expr} = ?")
                params.append(int(expected))
            elif isinstance(expected, (int, float, str)):
                clauses.append(f"{expr} = ?")
                params.append(expected)
            elif isinstance(expected, (list, tuple, set, frozenset)):
                values = [v for v in expected]
                if values and all(
                    isinstance(v, (int, float, str)) and not isinstance(v, bool)
                    for v in values
                ):
                    marks = ",".join("?" * len(values))
                    clauses.append(f"{expr} IN ({marks})")
                    params.extend(values)
                else:
                    residual[dim] = expected
            else:
                residual[dim] = expected
        for record in self._select_sql(clauses, params):
            if not residual or record_matches(record, residual):
                yield record

    def __len__(self) -> int:
        if not self.path.exists():
            return 0
        scope, scope_params = self._scope()
        sql = "SELECT COUNT(*) FROM results"
        if scope:
            sql += f" WHERE {scope}"
        (count,) = self._connect().execute(sql, scope_params).fetchone()
        return int(count)

    # -- writing -------------------------------------------------------

    def _write_many(self, records: list[dict[str, Any]]) -> None:
        """One transaction per chunk; atomic even against a mid-write kill."""
        rows = result_rows(records, self.campaign or "")
        conn = self._connect()

        def txn() -> None:
            with conn:  # BEGIN ... COMMIT (or ROLLBACK on error)
                conn.executemany(INSERT_RESULT_SQL, rows)

        retry(txn, site="store.write_many")

    # -- observability (spans + worker metrics snapshots) --------------

    def append_spans(self, spans: list[dict[str, Any]]) -> None:
        """Persist closed spans (one transaction per flush, idempotent).

        ``INSERT OR IGNORE``: span ids are unique per emission, so a
        retried flush after a crash-mid-commit cannot double-insert.
        """
        rows = [
            (
                span["span_id"],
                span.get("parent_id"),
                self.campaign or span.get("campaign") or "",
                span["kind"],
                span["name"],
                span.get("worker") or "",
                span.get("host") or "",
                span.get("start_s", 0.0),
                span.get("elapsed_s"),
                span.get("status", "ok"),
                json.dumps(span.get("attrs") or {}, sort_keys=True,
                           separators=(",", ":")),
            )
            for span in spans
        ]
        conn = self._connect()

        def txn() -> None:
            with conn:
                conn.executemany(
                    "INSERT OR IGNORE INTO spans (span_id, parent_id, "
                    "campaign_key, kind, name, worker_id, host, start_s, "
                    "elapsed_s, status, attrs) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    rows)

        retry(txn, site="store.append_spans")

    def spans(self, kind: str | None = None) -> list[dict[str, Any]]:
        """Read back persisted spans (campaign-scoped, insertion order)."""
        if not self.path.exists():
            return []
        scope, params = self._scope()
        clauses = [scope] if scope else []
        if kind is not None:
            clauses.append("kind = ?")
            params = params + [kind]
        sql = ("SELECT span_id, parent_id, campaign_key, kind, name, "
               "worker_id, host, start_s, elapsed_s, status, attrs "
               "FROM spans")
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY start_s, span_id"
        out = []
        for row in self._connect().execute(sql, params):
            out.append({
                "span_id": row[0],
                "parent_id": row[1],
                "campaign": row[2],
                "kind": row[3],
                "name": row[4],
                "worker": row[5],
                "host": row[6],
                "start_s": row[7],
                "elapsed_s": row[8],
                "status": row[9],
                "attrs": json.loads(row[10]) if row[10] else {},
            })
        return out

    def record_metrics_snapshot(
        self, worker_id: str, snapshot: Mapping[str, Any]
    ) -> None:
        """Upsert one worker's (or run's) latest metrics snapshot."""
        import time as _time

        conn = self._connect()

        def txn() -> None:
            with conn:
                conn.execute(
                    "INSERT INTO worker_metrics "
                    "(worker_id, campaign_key, updated_at, snapshot) "
                    "VALUES (?, ?, ?, ?) "
                    "ON CONFLICT(worker_id) DO UPDATE SET "
                    "campaign_key = excluded.campaign_key, "
                    "updated_at = excluded.updated_at, "
                    "snapshot = excluded.snapshot",
                    (worker_id, self.campaign or "", _time.time(),
                     json.dumps(snapshot, sort_keys=True,
                                separators=(",", ":"))))

        retry(txn, site="store.metrics_snapshot")

    def metrics_snapshots(self) -> list[tuple[str, float, dict[str, Any]]]:
        """``(worker_id, updated_at, snapshot)`` rows, campaign-scoped."""
        if not self.path.exists():
            return []
        scope, params = self._scope()
        sql = "SELECT worker_id, updated_at, snapshot FROM worker_metrics"
        if scope:
            sql += f" WHERE {scope}"
        sql += " ORDER BY worker_id"
        out = []
        for worker_id, updated_at, text in self._connect().execute(sql, params):
            try:
                snap = json.loads(text)
            except json.JSONDecodeError:  # pragma: no cover - rows are atomic
                continue
            out.append((worker_id, updated_at, snap))
        return out
