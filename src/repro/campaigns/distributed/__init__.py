"""Distributed campaign execution: many hosts, one SQLite store.

The content-hashed cell keys make campaign work idempotent and the
WAL-mode SQLite backend takes concurrent multi-process appends — this
package adds the missing piece: a **lease-based work queue** living in
the same database, so the store itself is the coordinator and a fleet
needs no extra service:

* :mod:`~repro.campaigns.distributed.queue` —
  :class:`WorkQueue`: atomic chunk claim/heartbeat/steal/complete
  transactions (``chunks``/``leases``/``workers`` tables);
* :mod:`~repro.campaigns.distributed.worker` —
  :func:`run_worker`, the loop behind
  ``python -m repro campaign worker --store sqlite:PATH --campaign NAME``;
* :mod:`~repro.campaigns.distributed.status` — ``campaign enqueue`` /
  ``campaign status --watch`` (fleet telemetry: workers alive, chunk
  states, cells/s, ETA) and :func:`run_distributed`, the single-host
  ``campaign run --distributed`` convenience that enqueues and spawns N
  local workers.

Multi-host quickstart (see README)::

    # anywhere (once): expand the spec into claimable chunks
    python -m repro campaign enqueue --spec paper-tables --store sqlite:shared/results.db

    # on every machine that can reach the store:
    python -m repro campaign worker --store sqlite:shared/results.db --campaign paper-tables

    # watch the fleet:
    python -m repro campaign status --spec paper-tables --store sqlite:shared/results.db --watch
"""

from ..._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".queue": (
        "Claim", "DEFAULT_LEASE_TTL_S", "DEFAULT_MAX_ATTEMPTS",
        "EnqueueReport", "LeaseInfo", "LeaseLost", "QueueCounts",
        "WorkQueue", "WorkerInfo", "worker_identity"),
    ".status": (
        "FleetStatus", "enqueue_campaign", "fleet_status",
        "render_batch_rejects", "render_status", "run_distributed",
        "store_metrics", "watch_status"),
    ".worker": ("WorkerReport", "run_worker"),
})
