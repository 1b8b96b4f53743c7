"""What runs outside the distributed queue need to know about leases.

The lease-based work queue (:mod:`repro.campaigns.distributed.queue`)
is loaded only by the distributed verbs.  The shared run loop
(:func:`~repro.campaigns.executor.drain`), the pool-mode guard and the
CLI's flag defaults need a little of its contract, and they take it from
here so that a serial or pool run never loads the queue.
"""

from __future__ import annotations

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
#: terminal for :meth:`~repro.campaigns.distributed.queue.WorkQueue.finished`,
#: show up in ``campaign status``, and their cells become enqueueable
#: again by a fresh ``campaign enqueue``.
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
