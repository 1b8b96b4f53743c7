"""The unified retry/timeout/backoff helper for store and queue writes.

Before this module every transaction site handled ``SQLITE_BUSY`` its
own way (a connection-level ``timeout`` here, an ad-hoc except there).
Now there is exactly one policy: :func:`retry` wraps a transaction
attempt in up to :data:`DEFAULT_ATTEMPTS` tries with capped exponential
backoff and *deterministic* jitter — the delay schedule is a pure
function of ``(site, attempt)``, never of RNG state, so retries shift
no seeded randomness and two runs of the same workload back off
identically.

The chaos harness (:mod:`repro.resilience.chaos`) injects its transient
``OperationalError`` *here*, at the choke point every hardened
transaction already passes through: an injected busy error exercises
precisely the code path a real lock collision would.

Obs counters (no-ops unless metrics are enabled):

* ``resilience.retries``  — attempts that failed transiently and were retried;
* ``resilience.gave_up``  — calls that exhausted their attempts.
"""

from __future__ import annotations

import os
import sqlite3
import sys
import time
import zlib
from typing import Any, Callable

from ..obs import metrics as obs_metrics

#: Default attempt budget: enough to ride out a multi-worker lock
#: convoy, small enough that a genuinely wedged database surfaces fast.
DEFAULT_ATTEMPTS = 6

#: First backoff delay; doubles per attempt up to :data:`DEFAULT_CAP_S`.
DEFAULT_BASE_S = 0.01

#: Backoff ceiling — a retry never sleeps longer than this.
DEFAULT_CAP_S = 0.25

#: Environment variable carrying the chaos spec (empty/unset = no chaos;
#: see :mod:`repro.resilience.chaos`).  It lives here so that a run
#: without chaos never loads the harness.
CHAOS_ENV = "REPRO_CHAOS"
_CHAOS_MODULE = f"{__package__}.chaos"


def _chaos_policy():
    """:func:`~repro.resilience.chaos.chaos_policy`, importing the harness
    only when :data:`CHAOS_ENV` is set or something already loaded it
    (which then owns the once-per-process parse)."""
    chaos = sys.modules.get(_CHAOS_MODULE)
    if chaos is None:
        if not os.environ.get(CHAOS_ENV, "").strip():
            return None
        from . import chaos
    return chaos.chaos_policy()


def backoff_delay(site: str, attempt: int, *,
                  base_s: float = DEFAULT_BASE_S,
                  cap_s: float = DEFAULT_CAP_S) -> float:
    """The deterministic sleep before retry number ``attempt`` (1-based).

    Capped exponential backoff plus up to 50% jitter derived from
    ``crc32(site:attempt)`` — stable across processes and Python hash
    randomization, so backoff schedules are replayable and two sites
    colliding once do not stay in lockstep forever.
    """
    delay = min(cap_s, base_s * (2 ** (attempt - 1)))
    jitter = zlib.crc32(f"{site}:{attempt}".encode()) % 1000 / 1000.0
    return delay * (1.0 + 0.5 * jitter)


def retry(
    fn: Callable[[], Any],
    *,
    site: str,
    attempts: int = DEFAULT_ATTEMPTS,
    base_s: float = DEFAULT_BASE_S,
    cap_s: float = DEFAULT_CAP_S,
    retry_on: tuple[type[BaseException], ...] = (sqlite3.OperationalError,),
    sleep: Callable[[float], None] = time.sleep,
) -> Any:
    """Call ``fn`` until it succeeds, retrying transient failures.

    Only exceptions in ``retry_on`` (default: SQLite's transient
    ``OperationalError`` — lock contention, busy timeouts) are retried;
    everything else, including :class:`~repro.resilience.chaos.ChaosCrash`
    and the queue's ``LeaseLost``, propagates immediately.  The final
    attempt's exception is re-raised unchanged once the budget is spent.

    ``site`` names the call site for jitter derivation, chaos targeting
    and log/metric labels (e.g. ``"queue.claim"``, ``"store.write"``).
    """
    chaos = _chaos_policy()
    last_attempt = max(1, attempts)
    for attempt in range(1, last_attempt + 1):
        try:
            if chaos is not None:
                chaos.maybe_busy(site)
            return fn()
        except retry_on:
            if attempt == last_attempt:
                if obs_metrics.enabled():
                    obs_metrics.registry().counter("resilience.gave_up").inc()
                raise
            if obs_metrics.enabled():
                obs_metrics.registry().counter("resilience.retries").inc()
            sleep(backoff_delay(site, attempt, base_s=base_s, cap_s=cap_s))
