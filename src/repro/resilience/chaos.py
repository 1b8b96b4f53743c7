"""Deterministic chaos injection for the store/queue layer.

``REPRO_CHAOS=<spec>`` arms a process-wide, *seeded*
:class:`ChaosPolicy` that the hardened transaction sites consult:

* transient ``sqlite3.OperationalError`` injection at every
  :func:`~repro.resilience.retry.retry` choke point (``busy=P``);
* a crash (process death) before or after the Nth completion commit
  (``crash=before-commit:N`` / ``crash=after-commit:N``) — the
  before-commit point rolls back and leaves an orphaned lease for a
  peer to steal, the after-commit point dies with the records safely
  recorded, exactly like a SIGKILL between two syscalls;
* heartbeat clock skew (``skew=S`` seconds added to the queue's wall
  clock — a worker whose clock is off);
* delayed completions (``delay=S`` slept before each completion).

Spec grammar — comma-separated ``key=value`` clauses::

    REPRO_CHAOS="seed=7,busy=0.2,crash=after-commit:2,skew=5,delay=0.01"

Determinism is the point: every stochastic decision draws from one
``random.Random(seed)``, so the same spec replays the same injection
schedule byte for byte (pinned by ``tests/resilience/test_chaos.py``)
and a chaos run that settles must leave a store byte-identical to an
undisturbed run — which is what the CI chaos lane diffs.
"""

from __future__ import annotations

import os
import random
import re
import sqlite3
import time
from typing import Callable

from ..core.errors import ConfigurationError
from ..obs import metrics as obs_metrics
from .retry import CHAOS_ENV

#: Commit points :meth:`ChaosPolicy.crash_point` recognises.
CRASH_POINTS = ("before-commit", "after-commit")

_CRASH_RE = re.compile(r"^(before-commit|after-commit):(\d+)$")


class ChaosCrash(BaseException):
    """Deliberate process death at an armed commit point.

    Derives from ``BaseException`` so ordinary ``except Exception``
    recovery code cannot swallow it — a chaos crash must take the
    process down the way a SIGKILL would, not be retried into cleanup
    paths a real crash never reaches.
    """


class ChaosPolicy:
    """One process's armed chaos configuration (seeded, replayable)."""

    def __init__(self, *, seed: int = 0, busy: float = 0.0,
                 crash_point: str | None = None, crash_nth: int = 0,
                 skew_s: float = 0.0, delay_s: float = 0.0) -> None:
        if not 0.0 <= busy < 1.0:
            raise ConfigurationError(
                f"chaos busy probability must be in [0, 1), got {busy}")
        if crash_point is not None and crash_point not in CRASH_POINTS:
            raise ConfigurationError(
                f"chaos crash point must be one of {CRASH_POINTS}, "
                f"got {crash_point!r}")
        if delay_s < 0:
            raise ConfigurationError(f"chaos delay must be >= 0, got {delay_s}")
        self.seed = int(seed)
        self.busy = float(busy)
        self.crash_at = crash_point
        self.crash_nth = int(crash_nth)
        self.skew_s = float(skew_s)
        self.delay_s = float(delay_s)
        self._rng = random.Random(self.seed)
        self._commits = 0

    @classmethod
    def parse(cls, spec: str) -> "ChaosPolicy":
        """Parse a ``REPRO_CHAOS`` spec string (see module docstring)."""
        kwargs: dict = {}
        for clause in filter(None, (c.strip() for c in spec.split(","))):
            key, sep, value = clause.partition("=")
            if not sep:
                raise ConfigurationError(
                    f"bad chaos clause {clause!r} (expected key=value)")
            try:
                if key == "seed":
                    kwargs["seed"] = int(value)
                elif key == "busy":
                    kwargs["busy"] = float(value)
                elif key == "crash":
                    match = _CRASH_RE.match(value)
                    if match is None:
                        raise ConfigurationError(
                            f"bad chaos crash spec {value!r} (expected "
                            f"before-commit:N or after-commit:N)")
                    kwargs["crash_point"] = match.group(1)
                    kwargs["crash_nth"] = int(match.group(2))
                elif key == "skew":
                    kwargs["skew_s"] = float(value)
                elif key == "delay":
                    kwargs["delay_s"] = float(value)
                else:
                    raise ConfigurationError(
                        f"unknown chaos key {key!r} (choose from "
                        f"seed/busy/crash/skew/delay)")
            except ValueError as exc:
                raise ConfigurationError(
                    f"bad chaos clause {clause!r}: {exc}") from exc
        return cls(**kwargs)

    # -- injection points ----------------------------------------------

    def maybe_busy(self, site: str) -> None:
        """Raise a transient lock error with probability ``busy``.

        Called by :func:`~repro.resilience.retry.retry` before each
        attempt, so an injection exercises exactly the backoff path a
        real ``SQLITE_BUSY`` would.  Draw order is fixed (one draw per
        attempt), which is what makes the schedule replayable.
        """
        if self.busy and self._rng.random() < self.busy:
            self._count("busy")
            raise sqlite3.OperationalError(
                f"database is locked [chaos {site}]")

    def crash_point(self, point: str) -> None:
        """Die at the armed commit point once its Nth visit arrives."""
        if self.crash_at != point:
            return
        self._commits += 1
        if self._commits == self.crash_nth:
            self._count("crash")
            raise ChaosCrash(f"chaos crash at {point} #{self._commits}")

    def skewed(self, clock: Callable[[], float]) -> Callable[[], float]:
        """Wrap a wall clock with this policy's constant skew."""
        if not self.skew_s:
            return clock
        skew = self.skew_s

        def skewed_clock() -> float:
            return clock() + skew

        return skewed_clock

    def maybe_delay(self) -> None:
        """Sleep the configured completion delay (no-op when unset)."""
        if self.delay_s:
            self._count("delay")
            time.sleep(self.delay_s)

    def _count(self, kind: str) -> None:
        if obs_metrics.enabled():
            obs_metrics.registry().counter(
                "resilience.faults_injected").inc()
            obs_metrics.registry().counter(
                f"resilience.chaos.{kind}").inc()

    def __repr__(self) -> str:
        return (f"ChaosPolicy(seed={self.seed}, busy={self.busy}, "
                f"crash={self.crash_at}:{self.crash_nth}, "
                f"skew_s={self.skew_s}, delay_s={self.delay_s})")


#: Cached process policy; ``False`` = not parsed yet (None = chaos off).
_POLICY: ChaosPolicy | None | bool = False


def chaos_policy() -> ChaosPolicy | None:
    """The process's armed policy, or ``None`` when chaos is off.

    Parsed from :data:`CHAOS_ENV` exactly once per process: the policy
    owns the RNG whose draw sequence *is* the injection schedule, so
    re-parsing mid-run would reset the schedule.
    """
    global _POLICY
    if _POLICY is False:
        spec = os.environ.get(CHAOS_ENV, "").strip()
        _POLICY = ChaosPolicy.parse(spec) if spec else None
    return _POLICY


def reset_chaos_policy() -> None:
    """Drop the cached policy so the next call re-reads the env (tests)."""
    global _POLICY
    _POLICY = False
