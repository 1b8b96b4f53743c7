"""Thread-safe metrics registry: counters, gauges, histograms.

One registry per process.  Every instrument is owned by the registry and
addressed by a dotted name (``queue.claim_s``, ``executor.cells``); the
name doubles as the merge key when snapshots from many worker processes
are combined into one fleet view.

Design constraints (see ARCHITECTURE.md "Observability"):

* **Near-zero cost when disabled.**  ``registry()`` returns a null
  registry whose instruments are shared no-op singletons, so call sites
  may write ``registry().counter("x").inc()`` unconditionally.  Hot
  loops (the engine round loop) go further and never even reach a null
  call: `SimulationCore.step` reads its :class:`PhaseTimer` once per
  round and skips every clock read when none is attached.  A bench guard
  (``benchmarks/bench_engine_hotpath.py --max-obs-overhead``) enforces
  the <2% contract.
* **Mergeable snapshots.**  Histograms keep a bounded reservoir of raw
  samples next to exact ``count``/``sum``/``min``/``max``; snapshots
  from N workers merge by summing counters, last-writer-wins gauges,
  and concatenating histogram reservoirs, so fleet percentiles are
  computed from pooled samples rather than averaged per-worker
  percentiles.
* **Thread-safe.**  One lock per instrument; the registry dict has its
  own lock.  The distributed worker's lease-keeper thread and the main
  loop may both touch the registry.

Enablement is environment-driven so forked/spawned pool and fleet
workers inherit it: ``REPRO_METRICS=1`` turns the registry on (the
``campaign --metrics`` flag sets it before workers start);
``configure(enabled=...)`` overrides programmatically, e.g. in tests.
"""

from __future__ import annotations

import os
import random
import threading
from typing import Iterable, Mapping

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PhaseTimer",
    "configure",
    "enabled",
    "merge_snapshots",
    "phase_timer",
    "registry",
    "reset",
    "snapshot",
]

#: Reservoir size per histogram.  2048 float samples bound memory at
#: ~16 KiB per histogram while keeping p99 estimates stable for the
#: sample counts a worker session produces.
SAMPLE_CAP = 2048

PERCENTILES = (50.0, 90.0, 99.0)


class Counter:
    """Monotonically increasing counter."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int | float = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int | float:
        return self._value

    def dump(self) -> dict:
        return {"type": "counter", "value": self._value}


class Gauge:
    """Last-value-wins instantaneous measurement."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    @property
    def value(self) -> float:
        return self._value

    def dump(self) -> dict:
        return {"type": "gauge", "value": self._value}


class Histogram:
    """Distribution summary with a bounded reservoir for percentiles.

    ``count``/``sum``/``min``/``max`` are exact; percentiles are
    estimated from a uniform reservoir sample (seeded per-histogram, so
    runs are reproducible).  The reservoir is part of the snapshot,
    which is what makes cross-worker percentile merging honest.
    """

    __slots__ = ("name", "_lock", "_count", "_sum", "_min", "_max",
                 "_sample", "_rng")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")
        self._sample: list[float] = []
        self._rng = random.Random(0x5EED ^ hash(name) & 0xFFFFFFFF)

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
            if len(self._sample) < SAMPLE_CAP:
                self._sample.append(value)
            else:
                slot = self._rng.randrange(self._count)
                if slot < SAMPLE_CAP:
                    self._sample[slot] = value

    @property
    def count(self) -> int:
        return self._count

    def percentile(self, p: float) -> float | None:
        with self._lock:
            sample = sorted(self._sample)
        return _percentile(sample, p)

    def dump(self) -> dict:
        with self._lock:
            return {
                "type": "histogram",
                "count": self._count,
                "sum": self._sum,
                "min": self._min if self._count else None,
                "max": self._max if self._count else None,
                "sample": list(self._sample),
            }


def _percentile(sorted_sample: list[float], p: float) -> float | None:
    """Linear-interpolated percentile of an already-sorted sample."""
    if not sorted_sample:
        return None
    if len(sorted_sample) == 1:
        return sorted_sample[0]
    rank = (p / 100.0) * (len(sorted_sample) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(sorted_sample) - 1)
    frac = rank - lo
    return sorted_sample[lo] * (1.0 - frac) + sorted_sample[hi] * frac


class _NullInstrument:
    """Shared no-op stand-in for every instrument type when disabled."""

    __slots__ = ()
    name = "<disabled>"
    value = 0
    count = 0

    def inc(self, amount: int | float = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def percentile(self, p: float) -> None:
        return None

    def dump(self) -> dict:
        return {}


_NULL = _NullInstrument()


class MetricsRegistry:
    """Process-wide named instruments with mergeable snapshots."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, name: str, cls):
        if not self.enabled:
            return _NULL
        instrument = self._instruments.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._instruments.get(name)
                if instrument is None:
                    instrument = cls(name)
                    self._instruments[name] = instrument
        if not isinstance(instrument, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(instrument).__name__}, not {cls.__name__}")
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def snapshot(self) -> dict[str, dict]:
        """Serializable view of every instrument (JSON-safe)."""
        with self._lock:
            instruments = list(self._instruments.items())
        return {name: inst.dump() for name, inst in sorted(instruments)}

    def reset(self) -> None:
        with self._lock:
            self._instruments.clear()


def merge_snapshots(snapshots: Iterable[Mapping[str, dict]]) -> dict[str, dict]:
    """Combine snapshots from many processes into one fleet view.

    Counters sum, gauges keep the last writer, histograms pool their
    reservoirs (so percentiles are computed over the union of samples,
    capped at :data:`SAMPLE_CAP` per metric to bound the result).
    """
    merged: dict[str, dict] = {}
    for snap in snapshots:
        if not snap:
            continue
        for name, dump in snap.items():
            kind = dump.get("type")
            if name not in merged:
                merged[name] = {
                    "type": kind,
                    **({"value": dump.get("value", 0)} if kind != "histogram"
                       else {
                           "count": dump.get("count", 0),
                           "sum": dump.get("sum", 0.0),
                           "min": dump.get("min"),
                           "max": dump.get("max"),
                           "sample": list(dump.get("sample") or ()),
                       }),
                }
                continue
            into = merged[name]
            if kind != into.get("type"):
                continue  # conflicting types across workers: keep first
            if kind == "counter":
                into["value"] += dump.get("value", 0)
            elif kind == "gauge":
                into["value"] = dump.get("value", into["value"])
            else:
                into["count"] += dump.get("count", 0)
                into["sum"] += dump.get("sum", 0.0)
                for key, pick in (("min", min), ("max", max)):
                    theirs = dump.get(key)
                    if theirs is not None:
                        ours = into.get(key)
                        into[key] = theirs if ours is None else pick(ours, theirs)
                sample = into["sample"]
                sample.extend(dump.get("sample") or ())
                if len(sample) > SAMPLE_CAP:
                    # Deterministic thinning: keep an evenly-strided subset.
                    stride = len(sample) / SAMPLE_CAP
                    into["sample"] = [sample[int(i * stride)]
                                      for i in range(SAMPLE_CAP)]
    return dict(sorted(merged.items()))


def summarize_histogram(dump: Mapping) -> dict:
    """Derive p50/p90/p99 (and mean) from a histogram dump."""
    sample = sorted(dump.get("sample") or ())
    count = dump.get("count", 0)
    out = {
        "count": count,
        "sum": dump.get("sum", 0.0),
        "min": dump.get("min"),
        "max": dump.get("max"),
        "mean": (dump.get("sum", 0.0) / count) if count else None,
    }
    for p in PERCENTILES:
        out[f"p{int(p)}"] = _percentile(sample, p)
    return out


# --------------------------------------------------------------------------
# Engine phase timing
# --------------------------------------------------------------------------

class PhaseTimer:
    """Per-run accumulator for `SimulationCore` round-phase seconds.

    `SimulationCore.step` adds plain-float deltas here (no locks, no
    dict lookups in the round loop); :meth:`flush` folds the totals into
    registry histograms once per engine run.
    """

    __slots__ = ("adversary", "look_compute", "move", "end_of_round",
                 "rounds")

    PHASES = ("adversary", "look_compute", "move", "end_of_round")

    def __init__(self) -> None:
        self.adversary = 0.0
        self.look_compute = 0.0
        self.move = 0.0
        self.end_of_round = 0.0
        self.rounds = 0

    def flush(self, registry: MetricsRegistry | None = None,
              *, prefix: str = "engine.phase") -> None:
        reg = registry if registry is not None else globals()["registry"]()
        for phase in self.PHASES:
            reg.histogram(f"{prefix}.{phase}_s").observe(getattr(self, phase))
        reg.histogram("engine.run_rounds").observe(self.rounds)
        reg.counter("engine.runs").inc()
        self.adversary = self.look_compute = self.move = self.end_of_round = 0.0
        self.rounds = 0


# --------------------------------------------------------------------------
# Process-global registry
# --------------------------------------------------------------------------

_ENABLED: bool | None = None  # None → defer to the environment
_REGISTRY: MetricsRegistry | None = None
_DISABLED_REGISTRY = MetricsRegistry(enabled=False)
_STATE_LOCK = threading.Lock()


def enabled() -> bool:
    if _ENABLED is not None:
        return _ENABLED
    return os.environ.get("REPRO_METRICS") == "1"


def configure(enabled: bool | None = None) -> None:
    """Programmatic override of the environment gate (tests, embedding).

    ``configure(enabled=None)`` returns control to the environment.
    """
    global _ENABLED
    with _STATE_LOCK:
        _ENABLED = enabled


def registry() -> MetricsRegistry:
    """The process-global registry (a shared null registry if disabled)."""
    global _REGISTRY
    if not enabled():
        return _DISABLED_REGISTRY
    if _REGISTRY is None or not _REGISTRY.enabled:
        with _STATE_LOCK:
            if _REGISTRY is None or not _REGISTRY.enabled:
                _REGISTRY = MetricsRegistry(enabled=True)
    return _REGISTRY


def snapshot() -> dict[str, dict]:
    return registry().snapshot() if enabled() else {}


def reset() -> None:
    global _REGISTRY
    with _STATE_LOCK:
        _REGISTRY = None


def phase_timer() -> PhaseTimer | None:
    """A fresh :class:`PhaseTimer`, or None when metrics are off."""
    return PhaseTimer() if enabled() else None
