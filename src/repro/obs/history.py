"""Bench-history time series: record headlines, guard against regressions.

Every benchmark run overwrites ``BENCH_engine.json`` in place, so the
repo's perf trajectory was a single point.  ``python -m repro bench
record`` appends the headline numbers of one bench file to a committed
``BENCH_history.jsonl`` — one JSON object per run, keyed by git SHA and
timestamp — and ``python -m repro bench check`` exits non-zero when the
*latest* entry drops below a configurable fraction (default 0.7) of the
trailing median for any headline, turning the series into a CI-enforced
regression guard.

Every headline is higher-is-better (throughputs and speedups); the 0.7
default fraction absorbs CI-runner noise while still catching the 2x
cliffs that matter.  Each entry carries a host fingerprint (CPU model
and count, python and numpy versions), and ``check`` compares like with
like: an absolute rate (``*.rounds_per_s``, ``*.cells_per_s``) only
against entries of the same fingerprint and bench ``mode``, because a
slower runner or a smoke budget moves it without any code change.  A
speedup is a ratio measured within one run, so it is compared across
hosts and modes.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from pathlib import Path
from typing import Any, Mapping

from .analyze import median

__all__ = [
    "ABSOLUTE_RATE_SUFFIXES",
    "HEADLINES",
    "HISTORY_SCHEMA",
    "check",
    "extract_headlines",
    "host_fingerprint",
    "load_history",
    "record",
]

HISTORY_SCHEMA = 1

#: Headline name -> key path into ``BENCH_engine.json``.  All are
#: higher-is-better.  A path missing from a bench file (e.g. a smoke
#: run without the graph section) simply records no value for that
#: headline — ``check`` compares only headlines the latest entry has.
HEADLINES: dict[str, tuple[str, ...]] = {
    "engine.rounds_per_s": ("headline", "optimized", "rounds_per_s"),
    "engine.speedup": ("headline", "speedup"),
    "batch.cells_per_s": ("batch", "headline", "batched", "cells_per_s"),
    "batch.speedup": ("batch", "headline", "speedup"),
    "batch.pt_et.speedup": ("batch", "headline_pt_et", "speedup"),
    "batch.ssync.speedup": ("batch", "headline_ssync", "speedup"),
}

#: Headlines ending in one of these are absolute rates: ``check``
#: compares them only between entries of the same host and mode.
ABSOLUTE_RATE_SUFFIXES = (".rounds_per_s", ".cells_per_s")


def extract_headlines(bench: Mapping[str, Any]) -> dict[str, float]:
    """The headline numbers present in one bench-results mapping."""
    out: dict[str, float] = {}
    for name, path in HEADLINES.items():
        node: Any = bench
        for key in path:
            if not isinstance(node, Mapping) or key not in node:
                node = None
                break
            node = node[key]
        if isinstance(node, (int, float)):
            out[name] = float(node)
    return out


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine() or "unknown"


def host_fingerprint() -> dict[str, Any]:
    """What makes absolute rates comparable: CPU, python and numpy."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "cpu": _cpu_model(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def _git_sha(explicit: str | None = None) -> str:
    if explicit:
        return explicit
    env = os.environ.get("GITHUB_SHA")
    if env:
        return env[:12]
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def load_history(path: Path | str) -> list[dict]:
    """Parsed history entries, file order (oldest first)."""
    path = Path(path)
    if not path.exists():
        return []
    entries = []
    for line in path.read_text().splitlines():
        if line.strip():
            entries.append(json.loads(line))
    return entries


def record(bench_path: Path | str, history_path: Path | str, *,
           git_sha: str | None = None,
           now: float | None = None,
           host: Mapping[str, Any] | None = None) -> dict:
    """Append one bench file's headlines to the history; return the entry.

    ``host`` defaults to this machine's :func:`host_fingerprint`.
    """
    bench_path = Path(bench_path)
    bench = json.loads(bench_path.read_text())
    headlines = extract_headlines(bench)
    if not headlines:
        raise ValueError(
            f"{bench_path} holds none of the known headlines "
            f"({', '.join(HEADLINES)}) — not a BENCH_engine.json?")
    entry = {
        "schema": HISTORY_SCHEMA,
        "recorded_at": round(now if now is not None else time.time(), 3),
        "git_sha": _git_sha(git_sha),
        "mode": bench.get("mode", "full"),
        "host": dict(host if host is not None else host_fingerprint()),
        "headlines": {k: headlines[k] for k in sorted(headlines)},
    }
    history_path = Path(history_path)
    history_path.parent.mkdir(parents=True, exist_ok=True)
    with history_path.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry, sort_keys=True,
                            separators=(",", ":")) + "\n")
    return entry


def check(history_path: Path | str, *, fraction: float = 0.7,
          window: int = 10) -> list[str]:
    """Regressions in the latest entry vs the trailing median (empty = ok).

    For each headline the latest entry carries, take up to ``window``
    prior entries that also carry it — for an absolute rate, only those
    with the latest entry's ``host`` and ``mode`` (an entry without a
    host matches none) — and flag the headline when
    ``latest < fraction * median(trailing)``.  A headline without such a
    baseline passes.
    """
    if not 0 < fraction <= 1:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    entries = load_history(history_path)
    if len(entries) < 2:
        return []
    latest = entries[-1]
    host, mode = latest.get("host"), latest.get("mode")
    like_for_like = [e for e in entries[:-1]
                     if host is not None and e.get("host") == host
                     and e.get("mode") == mode]
    problems: list[str] = []
    for name, value in (latest.get("headlines") or {}).items():
        baseline = (like_for_like if name.endswith(ABSOLUTE_RATE_SUFFIXES)
                    else entries[:-1])
        trailing = [e["headlines"][name] for e in baseline
                    if name in (e.get("headlines") or {})]
        trailing = trailing[-window:]
        med = median(trailing)
        if med is None or med <= 0:
            continue
        if value < fraction * med:
            problems.append(
                f"{name}: {value:g} is below {fraction:g} x trailing "
                f"median {med:g} (latest {latest.get('git_sha', '?')}, "
                f"n={len(trailing)})")
    return problems
