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
default fraction absorbs CI-runner noise and the smoke-vs-full spread
while still catching the 2x cliffs that matter.  Entries whose bench
``mode`` differs from the latest entry's are still compared — mode is
recorded so a human reading the file can see why a value moved.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Mapping

from .analyze import median

__all__ = [
    "HEADLINES",
    "HISTORY_SCHEMA",
    "check",
    "extract_headlines",
    "load_history",
    "main",
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
    "rule_dispatch.speedup": ("rule_dispatch", "speedup"),
}


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
           now: float | None = None) -> dict:
    """Append one bench file's headlines to the history; return the entry."""
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
    prior entries that also carry it; flag the headline when
    ``latest < fraction * median(trailing)``.  A history with fewer
    than two entries has no baseline and always passes.
    """
    if not 0 < fraction <= 1:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    entries = load_history(history_path)
    if len(entries) < 2:
        return []
    latest = entries[-1]
    problems: list[str] = []
    for name, value in (latest.get("headlines") or {}).items():
        trailing = [e["headlines"][name] for e in entries[:-1]
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


# --------------------------------------------------------------------------
# CLI (python -m repro bench record|check)
# --------------------------------------------------------------------------

def add_bench_parsers(sub) -> None:
    """Attach the ``record``/``check`` subparsers (shared with the shim)."""
    p = sub.add_parser(
        "record", help="append a bench file's headlines to the history")
    p.add_argument("--bench", default="BENCH_engine.json", metavar="PATH",
                   help="bench results file (default: BENCH_engine.json)")
    p.add_argument("--history", default="BENCH_history.jsonl", metavar="PATH",
                   help="history file to append to "
                        "(default: BENCH_history.jsonl)")
    p.add_argument("--sha", default=None, metavar="SHA",
                   help="git SHA to stamp (default: GITHUB_SHA env, then "
                        "git rev-parse, then 'unknown')")
    p = sub.add_parser(
        "check",
        help="exit 1 when the latest entry regresses vs the trailing median")
    p.add_argument("--history", default="BENCH_history.jsonl", metavar="PATH",
                   help="history file (default: BENCH_history.jsonl)")
    p.add_argument("--fraction", type=float, default=0.7, metavar="F",
                   help="fail when a headline drops below F x the trailing "
                        "median (default: 0.7)")
    p.add_argument("--window", type=int, default=10, metavar="N",
                   help="trailing entries per headline in the median "
                        "(default: 10)")


def bench_main(args) -> int:
    """Dispatch for the parsed ``bench`` namespace (CLI + shim)."""
    if args.bench_command == "record":
        bench_path = Path(args.bench)
        if not bench_path.exists():
            print(f"no bench file at {bench_path}", file=sys.stderr)
            return 2
        entry = record(bench_path, args.history, git_sha=args.sha)
        pairs = " ".join(f"{k}={v:g}" for k, v in entry["headlines"].items())
        print(f"recorded {entry['git_sha']} ({entry['mode']}) -> "
              f"{args.history}: {pairs}")
        return 0
    if args.bench_command == "check":
        history_path = Path(args.history)
        if not history_path.exists():
            print(f"no bench history at {history_path}", file=sys.stderr)
            return 2
        problems = check(history_path,
                         fraction=args.fraction, window=args.window)
        if problems:
            for problem in problems:
                print(f"bench regression: {problem}", file=sys.stderr)
            return 1
        entries = load_history(history_path)
        print(f"bench history ok: {len(entries)} entr"
              f"{'y' if len(entries) == 1 else 'ies'}, latest "
              f"{entries[-1].get('git_sha', '?') if entries else 'n/a'} "
              f"within {args.fraction:g}x of the trailing median")
        return 0
    raise ValueError(f"unknown bench command {args.bench_command!r}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench-history", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="bench_command", required=True)
    add_bench_parsers(sub)
    return bench_main(parser.parse_args(argv))
