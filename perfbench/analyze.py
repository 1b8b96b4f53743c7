"""Per-layer metrics from the span dumps of one traced run.

Self times come straight from the dumps: each process summed them per
layer as it ran.  Coverage asks what share of the traced wall those
self times account for.  The main process's wall splits exactly into
the self times of its frames.  Its layer frames count as covered; the
root frame (``cli.main``) and the frames that wait on worker processes
(:data:`WAIT`) do not.  The part of a waiting frame that no in-process
child covers counts as covered only while some worker process is inside
a layer span.  The rest is ``trace.unattributed_s``: argument parsing,
process spawn, poll sleeps and the tracer's own work.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from traced_cli import REJECT_KEYS

ROOT_SPAN = "cli.main"
#: Frames whose self time is spent waiting on worker processes.
WAIT = ("executor.run", "distributed.run", "distributed.worker")

#: Layers reported as ``<layer>_s``: summed self time over all processes.
TIMED = (
    "startup.interpreter", "startup.import", "startup.exit", ROOT_SPAN,
    "spec.expand", "spec.key", "registry.validate",
    "stores.open", "stores.dedupe", "stores.commit", "stores.report",
    "aggregate.render", "aggregate.metrics",
    "executor.run", "executor.pool_task", "executor.chunk", "executor.route",
    "core.batch.run", "core.sim.run",
    "distributed.run", "distributed.worker", "distributed.enqueue",
    "distributed.claim", "distributed.complete",
)
COUNTS = (
    "spec.cells", "stores.dedupe_keys", "stores.commit_calls",
    "stores.commit_records", "executor.cells_batched", "executor.cells_scalar",
    *(f"executor.batch_reject.{key}"
      for key in (*REJECT_KEYS, "other", "routed")),
    "core.batch.cell_rounds", "core.sim.rounds",
    "distributed.enqueue_chunks", "distributed.claims",
)
#: Every per-layer metric, in report order, with its unit.
PER_LAYER = (
    *((f"{name}_s", "s") for name in TIMED),
    *((name, "count") for name in COUNTS),
    ("core.batch.groups", "count"),
    ("core.batch.width_min", "cells"),
    ("core.batch.width_mean", "cells"),
    ("core.batch.us_per_cell_round", "us"),
    ("core.sim.us_per_round", "us"),
    ("distributed.unattributed_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.unattributed_s", "s"),
)


def _union(intervals) -> list[tuple[float, float]]:
    merged: list[list[float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(s, e) for s, e in merged]


def _minus(start: float, end: float, holes) -> list[tuple[float, float]]:
    gaps, cursor = [], start
    for hole_start, hole_end in _union(holes):
        hole_start, hole_end = max(hole_start, start), min(hole_end, end)
        if hole_end <= hole_start:
            continue
        if hole_start > cursor:
            gaps.append((cursor, hole_start))
        cursor = max(cursor, hole_end)
    if cursor < end:
        gaps.append((cursor, end))
    return gaps


def _overlap(a, b) -> float:
    """Length of the intersection of two sorted, disjoint interval lists."""
    total, i, j = 0.0, 0, 0
    while i < len(a) and j < len(b):
        lo, hi = max(a[i][0], b[j][0]), min(a[i][1], b[j][1])
        total += max(0.0, hi - lo)
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return total


def analyze(trace_dir: Path, *, exit_t: float,
            untraced_wall: float) -> dict[str, float]:
    """Per-layer metrics of the traced run whose dumps are in ``trace_dir``."""
    dumps = [json.loads(p.read_text()) for p in sorted(trace_dir.glob("*.json"))]
    main = next(d for d in dumps if "meta" in d)
    meta = main["meta"]
    wall = exit_t - meta["launch"]
    if meta["missing"]:
        # A renamed entry point loses its layer's time silently otherwise.
        print(f"perfbench: entry points not found, left untraced: "
              f"{', '.join(meta['missing'])}", file=sys.stderr)

    self_s: dict[str, float] = defaultdict(float)
    counts: dict[str, float] = defaultdict(float)
    widths: list[int] = []
    for dump in dumps:
        for name, (_calls, seconds) in dump["layers"].items():
            self_s[name] += seconds
        for name, value in dump["counts"].items():
            counts[name] += value
        widths += dump["widths"]
    startup = {
        "startup.interpreter": meta["first"] - meta["launch"],
        "startup.import": meta["import"][1] - meta["import"][0],
        "startup.exit": exit_t - meta["main"][1],
    }
    self_s.update(startup)

    covered = sum(startup.values()) + sum(
        seconds for name, (_calls, seconds) in main["layers"].items()
        if name != ROOT_SPAN and name not in WAIT)
    busy = _union((s[3], s[4]) for d in dumps if d is not main
                  for s in d["spans"] if s[2] not in WAIT)
    children = defaultdict(list)
    for _span_id, parent, _name, t0, t1, _light in main["spans"]:
        children[parent].append((t0, t1))
    waiting_unattributed = 0.0
    for span_id, _parent, name, t0, t1, light in main["spans"]:
        if name not in WAIT:
            continue
        gaps = _minus(t0, t1, children[span_id])
        overlap = _overlap(gaps, busy)
        covered += overlap
        if name == "distributed.run":
            waiting_unattributed += max(
                0.0, sum(e - s for s, e in gaps) - light - overlap)
    covered = min(covered, wall)

    metrics = {f"{name}_s": self_s[name] for name in TIMED}
    metrics.update({name: counts[name] for name in COUNTS})
    batch_rounds = counts["core.batch.cell_rounds"]
    sim_rounds = counts["core.sim.rounds"]
    metrics.update({
        "core.batch.groups": len(widths),
        "core.batch.width_min": min(widths, default=0),
        "core.batch.width_mean": statistics.fmean(widths) if widths else 0.0,
        "core.batch.us_per_cell_round": (
            1e6 * self_s["core.batch.run"] / batch_rounds
            if batch_rounds else 0.0),
        "core.sim.us_per_round": (
            1e6 * self_s["core.sim.run"] / sim_rounds if sim_rounds else 0.0),
        "distributed.unattributed_s": waiting_unattributed,
        "trace.wall_s": wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": wall - untraced_wall,
        "trace.coverage": covered / wall,
        "trace.unattributed_s": wall - covered,
    })
    return metrics
