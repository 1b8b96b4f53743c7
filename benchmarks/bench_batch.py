"""Batched vs scalar campaign throughput; merges into ``BENCH_engine.json``.

Measures cells/second of :func:`repro.campaigns.executor.run_chunk` —
the exact code path a campaign chunk takes — as a planned batch chunk
(``planned=True``: one lockstep :class:`~repro.core.batch.BatchCore` run
over the whole chunk, whatever its width) against a scalar chunk
(``planned=False``: the per-cell scalar loop).  Both sides
include engine/array construction and record assembly, so the ratio is
campaign throughput, not a kernel microbenchmark.

The headline is the chunk shape the batch path was built for: 256
same-shape cells (one full vector width) at k=32 on a 64-ring under the
random adversary — a seed-axis sweep chunk.  The widened frontier adds
two more headlines: a PT transport chunk (agents riding removed edges)
and an SSYNC chunk under the random-fair activation replica.  All three
speedups gate CI via ``--min-speedup`` (``make bench-batch``).

Usage::

    python benchmarks/bench_batch.py            # full grid
    python benchmarks/bench_batch.py --smoke    # CI mode, < 60 s
    make bench-batch

Results merge into the ``batch`` section of ``BENCH_engine.json`` so the
repo's perf trajectory carries the vectorization win alongside the
hot-path history.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.campaigns.executor import run_chunk  # noqa: E402
from repro.campaigns.spec import CellConfig  # noqa: E402
from repro.core.batch import numpy_available  # noqa: E402

#: The acceptance chunk: one full vector width of same-shape cells over
#: the seed axis — the composition ``default_chunk_size`` builds when a
#: sweep's cells all qualify.
HEADLINE = dict(algorithm="known-bound", ring_size=64, agents=32,
                adversary="random", transport="ns", max_rounds=192)
HEADLINE_CELLS = 256

#: The widened frontier's own acceptance chunks, each guarded like the
#: NS headline: PT rides under FSYNC (transport semantics isolated from
#: scheduling) and an SSYNC chunk under the heaviest scheduler replica
#: (random-fair draws per live agent per round).
HEADLINE_PT_ET = dict(algorithm="pt-bound", ring_size=64, agents=16,
                      adversary="random", transport="pt",
                      scheduler="fsync", max_rounds=192)
HEADLINE_SSYNC = dict(algorithm="known-bound", ring_size=64, agents=16,
                      adversary="random", transport="ns",
                      scheduler="random-fair", max_rounds=192)


def chunk_cells(base: dict, count: int) -> list[CellConfig]:
    cell = CellConfig(**base)
    return [replace(cell, seed=seed) for seed in range(count)]


def measure_chunk(cells: list[CellConfig], planned: bool, *,
                  repeats: int) -> dict:
    """Cells/second of ``run_chunk`` on one route (best of N)."""
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        records, batched = run_chunk(cells, planned=planned)
        elapsed = time.perf_counter() - start
        assert len(records) == len(cells)
        assert all("error" not in r for r in records)
        if planned:
            assert batched == len(cells), "headline cells must all batch"
        if best is None or elapsed < best:
            best = elapsed
    return {"cells": len(cells), "elapsed_s": round(best, 4),
            "cells_per_s": round(len(cells) / best, 1)}


def grid(smoke: bool) -> list[tuple[str, dict, int]]:
    rows = [
        ("known-bound(n=32,k=8)x256",
         dict(algorithm="known-bound", ring_size=32, agents=8,
              adversary="random", transport="ns", max_rounds=96), 256),
        ("unconscious(n=48,k=4)x256",
         dict(algorithm="unconscious", ring_size=48, agents=4,
              adversary="random", transport="ns", max_rounds=128,
              stop_on_exploration=True), 256),
        ("known-bound(n=16,k=2)x64",
         dict(algorithm="known-bound", ring_size=16, agents=2,
              adversary="periodic", edge=5, transport="ns",
              max_rounds=64), 64),
        ("et-exact(n=32,k=8,et)x256",
         dict(algorithm="et-exact", ring_size=32, agents=8,
              adversary="random", transport="et", scheduler="fsync",
              max_rounds=96), 256),
        ("pt-landmark(n=32,k=8,pt)x256",
         dict(algorithm="pt-landmark", ring_size=32, agents=8,
              adversary="random", transport="pt", scheduler="fsync",
              max_rounds=96), 256),
        ("landmark-chirality(n=32,k=4)x128",
         dict(algorithm="landmark-chirality", ring_size=32, agents=4,
              adversary="random", transport="ns", max_rounds=96), 128),
        ("known-bound(n=32,k=8,rr)x256",
         dict(algorithm="known-bound", ring_size=32, agents=8,
              adversary="random", transport="ns",
              scheduler="round-robin", max_rounds=96), 256),
    ]
    if smoke:
        rows = rows[:1]
    return rows


def measure_headline(base: dict, count: int, *, repeats: int,
                     label: str) -> dict:
    cells = chunk_cells(base, count)
    batched = measure_chunk(cells, True, repeats=repeats)
    scalar = measure_chunk(cells, False, repeats=repeats)
    headline = {
        "config": dict(base),
        "cells": count,
        "batched": batched,
        "scalar": scalar,
        "speedup": round(batched["cells_per_s"] / scalar["cells_per_s"], 2),
    }
    print(f"{label}: {batched['cells_per_s']:,.0f} vs "
          f"{scalar['cells_per_s']:,.0f} cells/s -> "
          f"{headline['speedup']}x", flush=True)
    return headline


def run(smoke: bool) -> dict:
    repeats = 1 if smoke else 3
    # The first BatchCore of a process imports NumPy: keep that one-off
    # cost out of the first row's timing.
    run_chunk(chunk_cells(HEADLINE, 1), planned=True)
    rows = []
    for label, base, count in grid(smoke):
        cells = chunk_cells(base, count)
        row = {
            "label": label,
            "batched": measure_chunk(cells, True, repeats=repeats),
            "scalar": measure_chunk(cells, False, repeats=repeats),
        }
        row["speedup"] = round(row["batched"]["cells_per_s"]
                               / row["scalar"]["cells_per_s"], 2)
        rows.append(row)
        print(f"  {label:<28} {row['batched']['cells_per_s']:>9,.0f} vs "
              f"{row['scalar']['cells_per_s']:>8,.0f} cells/s  "
              f"({row['speedup']}x)", flush=True)

    headline = measure_headline(
        HEADLINE, HEADLINE_CELLS, repeats=repeats,
        label=f"headline ({HEADLINE_CELLS} cells, n=64, k=32, random)")
    headline_pt_et = measure_headline(
        HEADLINE_PT_ET, HEADLINE_CELLS, repeats=repeats,
        label=f"headline-pt/et ({HEADLINE_CELLS} cells, pt-bound, n=64, "
              "k=16)")
    headline_ssync = measure_headline(
        HEADLINE_SSYNC, HEADLINE_CELLS, repeats=repeats,
        label=f"headline-ssync ({HEADLINE_CELLS} cells, random-fair, n=64, "
              "k=16)")

    return {
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "mode": "smoke" if smoke else "full",
        "headline": headline,
        "headline_pt_et": headline_pt_et,
        "headline_ssync": headline_ssync,
        "chunks": rows,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI mode: headline + one grid row, one repeat")
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_engine.json"),
                        help="JSON file to merge the batch section into")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="exit non-zero if the headline chunk's batched "
                             "throughput is below this multiple of scalar "
                             "(CI guard)")
    args = parser.parse_args(argv)

    if not numpy_available():
        print("FAIL: NumPy unavailable; the batch path cannot be measured",
              file=sys.stderr)
        return 1

    section = run(args.smoke)
    out = Path(args.out)
    results = json.loads(out.read_text()) if out.exists() else {
        "benchmark": "engine-hotpath",
        "python": platform.python_version(),
    }
    results["batch"] = section
    out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {out} (batch section merged)")
    if args.min_speedup is not None:
        failed = False
        for key in ("headline", "headline_pt_et", "headline_ssync"):
            if section[key]["speedup"] < args.min_speedup:
                print(f"FAIL: batch {key} speedup "
                      f"{section[key]['speedup']}x "
                      f"< required {args.min_speedup}x", file=sys.stderr)
                failed = True
        if failed:
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
