"""Round-loop throughput of the engine hot path; persists ``BENCH_engine.json``.

Unlike the pytest-benchmark suites next to it, this is a standalone
script: it sweeps ring sizes 10^2..10^5, agent counts 1..64 and the three
transport models, the peeking adversaries, and the headline worst-case
configuration (n=1000, k=32, ``ns-starvation``), and reports absolute
rounds/second for each row; the headline is the median of
:data:`HEADLINE_WINDOWS` one-second windows.  Rates depend on the host,
so compare them only between runs on the same machine (``python -m repro
bench`` keys its history by a host fingerprint).  What the peek cache saves on the
headline cell is pinned deterministically instead, as Computes per
round, by ``tests/core/test_hotpath_equivalence.py``.

Usage::

    python benchmarks/bench_engine_hotpath.py           # full sweep
    python benchmarks/bench_engine_hotpath.py --smoke   # CI mode, < 60 s
    make bench / make bench-smoke

Results land in ``BENCH_engine.json`` at the repo root (override with
``--out``) so the repository carries a perf trajectory reviewers can
diff PR over PR.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.campaigns.registry import build_cell_engine  # noqa: E402
from repro.campaigns.spec import CellConfig  # noqa: E402

#: The acceptance configuration: a peek-heavy omniscient adversary over a
#: mid-size ring and team — the regime every impossibility sweep lives in.
HEADLINE = dict(algorithm="known-bound", ring_size=1000, agents=32,
                adversary="ns-starvation", transport="ns")

WARMUP_ROUNDS = 30

#: Measurement windows behind the headline, which reports their median:
#: on a shared host one window alone swung by half (12.3k and 18.3k
#: rounds/s on the same cell), more than ``bench check`` allows for.
HEADLINE_WINDOWS = 5


def measure(cell: CellConfig, *, budget_s: float,
            max_rounds: int = 200_000, prepare=None) -> dict:
    """Rounds/second for one configuration.

    Engines that run out of live agents are rebuilt mid-measurement so
    short-lived algorithms still yield sustained-throughput numbers.
    ``prepare`` (if given) runs against every freshly built engine —
    the hook the observability-overhead measurement uses to attach a
    phase timer.
    """
    def build():
        engine = build_cell_engine(cell)
        if prepare is not None:
            prepare(engine)
        return engine

    engine = build()
    for _ in range(WARMUP_ROUNDS):
        if not engine.step():
            engine = build()
    rounds = 0
    elapsed = 0.0
    start = time.perf_counter()
    while rounds < max_rounds:
        if not engine.step():
            # Rebuild outside the clock: engine construction is not the
            # round loop.
            elapsed += time.perf_counter() - start
            engine = build()
            start = time.perf_counter()
            continue
        rounds += 1
        if rounds % 64 == 0:
            elapsed_now = elapsed + (time.perf_counter() - start)
            if elapsed_now >= budget_s:
                break
    elapsed += time.perf_counter() - start
    return {"rounds": rounds, "elapsed_s": round(elapsed, 4),
            "rounds_per_s": round(rounds / elapsed, 1) if elapsed else None}


def headline_entry(window_s: float) -> dict:
    """The headline cell measured in :data:`HEADLINE_WINDOWS` windows of
    ``window_s`` each; ``rounds_per_s`` is the median window's rate."""
    cell = CellConfig(max_rounds=10**8, **HEADLINE)
    windows = [measure(cell, budget_s=window_s)
               for _ in range(HEADLINE_WINDOWS)]
    rates = [w["rounds_per_s"] for w in windows]
    return {"config": dict(HEADLINE),
            "rounds": sum(w["rounds"] for w in windows),
            "elapsed_s": round(sum(w["elapsed_s"] for w in windows), 4),
            "rounds_per_s": statistics.median(rates),
            "window_rounds_per_s": rates}


def sweep_cell(ring_size: int, agents: int, transport: str) -> CellConfig:
    """A sustained workload per transport: unconscious explorers never
    terminate, so the loop runs for as long as the budget allows."""
    return CellConfig(
        algorithm="unconscious", ring_size=ring_size, agents=agents,
        max_rounds=10**8, adversary="random", transport=transport,
    )


def worst_case_cells() -> list[tuple[str, CellConfig]]:
    """The look-ahead (peeking) adversaries at benchmark scale."""
    return [
        ("ns-starvation(n=1000,k=32)", CellConfig(
            max_rounds=10**8, **HEADLINE)),
        ("block-agent(n=1000,k=8)", CellConfig(
            algorithm="unconscious", ring_size=1000, agents=8,
            max_rounds=10**8, adversary="block-agent", transport="ns")),
        ("zigzag(n=200,k=2)", CellConfig(
            algorithm="pt-bound", ring_size=200, agents=2,
            max_rounds=10**8, adversary="zigzag", transport="pt")),
    ]


def obs_overhead_entry(budget: float) -> dict:
    """Cost of the observability layer on the headline configuration.

    The engine has one ``step()``; with no timer attached its only
    observability cost is one attribute read per round and a few
    ``if timer is not None`` branches (``tests/obs/test_instrumented_step.py``
    asserts a timed run follows the same trajectory).  ``disabled`` is
    an A/A re-measurement of the baseline, so its overhead percentage
    bounds the *noise floor* the ``--max-obs-overhead`` CI guard runs
    at; ``enabled`` (a live :class:`~repro.obs.metrics.PhaseTimer` on
    every round) is reported for context, not gated.  Measurements
    interleave baseline/disabled/enabled; the gated percentage is the
    *minimum over interleaved pairs* — a real regression slows every
    pair by the same factor and survives the minimum, while scheduler
    noise (which flips sign across pairs) collapses to zero instead of
    flaking a 2% threshold.
    """
    from repro.obs.metrics import PhaseTimer

    cell = CellConfig(max_rounds=10**8, **HEADLINE)

    def plain() -> float:
        return measure(cell, budget_s=budget)["rounds_per_s"]

    def instrumented() -> float:
        def prepare(engine):
            engine.set_instrument(PhaseTimer())
        return measure(cell, budget_s=budget,
                       prepare=prepare)["rounds_per_s"]

    baseline = disabled = enabled = 0.0
    paired = []
    for _ in range(3):
        b, d, e = plain(), plain(), instrumented()
        baseline, disabled, enabled = (
            max(baseline, b), max(disabled, d), max(enabled, e))
        paired.append(1 - d / b)
    entry = {
        "config": dict(HEADLINE),
        "baseline_rounds_per_s": baseline,
        "disabled_rounds_per_s": disabled,
        "enabled_rounds_per_s": enabled,
        "disabled_overhead_pct": round(max(0.0, min(paired)) * 100, 2),
        "enabled_overhead_pct": round(
            max(0.0, 1 - enabled / baseline) * 100, 2),
    }
    print(f"  obs overhead (headline): disabled "
          f"{entry['disabled_overhead_pct']}% "
          f"(A/A noise bound), enabled {entry['enabled_overhead_pct']}% "
          f"({enabled:,.0f} vs {baseline:,.0f} rounds/s)", flush=True)
    return entry


def graph_cells(smoke: bool) -> list[tuple[str, CellConfig]]:
    """Graph-topology workloads on the unified core (requires networkx).

    Explorers never terminate, so every cell sustains for the budget;
    ``adversary="random"`` includes the per-round connectivity check the
    connectivity-preserving adversary pays, ``"none"`` isolates the
    engine itself.
    """
    n = 64 if smoke else 1024  # torus factorises: 8x8 / 32x32
    cells = [
        (f"torus-walk(n={n},k=1)", CellConfig(
            algorithm="random-walk", ring_size=n, agents=1, max_rounds=10**8,
            adversary="none", topology="torus")),
        (f"torus-walk(n={n},k=8)", CellConfig(
            algorithm="random-walk", ring_size=n, agents=8, max_rounds=10**8,
            adversary="none", topology="torus")),
        # The connectivity-preserving adversary re-checks connectivity
        # per round (O(m) in networkx), so its row uses a smaller torus —
        # at large n it measures networkx, not the engine.
        (f"torus-walk-adv(n={min(n, 256)},k=8)", CellConfig(
            algorithm="random-walk", ring_size=min(n, 256), agents=8,
            max_rounds=10**8, adversary="random", topology="torus")),
        (f"torus-rotor(n={n},k=8)", CellConfig(
            algorithm="rotor-router", ring_size=n, agents=8, max_rounds=10**8,
            adversary="none", topology="torus")),
        (f"cactus-walk(n={n+1},k=8)", CellConfig(
            algorithm="random-walk", ring_size=n + 1, agents=8,
            max_rounds=10**8, adversary="none", topology="cactus")),
        (f"ring-walk(n={n},k=8)", CellConfig(
            algorithm="random-walk", ring_size=n, agents=8, max_rounds=10**8,
            adversary="none", topology="ring")),
    ]
    return cells


def run_graph(smoke: bool, budget_s: float | None) -> list[dict]:
    """The graph-topology section (``--graph`` / ``make bench-graph``)."""
    budget = budget_s or (0.05 if smoke else 0.2)
    rows = []
    for label, cell in graph_cells(smoke):
        row = {
            "workload": "graph", "label": label,
            "topology": cell.topology, "algorithm": cell.algorithm,
            "nodes": cell.ring_size, "agents": cell.agents,
            "adversary": cell.adversary,
            **measure(cell, budget_s=budget),
        }
        rows.append(row)
        print(f"  {label:<26} {row['rounds_per_s']:>10,.0f} rounds/s",
              flush=True)
    return rows


def run(smoke: bool, budget_s: float | None) -> dict:
    if smoke:
        ring_sizes = [100, 1000]
        agent_counts = [1, 8, 16]
        budget = budget_s or 0.05
    else:
        ring_sizes = [100, 1000, 10_000, 100_000]
        agent_counts = [1, 8, 64]
        budget = budget_s or 0.2

    sweeps = []
    for transport in ("ns", "pt", "et"):
        for n in ring_sizes:
            for k in agent_counts:
                cell = sweep_cell(n, k, transport)
                row = {
                    "workload": "sweep", "transport": transport,
                    "ring_size": n, "agents": k, "adversary": "random",
                    **measure(cell, budget_s=budget),
                }
                sweeps.append(row)
                print(f"  {transport} n={n:>6} k={k:<3} "
                      f"{row['rounds_per_s']:>10,.0f} rounds/s", flush=True)

    for label, cell in worst_case_cells():
        row = {
            "workload": "worst-case", "label": label,
            "transport": cell.transport, "ring_size": cell.ring_size,
            "agents": cell.agents, "adversary": cell.adversary,
            **measure(cell, budget_s=budget * 2),
        }
        sweeps.append(row)
        print(f"  {label:<28} {row['rounds_per_s']:>10,.0f} rounds/s",
              flush=True)

    # The headline feeds the bench history, so give each window a full
    # second even in smoke mode: sub-0.2s windows on shared runners are
    # noisy.
    headline = headline_entry(max(budget * 4, 1.0))
    print(f"headline (n=1000, k=32, ns-starvation): "
          f"{headline['rounds_per_s']:,.0f} rounds/s (median of "
          f"{HEADLINE_WINDOWS} windows)", flush=True)

    results = {
        "benchmark": "engine-hotpath",
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "mode": "smoke" if smoke else "full",
        "headline": headline,
        "sweeps": sweeps,
        "obs_overhead": obs_overhead_entry(max(budget * 2, 0.5)),
    }
    if not smoke:
        # Full runs also refresh the graph-topology section; smoke (CI)
        # skips it to protect the <60s budget — `make bench-graph` merges
        # it on demand.
        results["graph"] = run_graph(smoke, budget_s)
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI mode: small grid, tiny budgets (< 60 s)")
    parser.add_argument("--graph", action="store_true",
                        help="measure only the graph-topology workloads and "
                             "merge them into the existing --out JSON "
                             "(make bench-graph)")
    parser.add_argument("--budget", type=float, default=None,
                        help="seconds of measurement per configuration")
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_engine.json"),
                        help="output JSON path (default: repo root)")
    parser.add_argument("--max-obs-overhead", type=float, default=None,
                        metavar="PCT",
                        help="exit non-zero if disabled instrumentation "
                             "costs more than PCT%% on the headline "
                             "(CI guard; e.g. 2.0)")
    args = parser.parse_args(argv)

    out = Path(args.out)
    if args.graph:
        rows = run_graph(args.smoke, args.budget)
        results = json.loads(out.read_text()) if out.exists() else {
            "benchmark": "engine-hotpath",
            "python": platform.python_version(),
        }
        results["graph"] = rows
        results["created"] = datetime.now(timezone.utc).isoformat(
            timespec="seconds")
        out.write_text(json.dumps(results, indent=2) + "\n")
        print(f"wrote {out} (graph section merged)")
        return 0

    results = run(args.smoke, args.budget)
    out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {out}")
    if args.max_obs_overhead is not None:
        pct = results["obs_overhead"]["disabled_overhead_pct"]
        if pct > args.max_obs_overhead:
            print(f"FAIL: disabled instrumentation overhead {pct}% "
                  f"> allowed {args.max_obs_overhead}%", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
