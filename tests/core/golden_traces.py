"""Golden-trace digests: the legacy ring engine, frozen as a fixture.

The unified topology-generic core (``repro.core.sim``) replaced the
original ring-only round loop of ``core/engine.py``.  To prove the ring
is *trace-exact* through the new core, this module records a canonical
digest of everything observable about a run — the full event stream,
every per-round peek of every agent, and the final result — and
``tests/core/golden_ring_traces.json`` pins the digests produced by the
**pre-refactor engine** (recorded at the commit that still contained the
legacy loop).  The equivalence suite replays the same cells through the
current engine and asserts byte-identical digests.  The legacy engine
had two Look paths, an indexed one and an O(k)-scan reference; each cell
carries one digest per path (``-opt``/``-ref``) and the two are equal.

``tests/core/golden_lockstep_traces.json`` freezes the rest of what the
lockstep suite compared while the engine still carried the reference
path (``optimized=False``): the ring matrix at seed 7, the graph cells
under their per-round snapshot/state discipline, and 20 fixed
chaos-protocol configurations.  Each digest was recorded on the engine
of 3121d16 with both paths asserted equal.

Regenerate (only when a *deliberate* behaviour change is being made)::

    PYTHONPATH=src python -m tests.core.golden_traces --record
    PYTHONPATH=src python -m tests.core.golden_traces --record-lockstep
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.campaigns.spec import CellConfig

FIXTURE = Path(__file__).with_name("golden_ring_traces.json")

#: The recorded matrix: one cell per (transport x adversary-style)
#: corner, every peeking adversary included.  Deliberately a frozen copy
#: (not an import from the equivalence suite) so extending that suite
#: can never silently change what the golden fixture covers.
GOLDEN_CELLS = [
    CellConfig(algorithm="known-bound", ring_size=12, agents=2, max_rounds=80,
               adversary="random", transport="ns"),
    CellConfig(algorithm="known-bound", ring_size=10, agents=5, max_rounds=80,
               adversary="random", scheduler="round-robin", transport="ns"),
    CellConfig(algorithm="unconscious", ring_size=9, agents=3, max_rounds=60,
               adversary="random", transport="ns", stop_on_exploration=True),
    CellConfig(algorithm="landmark-chirality", ring_size=10, agents=2,
               max_rounds=120, adversary="random", transport="ns", landmark=0),
    CellConfig(algorithm="landmark-no-chirality", ring_size=8, agents=2,
               max_rounds=200, adversary="block-agent", transport="ns",
               landmark=0, chirality=False, flipped=(1,)),
    CellConfig(algorithm="known-bound", ring_size=10, agents=2, max_rounds=120,
               adversary="prevent-meetings", transport="ns"),
    CellConfig(algorithm="known-bound", ring_size=12, agents=6, max_rounds=150,
               adversary="ns-starvation", transport="ns"),
    CellConfig(algorithm="known-bound", ring_size=9, agents=2, max_rounds=40,
               adversary="figure2", transport="ns", placement="explicit",
               positions=(0, 1), chirality=False, flipped=(0, 1)),
    CellConfig(algorithm="pt-bound", ring_size=10, agents=2, max_rounds=200,
               adversary="zigzag", transport="pt", adversary_arg=3),
    CellConfig(algorithm="pt-landmark", ring_size=9, agents=2, max_rounds=200,
               adversary="random", transport="pt", landmark=0),
    CellConfig(algorithm="pt-bound-3", ring_size=9, agents=3, max_rounds=250,
               adversary="random", transport="pt"),
    CellConfig(algorithm="et-unconscious", ring_size=8, agents=2, max_rounds=200,
               adversary="random", transport="et"),
    CellConfig(algorithm="et-exact", ring_size=9, agents=3, max_rounds=300,
               adversary="random", transport="et", bound=9),
    CellConfig(algorithm="et-exact", ring_size=12, agents=3, max_rounds=200,
               adversary="theorem19", transport="et", bound=6,
               placement="explicit", positions=(0, 2, 4)),
]

GOLDEN_SEEDS = (0, 1)


#: The legacy engine's two Look paths, as suffixes of the fixture keys.
LEGACY_PATHS = ("opt", "ref")


def ring_key(cell: CellConfig) -> str:
    return (f"{cell.algorithm}-{cell.adversary}-{cell.transport}"
            f"-n{cell.ring_size}-k{cell.agents}-seed{cell.seed}")


def run_digest(cell: CellConfig) -> str:
    """One canonical sha256 over a run's events, peeks and result.

    Uses only process-stable serialisations (enum ``.value``/``.name``,
    ``str`` of event details, plain ints) — never Python ``hash`` or
    object reprs that may grow fields — so digests recorded by the
    legacy engine stay comparable forever.
    """
    from repro.campaigns.registry import build_cell_engine
    from repro.core.trace import Trace

    trace = Trace(limit=None)
    engine = build_cell_engine(cell, trace=trace)
    return _peek_digest(engine, trace, cell.max_rounds)


def _peek_digest(engine, trace, rounds: int) -> str:
    """Step ``engine`` up to ``rounds`` times, peeking every agent before
    each round; digest the events, the peeks and the result."""
    peeks = []
    for _ in range(rounds):
        row = []
        for agent in engine.agents:
            action = engine.peek_intended_action(agent.index)
            row.append([
                action.kind.value,
                action.direction.name if action.direction is not None else None,
                engine.peek_intended_edge(agent.index),
            ])
        peeks.append(row)
        if not engine.step():
            break
    return _digest({
        "events": _events(trace),
        "peeks": peeks,
        "result": _result_block(engine._build_result("golden")),
    })


def _events(trace) -> list:
    return [[e.round, e.kind.value, e.agent, str(e.detail)]
            for e in trace.events]


def _result_block(result) -> dict:
    return {
        "ring_size": result.ring_size,
        "rounds": result.rounds,
        "explored": result.explored,
        "exploration_round": result.exploration_round,
        "visited": sorted(result.visited),
        "halted_reason": result.halted_reason,
        "agents": [[a.index, a.moves, a.terminated, a.termination_round,
                    a.final_node, a.waiting_on_port]
                   for a in result.agents],
    }


def _digest(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def record() -> dict[str, str]:
    from dataclasses import replace

    digests: dict[str, str] = {}
    for cell in GOLDEN_CELLS:
        for seed in GOLDEN_SEEDS:
            seeded = replace(cell, seed=seed)
            digest = run_digest(seeded)
            for path in LEGACY_PATHS:
                digests[f"{ring_key(seeded)}-{path}"] = digest
    return digests


def golden_result_payload(cell: CellConfig) -> dict:
    """The ``result`` block of :func:`run_digest`'s payload, un-hashed.

    Runs the exact stepping discipline the digest uses (step up to
    ``max_rounds``, ignoring ``stop_on_exploration``; halt reason is the
    literal ``"golden"`` label).  The batch-replay tests compare
    :class:`~repro.core.batch.BatchCore` output against this block: the
    digest over the same run is pinned by the fixture, so payload
    equality here chains batch == scalar == legacy.
    """
    from repro.campaigns.registry import build_cell_engine

    engine = build_cell_engine(cell)
    for _ in range(cell.max_rounds):
        if not engine.step():
            break
    return _result_block(engine._build_result("golden"))


def load_fixture() -> dict[str, str]:
    return json.loads(FIXTURE.read_text())


# ----------------------------------------------------------------------
# The lockstep fixture: what the optimized-vs-reference lockstep suite
# compared, frozen as digests (recorded with both paths asserted equal).
# ----------------------------------------------------------------------

LOCKSTEP_FIXTURE = Path(__file__).with_name("golden_lockstep_traces.json")

#: The lockstep suite ran the ring matrix at seeds 0, 1 and 7; the legacy
#: fixture above pins 0 and 1, so this one adds 7.
RING_LOCKSTEP_SEEDS = (7,)

#: Graph cells across the widened matrix the unified core opened up:
#: SSYNC schedulers, ET transport, the peeking block-agent adversary and
#: an explicitly terminating explorer — all on non-ring topologies.
GRAPH_CELLS = [
    CellConfig(algorithm="random-walk", ring_size=12, agents=3, max_rounds=150,
               adversary="random", topology="ring"),
    CellConfig(algorithm="random-walk", ring_size=10, agents=2, max_rounds=150,
               adversary="random", topology="path"),
    CellConfig(algorithm="rotor-router", ring_size=12, agents=3, max_rounds=150,
               adversary="random", topology="torus"),
    CellConfig(algorithm="rotor-router", ring_size=11, agents=4, max_rounds=150,
               adversary="none", topology="cactus"),
    CellConfig(algorithm="rotor-router", ring_size=12, agents=3, max_rounds=200,
               adversary="block-agent", topology="torus",
               scheduler="round-robin"),
    CellConfig(algorithm="rotor-router-terminating", ring_size=9, agents=2,
               max_rounds=400, adversary="random", topology="cactus",
               scheduler="random-fair", transport="et"),
    # The Observation-2 port: meeting prevention through the generic
    # topology, on the path (every removal suppressed — the degree-2
    # boundary) and on the graph-facade ring (every removal legal).
    CellConfig(algorithm="rotor-router", ring_size=9, agents=2, max_rounds=200,
               adversary="prevent-meetings", topology="path"),
    CellConfig(algorithm="rotor-router", ring_size=10, agents=2, max_rounds=200,
               adversary="prevent-meetings", topology="ring",
               scheduler="round-robin"),
    # Theorem 9's combined adversary/scheduler off the ring: starves the
    # ring, is forced to let the path explore.
    CellConfig(algorithm="rotor-router", ring_size=8, agents=2, max_rounds=150,
               adversary="ns-starvation", topology="path",
               stop_on_exploration=True),
    CellConfig(algorithm="rotor-router", ring_size=8, agents=2, max_rounds=150,
               adversary="ns-starvation", topology="ring"),
]

GRAPH_SEEDS = (0, 3)

#: Rounds every chaos configuration runs.
CHAOS_ROUNDS = 50


def graph_key(cell: CellConfig) -> str:
    return (f"{cell.algorithm}-{cell.topology}-{cell.adversary}"
            f"-{cell.scheduler}-n{cell.ring_size}-k{cell.agents}"
            f"-seed{cell.seed}")


def graph_digest(cell: CellConfig) -> str:
    """Digest of a graph cell under the lockstep suite's discipline.

    Per round: every agent's Look snapshot, then one step, then every
    agent's ``(node, port, terminated, moved, Tsteps)``; stop once the
    graph is explored or no agent is live.  No peeks: a random walk's
    speculative Compute would advance its RNG.
    """
    from repro.campaigns.registry import build_graph_cell_engine
    from repro.core.trace import Trace

    trace = Trace(limit=None)
    engine = build_graph_cell_engine(cell, trace=trace)
    rounds = []
    for _ in range(cell.max_rounds):
        looks = []
        for agent in engine.agents:
            snap = engine.snapshot_for(agent)
            looks.append([snap.degree, snap.on_port, snap.others_in_node,
                          sorted(snap.occupied_ports), snap.moved,
                          snap.failed, snap.is_landmark])
        stepped = engine.step()
        rounds.append([looks, stepped,
                       [[a.node, a.port, a.terminated, a.memory.moved,
                         a.memory.Tsteps] for a in engine.agents]])
        if engine.exploration_complete or not stepped:
            break
    return _digest({
        "events": _events(trace),
        "rounds": rounds,
        "result": _result_block(engine._build_result("equivalence")),
    })


class ChaosAlgorithm:
    """A deterministic pseudo-random ring protocol.

    Each decision is a CRC of the agent's own observations, so any
    divergence in what an agent sees or remembers changes its future
    moves.  The CRC (unlike Python's ``hash``) is stable across
    processes, which is what lets its runs be pinned as digests.
    """

    name = "hotpath-chaos"

    def __init__(self, seed: int) -> None:
        self._seed = seed

    def setup(self, memory) -> None:
        return None

    def compute(self, snapshot, memory):
        import zlib

        from repro.core import ENTER_NODE, LEFT, RIGHT, STAY, move

        on_port = snapshot.on_port
        key = (self._seed, memory.Ttime, memory.Tsteps, memory.net,
               None if on_port is None else on_port.name,
               snapshot.others_in_node, snapshot.other_on_left_port,
               snapshot.other_on_right_port, snapshot.moved, snapshot.failed)
        choice = zlib.crc32(repr(key).encode()) % 4
        if choice == 0:
            return move(LEFT)
        if choice == 1:
            return move(RIGHT)
        if choice == 2 and on_port is not None:
            return ENTER_NODE
        return STAY


def chaos_configs(count: int = 20, seed: int = 2016) -> list[dict]:
    """``count`` chaos configurations from a seeded generator.

    The strategy space is the chaos property test's: protocol seed in
    ``[0, 2**20]``, ring size 4..12, 1..5 agents, any transport, FSYNC
    or a random fair scheduler.  Transport and scheduler cycle through
    their six combinations so each is covered; the rest is drawn.
    """
    import random

    rng = random.Random(seed)
    return [{"seed": rng.randint(0, 2**20), "n": rng.randint(4, 12),
             "agents": rng.randint(1, 5),
             "transport": ("ns", "pt", "et")[i % 3],
             "fsync": (i // 3) % 2 == 0}
            for i in range(count)]


def build_chaos_engine(config: dict, *, trace=None):
    """The ring engine one chaos configuration describes."""
    from repro.adversary import RandomMissingEdge
    from repro.api import build_engine
    from repro.core import TransportModel
    from repro.schedulers import FsyncScheduler, RandomFairScheduler

    seed, n, agents = config["seed"], config["n"], config["agents"]
    return build_engine(
        ChaosAlgorithm(seed),
        ring_size=n,
        positions=[(seed + 3 * i) % n for i in range(agents)],
        landmark=seed % n if seed % 2 else None,
        chirality=False,
        flipped=tuple(i for i in range(agents) if (seed >> i) & 1),
        adversary=RandomMissingEdge(seed=seed),
        scheduler=(FsyncScheduler() if config["fsync"]
                   else RandomFairScheduler(seed=seed + 1)),
        transport=TransportModel(config["transport"]),
        trace=trace,
    )


def chaos_digest(config: dict) -> str:
    """Digest of one chaos configuration: events, peeks and result."""
    from repro.core.trace import Trace

    trace = Trace(limit=None)
    engine = build_chaos_engine(config, trace=trace)
    return _peek_digest(engine, trace, CHAOS_ROUNDS)


def record_lockstep() -> dict:
    """The lockstep fixture's digests, from the current engine."""
    from dataclasses import replace

    ring = {}
    for cell in GOLDEN_CELLS:
        for seed in RING_LOCKSTEP_SEEDS:
            seeded = replace(cell, seed=seed)
            ring[ring_key(seeded)] = run_digest(seeded)
    graph = {}
    for cell in GRAPH_CELLS:
        for seed in GRAPH_SEEDS:
            seeded = replace(cell, seed=seed)
            graph[graph_key(seeded)] = graph_digest(seeded)
    chaos = [dict(config, digest=chaos_digest(config))
             for config in chaos_configs()]
    return {"ring": ring, "graph": graph, "chaos": chaos}


def load_lockstep_fixture() -> dict:
    return json.loads(LOCKSTEP_FIXTURE.read_text())


if __name__ == "__main__":  # pragma: no cover - manual regeneration entry
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true",
                        help="rewrite the legacy fixture from the current "
                             "engine")
    parser.add_argument("--record-lockstep", action="store_true",
                        help="rewrite the lockstep fixture from the current "
                             "engine")
    args = parser.parse_args()
    if args.record_lockstep:
        pins = record_lockstep()
        LOCKSTEP_FIXTURE.write_text(
            json.dumps(pins, indent=1, sort_keys=True) + "\n")
        print(f"wrote {LOCKSTEP_FIXTURE} ({len(pins['ring'])} ring, "
              f"{len(pins['graph'])} graph, {len(pins['chaos'])} chaos)")
        raise SystemExit(0)
    digests = record()
    if args.record:
        FIXTURE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
        print(f"wrote {FIXTURE} ({len(digests)} digests)")
    else:
        pinned = load_fixture()
        bad = [k for k, v in digests.items() if pinned.get(k) != v]
        print("MISMATCH:" if bad else "all digests match",
              ", ".join(bad) if bad else f"({len(digests)} digests)")
