"""Trace-equivalence between the optimized and reference engine paths.

The hot-path rebuild (occupancy index, peek caching, snapshot interning,
fused Look/Compute) must be *behaviourally invisible*: seed-matched
configurations run through ``optimized=True`` and ``optimized=False``
must produce identical :class:`~repro.core.trace.Trace` event streams,
identical :class:`~repro.core.results.RunResult`s, identical per-round
peeks, and (for the graph engine) identical per-round agent state.

Coverage is property-style: a grid of named campaign cells spanning every
transport model and every peeking adversary, plus a hypothesis chaos
algorithm under random adversaries/schedulers.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.adversary import RandomMissingEdge
from repro.campaigns.registry import build_cell_engine, build_graph_cell_engine
from repro.campaigns.spec import CellConfig
from repro.core import Engine, LEFT, RIGHT, Ring, STAY, TransportModel, move
from repro.core.snapshot import intern_snapshot
from repro.schedulers import FsyncScheduler, RandomFairScheduler

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


def _lockstep(cell: CellConfig, rounds: int | None = None):
    """Run a cell through both paths in lockstep; compare as we go."""
    from repro.core.trace import Trace

    t_opt, t_ref = Trace(limit=None), Trace(limit=None)
    opt = build_cell_engine(cell, trace=t_opt, optimized=True)
    ref = build_cell_engine(cell, trace=t_ref, optimized=False)
    horizon = rounds if rounds is not None else cell.max_rounds
    for _ in range(horizon):
        # Peeks (cached on the optimized path, fresh on the reference one)
        # must agree for every live agent before each round.
        for agent in opt.agents:
            i = agent.index
            assert opt.peek_intended_action(i) == ref.peek_intended_action(i)
            assert opt.peek_intended_edge(i) == ref.peek_intended_edge(i)
        stepped_opt = opt.step()
        stepped_ref = ref.step()
        assert stepped_opt == stepped_ref
        if not stepped_opt:
            break
    assert t_opt.events == t_ref.events
    assert opt._build_result("equivalence") == ref._build_result("equivalence")
    return opt, ref


# One cell per (transport x adversary-style) corner, every peeking
# adversary included; ring sizes/horizons sized to finish fast while
# leaving the constructions room to exhibit their behaviour.
EQUIVALENCE_CELLS = [
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


@pytest.mark.parametrize(
    "cell", EQUIVALENCE_CELLS,
    ids=[f"{c.algorithm}-{c.adversary}-{c.transport}" for c in EQUIVALENCE_CELLS],
)
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_cell_equivalence(cell: CellConfig, seed: int):
    from dataclasses import replace

    _lockstep(replace(cell, seed=seed))


class ChaosAlgorithm:
    """Deterministic pseudo-random protocol (hash of own observations)."""

    name = "hotpath-chaos"

    def __init__(self, seed: int) -> None:
        self._seed = seed

    def setup(self, memory) -> None:
        return None

    def compute(self, snapshot, memory):
        h = hash((self._seed, memory.Ttime, memory.Tsteps, memory.net,
                  snapshot.on_port, snapshot.others_in_node,
                  snapshot.other_on_left_port, snapshot.other_on_right_port,
                  snapshot.moved, snapshot.failed))
        choice = h % 4
        if choice == 0:
            return move(LEFT)
        if choice == 1:
            return move(RIGHT)
        if choice == 2 and snapshot.on_port is not None:
            from repro.core.actions import ENTER_NODE

            return ENTER_NODE
        return STAY


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**20),
    n=st.integers(4, 12),
    agents=st.integers(1, 5),
    transport=st.sampled_from(list(TransportModel)),
    fsync=st.booleans(),
)
def test_chaos_equivalence(seed, n, agents, transport, fsync):
    """Random protocols, adversaries and schedulers: both paths agree."""
    from repro.api import build_engine
    from repro.core.trace import Trace

    def make(optimized: bool) -> tuple[Engine, Trace]:
        trace = Trace(limit=None)
        engine = build_engine(
            ChaosAlgorithm(seed),
            ring_size=n,
            positions=[(seed + 3 * i) % n for i in range(agents)],
            landmark=seed % n if seed % 2 else None,
            chirality=False,
            flipped=tuple(i for i in range(agents) if (seed >> i) & 1),
            adversary=RandomMissingEdge(seed=seed),
            scheduler=(FsyncScheduler() if fsync
                       else RandomFairScheduler(seed=seed + 1)),
            transport=transport,
            trace=trace,
            optimized=optimized,
        )
        return engine, trace

    opt, t_opt = make(True)
    ref, t_ref = make(False)
    for _ in range(50):
        for agent in opt.agents:
            assert (opt.peek_intended_action(agent.index)
                    == ref.peek_intended_action(agent.index))
        opt.step()
        ref.step()
    assert t_opt.events == t_ref.events
    assert opt._build_result("x") == ref._build_result("x")


def test_indexed_snapshot_matches_scan_every_round():
    """On one optimized engine, the index read equals a fresh O(k) scan."""
    cell = CellConfig(algorithm="known-bound", ring_size=10, agents=6,
                      max_rounds=60, adversary="random", transport="ns",
                      scheduler="random-fair")
    engine = build_cell_engine(cell)
    for _ in range(60):
        for agent in engine.agents:
            assert engine.snapshot_for(agent) == engine._snapshot_for_scan(agent)
        if not engine.step():
            break


def test_cached_peek_matches_fresh_compute():
    """Cache hits return exactly what an uncached peek would."""
    cell = CellConfig(algorithm="known-bound", ring_size=12, agents=8,
                      max_rounds=80, adversary="ns-starvation", transport="ns")
    engine = build_cell_engine(cell)
    for _ in range(80):
        cached = {i: engine.peek_intended_action(i)
                  for i in range(len(engine.agents))}
        cached_edges = {i: engine.peek_intended_edge(i)
                        for i in range(len(engine.agents))}
        engine._peek_cache.clear()
        for i, action in cached.items():
            assert engine.peek_intended_action(i) == action
            assert engine.peek_intended_edge(i) == cached_edges[i]
        engine.step()


def test_snapshot_interning_reuses_instances():
    snap_a = intern_snapshot(None, 1, False, True, False, True, False)
    snap_b = intern_snapshot(None, 1, False, True, False, True, False)
    assert snap_a is snap_b
    assert snap_a == snap_b
    assert intern_snapshot(LEFT, 1, False, True, False, True, False) is not snap_a


def test_occupancy_index_survives_model_check_deepcopy():
    """The exhaustive search deepcopies engines mid-run; the index and the
    peek cache must stay consistent in every branch (the engine's debug
    invariants, on under pytest, verify the index each round)."""
    from repro.analysis.model_check import verify_theorem3

    result = verify_theorem3(5)
    assert result.all_succeeded
    assert result.worst_value == 3 * 5 - 6


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


@pytest.mark.parametrize(
    "cell", GRAPH_CELLS,
    ids=[f"{c.algorithm}-{c.topology}-{c.adversary}-{c.scheduler}"
         for c in GRAPH_CELLS],
)
@pytest.mark.parametrize("seed", [0, 3])
def test_graph_engine_equivalence(cell: CellConfig, seed: int):
    """Graph cells: indexed and scan paths agree on full per-round state."""
    from dataclasses import replace

    pytest.importorskip("networkx")
    from repro.core.trace import Trace

    cell = replace(cell, seed=seed)
    t_opt, t_ref = Trace(limit=None), Trace(limit=None)
    opt = build_graph_cell_engine(cell, trace=t_opt, optimized=True)
    ref = build_graph_cell_engine(cell, trace=t_ref, optimized=False)
    for _ in range(cell.max_rounds):
        for a_opt, a_ref in zip(opt.agents, ref.agents):
            assert opt.snapshot_for(a_opt) == ref.snapshot_for(a_ref)
        stepped_opt = opt.step()
        stepped_ref = ref.step()
        assert stepped_opt == stepped_ref
        state_opt = [(a.node, a.port, a.terminated, a.memory.moved,
                      a.memory.Tsteps) for a in opt.agents]
        state_ref = [(a.node, a.port, a.terminated, a.memory.moved,
                      a.memory.Tsteps) for a in ref.agents]
        assert state_opt == state_ref
        if opt.exploration_complete or not stepped_opt:
            break
    assert t_opt.events == t_ref.events
    assert opt.visited == ref.visited
    assert opt.exploration_round == ref.exploration_round
    assert opt._build_result("equivalence") == ref._build_result("equivalence")


def test_graph_index_matches_scan_every_round():
    pytest.importorskip("networkx")
    cell = CellConfig(algorithm="random-walk", ring_size=9, agents=5,
                      max_rounds=80, adversary="random", topology="ring", seed=5)
    engine = build_graph_cell_engine(cell)
    for _ in range(80):
        for agent in engine.agents:
            assert engine.snapshot_for(agent) == engine._snapshot_for_scan(agent)
        engine.step()


class TestUnifiedVsLegacyGolden:
    """The ring is byte-identical through the topology-generic core.

    ``tests/core/golden_ring_traces.json`` pins sha256 digests of the full
    event stream, every per-round peek (action + intended edge) of every
    agent, and the final result, recorded by the *pre-refactor* ring-only
    engine (commit 556f46f) over the equivalence-cell matrix — both the
    optimized and the reference Look paths.  Replaying the same cells
    through the unified core must reproduce each digest exactly: this is
    the unified-vs-legacy lockstep proof, with the legacy side frozen in
    the fixture.
    """

    @pytest.fixture(scope="class")
    def pinned(self):
        from tests.core import golden_traces

        return golden_traces.load_fixture()

    @pytest.mark.parametrize(
        "index", range(14), ids=lambda i: f"cell{i}")
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("optimized", [True, False],
                             ids=["opt", "ref"])
    def test_ring_digest_matches_legacy(self, pinned, index, seed, optimized):
        from dataclasses import replace

        from tests.core import golden_traces

        cell = replace(golden_traces.GOLDEN_CELLS[index], seed=seed)
        key = golden_traces.cell_id(cell, optimized)
        assert key in pinned, f"fixture missing {key}; regenerate deliberately"
        assert golden_traces.run_digest(cell, optimized=optimized) == pinned[key]

    def test_fixture_covers_the_whole_matrix(self, pinned):
        from tests.core import golden_traces

        assert len(golden_traces.GOLDEN_CELLS) == 14
        assert len(pinned) == 14 * len(golden_traces.GOLDEN_SEEDS) * 2


class TestBatchVsGolden:
    """Qualifying golden cells replay through the vectorized BatchCore.

    Eligibility is decided by the *shared* routing predicate
    (:func:`repro.core.batch_rules.batch_eligible` — the same function the
    executor and the distributed worker import), and each qualifying
    cell's BatchCore run must reproduce the ``result`` block of the
    pinned golden digest exactly.  The digest over the same scalar run
    is re-verified against the fixture in the same test, so payload
    equality chains batch == scalar == legacy (commit 556f46f).
    """

    def test_exactly_the_oblivious_fault_free_cells_qualify(self):
        # The widened frontier (PT/ET transports, landmark algorithms,
        # SSYNC schedulers, the block-agent peek) leaves only the golden
        # cells of the other peeking adversaries on the scalar path;
        # cell 4 is landmark-no-chirality under block-agent.
        from repro.core.batch_rules import batch_eligible

        from tests.core import golden_traces

        qualifying = [i for i, cell in enumerate(golden_traces.GOLDEN_CELLS)
                      if batch_eligible(cell)]
        assert qualifying == [0, 1, 2, 3, 4, 9, 10, 11, 12]

    @pytest.mark.parametrize("index", [0, 1, 2, 3, 4, 9, 10, 11, 12],
                             ids=lambda i: f"cell{i}")
    @pytest.mark.parametrize("seed", [0, 1])
    def test_batch_replay_matches_pinned_result(self, index, seed):
        from dataclasses import replace

        from repro.analysis.differential import result_payload
        from repro.core.batch import BatchCore, numpy_available

        from tests.core import golden_traces

        if not numpy_available():
            pytest.skip("batch core needs numpy")
        cell = replace(golden_traces.GOLDEN_CELLS[index], seed=seed)
        # the digest of this very run is still the legacy-pinned one
        pinned = golden_traces.load_fixture()
        assert (golden_traces.run_digest(cell, optimized=True)
                == pinned[golden_traces.cell_id(cell, True)])
        golden = golden_traces.golden_result_payload(cell)
        # replay under the digest's stepping discipline: no early stop
        # on exploration; the "golden" halt label is the loop's, not a
        # semantic difference.
        core = BatchCore([replace(cell, stop_on_exploration=False)])
        batch = result_payload(core.run()[0])
        batch["halted_reason"] = golden["halted_reason"] = None
        assert batch == golden


def test_debug_invariants_flag_resolution():
    """Default resolves on under pytest; campaign cells default it off."""
    ring = Ring(6)

    class Idle:
        name = "idle"

        def setup(self, memory):
            return None

        def compute(self, snapshot, memory):
            return STAY

    from repro.adversary import NoRemoval

    auto = Engine(ring, Idle(), [0], scheduler=FsyncScheduler(),
                  adversary=NoRemoval())
    assert auto._debug  # pytest detected
    off = Engine(ring, Idle(), [0], scheduler=FsyncScheduler(),
                 adversary=NoRemoval(), debug_invariants=False)
    assert not off._debug
    cell = CellConfig(algorithm="known-bound", ring_size=6, agents=2,
                      max_rounds=10, adversary="none", transport="ns")
    assert not build_cell_engine(cell)._debug
    from dataclasses import replace

    noisy = replace(cell, debug_invariants=True)
    assert build_cell_engine(noisy)._debug
    # The flag only changes the store key when enabled (old stores resume).
    assert cell.key() != noisy.key()
