"""The engine's hot path against its frozen oracles.

The hot path (occupancy index, peek cache, snapshot interning, fused
Look/Compute) must be *behaviourally invisible*.  It was proven in
lockstep against an O(k)-scan reference path; that path is retired, and
what the lockstep compared is pinned as digests:

* ``golden_ring_traces.json`` — the ring matrix at seeds 0 and 1,
  recorded by the pre-refactor engine on both of its Look paths;
* ``golden_lockstep_traces.json`` — the ring matrix at seed 7, the graph
  cells at seeds 0 and 3, and 20 chaos-protocol configurations, recorded
  with the reference path asserted equal.

Between fixtures, single-engine invariants check every round: the
indexed Look against the scan Look of ``tests/core/look_oracle.py``,
every cached peek against a fresh Compute, and port mutual exclusion.
They run on random chaos protocols and on the ring matrix itself at the
lockstep suite's seeds 0, 1 and 7.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.campaigns.registry import build_cell_engine, build_graph_cell_engine
from repro.campaigns.spec import CellConfig
from repro.core import Engine, LEFT, Ring, STAY
from repro.core.actions import ActionKind
from repro.core.snapshot import intern_snapshot
from repro.schedulers import FsyncScheduler

from tests.core import golden_traces
from tests.core.look_oracle import graph_look, ring_look

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


@pytest.fixture(scope="module")
def lockstep_pins():
    return golden_traces.load_lockstep_fixture()


@pytest.mark.parametrize("index", range(14), ids=lambda i: f"cell{i}")
@pytest.mark.parametrize("seed", golden_traces.RING_LOCKSTEP_SEEDS)
def test_ring_lockstep_replay(lockstep_pins, index, seed):
    """Ring matrix at seed 7: events, every per-round peek, result."""
    cell = replace(golden_traces.GOLDEN_CELLS[index], seed=seed)
    assert (golden_traces.run_digest(cell)
            == lockstep_pins["ring"][golden_traces.ring_key(cell)])


@pytest.mark.parametrize("index", range(10), ids=lambda i: f"cell{i}")
@pytest.mark.parametrize("seed", golden_traces.GRAPH_SEEDS)
def test_graph_lockstep_replay(lockstep_pins, index, seed):
    """Graph cells: events, per-round snapshots and agent state, result."""
    pytest.importorskip("networkx")
    cell = replace(golden_traces.GRAPH_CELLS[index], seed=seed)
    assert (golden_traces.graph_digest(cell)
            == lockstep_pins["graph"][golden_traces.graph_key(cell)])


@pytest.mark.parametrize("index", range(20), ids=lambda i: f"config{i}")
def test_chaos_lockstep_replay(lockstep_pins, index):
    """Fixed chaos-protocol configurations: events, peeks, result."""
    config = lockstep_pins["chaos"][index]
    assert golden_traces.chaos_digest(config) == config["digest"]


def _peek_edge(engine, agent, action):
    """The edge a MOVE ``action`` of ``agent`` would try to cross."""
    if action.kind is not ActionKind.MOVE:
        return None
    port = agent.left_global if action.direction is LEFT else agent.right_global
    return engine.topology.edge_from(agent.node, port)


def _check_every_round(engine, rounds: int) -> None:
    """Step ``engine`` up to ``rounds`` times, checking every round:

    * the indexed Look equals the scan oracle;
    * every cached peek (action and edge) equals a fresh Compute on a
      clone of the agent's memory;
    * no port occupied at the start of the round gets a new holder
      during it.
    """
    held_at_start: dict = {}
    resolve = engine._resolve_actions

    def resolve_checked(decisions):
        movers = resolve(decisions)
        for agent in engine.agents:
            if agent.port is not None:
                key = (agent.node, agent.port)
                assert held_at_start.get(key, agent.index) == agent.index, (
                    f"port {key} changed hands in round {engine.round_no}")
        return movers

    engine._resolve_actions = resolve_checked
    for _ in range(rounds):
        for agent in engine.agents:
            look = ring_look(engine, agent)
            assert engine.snapshot_for(agent) == look
            if agent.terminated:
                continue
            fresh = engine.algorithm.compute(look, agent.memory.clone())
            assert engine.peek_intended_action(agent.index) == fresh
            assert (engine.peek_intended_edge(agent.index)
                    == _peek_edge(engine, agent, fresh))
        held_at_start.clear()
        held_at_start.update({(a.node, a.port): a.index
                              for a in engine.agents if a.port is not None})
        if not engine.step():
            break


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**20),
    n=st.integers(4, 12),
    agents=st.integers(1, 5),
    transport=st.sampled_from(["ns", "pt", "et"]),
    fsync=st.booleans(),
)
def test_chaos_equivalence(seed, n, agents, transport, fsync):
    """Random protocols, adversaries and schedulers, checked every round."""
    engine = golden_traces.build_chaos_engine(
        {"seed": seed, "n": n, "agents": agents, "transport": transport,
         "fsync": fsync})
    _check_every_round(engine, golden_traces.CHAOS_ROUNDS)


@pytest.mark.parametrize(
    "cell", golden_traces.GOLDEN_CELLS,
    ids=[f"{c.algorithm}-{c.adversary}-{c.transport}"
         for c in golden_traces.GOLDEN_CELLS],
)
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_cell_equivalence(cell: CellConfig, seed: int):
    """The paper's algorithms under every peeking adversary, checked every
    round against the scan Look, a fresh Compute and port exclusion."""
    cell = replace(cell, seed=seed)
    _check_every_round(build_cell_engine(cell), cell.max_rounds)


def test_indexed_snapshot_matches_scan_every_round():
    """The index read equals a fresh O(k) scan, every round."""
    cell = CellConfig(algorithm="known-bound", ring_size=10, agents=6,
                      max_rounds=60, adversary="random", transport="ns",
                      scheduler="random-fair")
    engine = build_cell_engine(cell)
    for _ in range(60):
        for agent in engine.agents:
            assert engine.snapshot_for(agent) == ring_look(engine, agent)
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


#: Computes per round on the engine bench's headline cell (n=1000, k=32,
#: ``ns-starvation``).  The adversary peeks at every agent every round,
#: so each uncached peek costs a Compute: 33.0 per round with the peek
#: cache cleared every round (34.0 on the retired reference path), 2.1
#: with the cache.
COMPUTES_PER_ROUND_BUDGET = 2.5


def test_peek_cache_bounds_computes_per_round():
    cell = CellConfig(algorithm="known-bound", ring_size=1000, agents=32,
                      max_rounds=300, adversary="ns-starvation",
                      transport="ns")
    engine = build_cell_engine(cell)
    compute = engine.algorithm.compute
    calls = 0

    def counted(snapshot, memory):
        nonlocal calls
        calls += 1
        return compute(snapshot, memory)

    engine.algorithm.compute = counted
    result = engine.run(cell.max_rounds)
    assert result.rounds == cell.max_rounds
    assert calls / result.rounds <= COMPUTES_PER_ROUND_BUDGET


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


def test_graph_index_matches_scan_every_round():
    pytest.importorskip("networkx")
    cell = CellConfig(algorithm="random-walk", ring_size=9, agents=5,
                      max_rounds=80, adversary="random", topology="ring", seed=5)
    engine = build_graph_cell_engine(cell)
    for _ in range(80):
        for agent in engine.agents:
            assert engine.snapshot_for(agent) == graph_look(engine, agent)
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
    the fixture.  One run per cell is checked against both pinned paths.
    """

    @pytest.fixture(scope="class")
    def pinned(self):
        return golden_traces.load_fixture()

    @pytest.mark.parametrize(
        "index", range(14), ids=lambda i: f"cell{i}")
    @pytest.mark.parametrize("seed", [0, 1])
    def test_ring_digest_matches_legacy(self, pinned, index, seed):
        cell = replace(golden_traces.GOLDEN_CELLS[index], seed=seed)
        digest = golden_traces.run_digest(cell)
        for path in golden_traces.LEGACY_PATHS:
            key = f"{golden_traces.ring_key(cell)}-{path}"
            assert key in pinned, f"fixture missing {key}; regenerate deliberately"
            assert digest == pinned[key], key

    def test_fixture_covers_the_whole_matrix(self, pinned):
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

        qualifying = [i for i, cell in enumerate(golden_traces.GOLDEN_CELLS)
                      if batch_eligible(cell)]
        assert qualifying == [0, 1, 2, 3, 4, 9, 10, 11, 12]

    @pytest.mark.parametrize("index", [0, 1, 2, 3, 4, 9, 10, 11, 12],
                             ids=lambda i: f"cell{i}")
    @pytest.mark.parametrize("seed", [0, 1])
    def test_batch_replay_matches_pinned_result(self, index, seed):
        from repro.analysis.differential import result_payload
        from repro.core.batch import BatchCore, numpy_available

        if not numpy_available():
            pytest.skip("batch core needs numpy")
        cell = replace(golden_traces.GOLDEN_CELLS[index], seed=seed)
        # the digest of this very run is still the legacy-pinned one
        pinned = golden_traces.load_fixture()
        assert (golden_traces.run_digest(cell)
                == pinned[f"{golden_traces.ring_key(cell)}-opt"])
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
    noisy = replace(cell, debug_invariants=True)
    assert build_cell_engine(noisy)._debug
    # The flag only changes the store key when enabled (old stores resume).
    assert cell.key() != noisy.key()
