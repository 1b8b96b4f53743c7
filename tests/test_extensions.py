"""The arbitrary-topology extension (paper §5 open problem)."""

import pytest

from repro.core.errors import AdversaryViolation, ConfigurationError
from repro.extensions import (
    ConnectivityPreservingAdversary,
    DynamicGraphEngine,
    RandomWalkExplorer,
    RotorRouterExplorer,
    StaticGraphAdversary,
    TerminatingRotorRouter,
    hypercube,
    path_graph,
    ring_graph,
    torus,
)
from repro.extensions.explorers import attach_node_oracle

TOPOLOGIES = {
    "ring12": ring_graph(12),
    "torus3x4": torus(3, 4),
    "cube3": hypercube(3),
}


def run_walker(graph, explorer, *, adversary=None, agents=1, horizon=60_000,
               rotor=False):
    engine = DynamicGraphEngine(
        graph, explorer, list(range(agents)),
        adversary=adversary or StaticGraphAdversary(),
    )
    if rotor:
        attach_node_oracle(engine)
    return engine.run(horizon)


class TestTopologies:
    def test_ring_matches_cycle(self):
        graph = ring_graph(8)
        assert graph.number_of_nodes() == 8
        assert all(d == 2 for _, d in graph.degree())

    def test_torus_is_4_regular(self):
        graph = torus(3, 5)
        assert graph.number_of_nodes() == 15
        assert all(d == 4 for _, d in graph.degree())

    def test_hypercube_degrees(self):
        graph = hypercube(4)
        assert graph.number_of_nodes() == 16
        assert all(d == 4 for _, d in graph.degree())


class TestEngineBasics:
    def test_requires_agents_and_connectivity(self):
        import networkx as nx

        with pytest.raises(ConfigurationError):
            DynamicGraphEngine(ring_graph(5), RandomWalkExplorer(), [])
        disconnected = nx.Graph([(0, 1), (2, 3)])
        with pytest.raises(ConfigurationError):
            DynamicGraphEngine(disconnected, RandomWalkExplorer(), [0])

    def test_start_node_must_exist(self):
        with pytest.raises(ConfigurationError):
            DynamicGraphEngine(ring_graph(5), RandomWalkExplorer(), [99])

    def test_adversary_cannot_disconnect(self):
        class Disconnector:
            def reset(self, engine):
                return None

            def missing_edges(self, engine):
                # remove both edges of node 0: disconnects a ring
                return {frozenset((0, 1)), frozenset((0, 4))}

        engine = DynamicGraphEngine(
            ring_graph(5), RandomWalkExplorer(seed=1), [2],
            adversary=Disconnector(),
        )
        with pytest.raises(AdversaryViolation):
            engine.step()

    def test_connectivity_preserving_adversary_is_legal(self):
        engine = DynamicGraphEngine(
            torus(3, 4), RandomWalkExplorer(seed=2), [0],
            adversary=ConnectivityPreservingAdversary(budget=3, seed=5),
        )
        for _ in range(50):
            engine.step()  # the engine itself validates connectivity

    def test_blocked_agent_waits_on_port(self):
        class RemoveAll:
            """Keep the agent's port-0 edge missing while switched on."""

            def __init__(self):
                self.on = True

            def reset(self, engine):
                return None

            def missing_edges(self, engine):
                if not self.on:
                    return set()
                agent = engine.agents[0]
                return {engine._edge_of_port(agent.node, 0)}

        class PushPortZero:
            name = "push0"

            def setup(self, memory):
                return None

            def choose_port(self, snapshot, memory):
                return 0

        adversary = RemoveAll()
        engine = DynamicGraphEngine(
            ring_graph(6), PushPortZero(), [3], adversary=adversary
        )
        engine.step()
        assert engine.agents[0].port == 0
        assert engine.agents[0].node == 3
        adversary.on = False
        engine.step()
        assert engine.agents[0].node != 3

    def test_port_mutual_exclusion(self):
        class PushPortZero:
            name = "push0"

            def setup(self, memory):
                return None

            def choose_port(self, snapshot, memory):
                return 0

        class HoldEverything:
            def reset(self, engine):
                return None

            def missing_edges(self, engine):
                return {frozenset((0, 1))}  # port 0 of node 0 is edge (0,1)

        engine = DynamicGraphEngine(
            ring_graph(6), PushPortZero(), [0, 0], adversary=HoldEverything()
        )
        engine.step()
        holders = [a for a in engine.agents if a.port == 0]
        assert len(holders) == 1  # the other agent was denied


class TestExploration:
    @pytest.mark.parametrize("label", sorted(TOPOLOGIES))
    def test_random_walk_explores_static(self, label):
        result = run_walker(TOPOLOGIES[label], RandomWalkExplorer(seed=7))
        assert result.explored

    @pytest.mark.parametrize("label", sorted(TOPOLOGIES))
    def test_rotor_router_explores_static(self, label):
        result = run_walker(TOPOLOGIES[label], RotorRouterExplorer(), rotor=True)
        assert result.explored

    @pytest.mark.parametrize("label", sorted(TOPOLOGIES))
    def test_random_walk_explores_dynamic(self, label):
        result = run_walker(
            TOPOLOGIES[label], RandomWalkExplorer(seed=11),
            adversary=ConnectivityPreservingAdversary(budget=1, seed=13),
        )
        assert result.explored

    @pytest.mark.parametrize("label", sorted(TOPOLOGIES))
    def test_rotor_router_explores_dynamic(self, label):
        result = run_walker(
            TOPOLOGIES[label], RotorRouterExplorer(), rotor=True,
            adversary=ConnectivityPreservingAdversary(budget=1, seed=17),
        )
        assert result.explored

    def test_multiple_agents_explore_faster_on_average(self):
        graph = torus(4, 4)
        solo = run_walker(graph, RandomWalkExplorer(seed=3))
        team = run_walker(graph, RandomWalkExplorer(seed=3), agents=4)
        assert team.explored
        assert team.exploration_round <= solo.exploration_round

    def test_rotor_router_requires_the_oracle(self):
        engine = DynamicGraphEngine(ring_graph(6), RotorRouterExplorer(), [0])
        with pytest.raises(ConfigurationError):
            engine.step()


class TestUnifiedCoreMachinery:
    """Ring machinery on graph topologies (the engine unification)."""

    def test_ssync_round_robin_activates_one_agent_per_round(self):
        from repro.schedulers import RoundRobinScheduler

        engine = DynamicGraphEngine(
            torus(3, 4), RandomWalkExplorer(seed=2), [0, 5, 9],
            scheduler=RoundRobinScheduler(),
        )
        seen = []
        for _ in range(6):
            engine.step()
            assert len(engine.last_active) == 1
            seen.append(next(iter(engine.last_active)))
        assert set(seen) == {0, 1, 2}  # fair rotation over the team

    def test_ssync_random_walk_still_explores(self):
        from repro.schedulers import RandomFairScheduler

        engine = DynamicGraphEngine(
            torus(3, 3), RandomWalkExplorer(seed=4), [0, 4],
            scheduler=RandomFairScheduler(seed=9),
            adversary=ConnectivityPreservingAdversary(budget=1, seed=5),
        )
        result = engine.run(60_000)
        assert result.explored

    def test_pt_transport_carries_sleeping_agents(self):
        """A sleeping agent on a port of a present edge crosses under PT."""
        from repro.core.sim import TransportModel
        from repro.schedulers.ssync import ScriptedScheduler

        class PushPortZero:
            name = "push0"

            def setup(self, memory):
                return None

            def choose_port(self, snapshot, memory):
                return 0

        class BlockOnce:
            """Missing on the agent's first attempt, present afterwards."""

            def __init__(self):
                self.round = 0

            def reset(self, engine):
                self.round = 0

            def missing_edges(self, engine):
                self.round += 1
                if self.round == 1:
                    return {engine._edge_of_port(engine.agents[0].node, 0)}
                return set()

        engine = DynamicGraphEngine(
            torus(3, 3), PushPortZero(), [0, 4],
            adversary=BlockOnce(),
            scheduler=ScriptedScheduler([{0}, {1}]),
            transport=TransportModel.PT,
        )
        engine.step()  # agent 0 acquires port 0, edge missing: blocked
        assert engine.agents[0].port == 0
        engine.step()  # agent 0 sleeps; PT carries it across the present edge
        assert engine.agents[0].port is None
        assert engine.agents[0].node != 0
        assert engine.agents[0].memory.Tsteps == 1

    def test_terminating_rotor_reaches_explicit_termination(self):
        graph = hypercube(3)
        explorer = TerminatingRotorRouter(size=graph.number_of_nodes())
        engine = DynamicGraphEngine(graph, explorer, [0, 3])
        attach_node_oracle(engine)
        result = engine.run(10_000, stop_on_exploration=False)
        assert result.explored
        assert result.all_terminated
        assert result.termination_mode().value == "explicit"
        assert result.explored_before_terminations()

    def test_peeking_block_agent_pins_its_target(self):
        from repro.adversary import BlockAgentAdversary
        from repro.extensions import ConnectivitySafeAdversary

        engine = DynamicGraphEngine(
            torus(3, 3), RotorRouterExplorer(), [0, 4],
            adversary=ConnectivitySafeAdversary(BlockAgentAdversary(0)),
        )
        attach_node_oracle(engine)
        for _ in range(200):
            engine.step()
        assert engine.agents[0].node == 0
        assert engine.agents[0].memory.Tsteps == 0
        assert engine.agents[1].memory.Tsteps > 0

    def test_connectivity_safe_wrapper_declines_bridges(self):
        from repro.adversary import BlockAgentAdversary
        from repro.extensions import ConnectivitySafeAdversary

        # every path edge is a bridge: the wrapper must always decline,
        # so the walk proceeds as if the adversary were static
        engine = DynamicGraphEngine(
            path_graph(6), RandomWalkExplorer(seed=3), [2],
            adversary=ConnectivitySafeAdversary(BlockAgentAdversary(0)),
        )
        result = engine.run(20_000)
        assert result.explored

    def test_trace_records_graph_rounds(self):
        from repro.core.trace import EventKind, Trace

        trace = Trace(limit=None)
        engine = DynamicGraphEngine(
            ring_graph(6), RandomWalkExplorer(seed=1), [0, 3], trace=trace)
        engine.run(50)
        kinds = {e.kind for e in trace.events}
        assert EventKind.ROUND in kinds
        assert EventKind.MOVE in kinds
        assert trace.of_kind(EventKind.EXPLORED)

    def test_landmark_is_visible_in_graph_snapshots(self):
        class Idle:
            name = "idle"

            def setup(self, memory):
                return None

            def choose_port(self, snapshot, memory):
                return None

        from tests.core.look_oracle import graph_look

        engine = DynamicGraphEngine(torus(3, 3), Idle(), [4], landmark=4)
        snap = engine.snapshot_for(engine.agents[0])
        assert snap.is_landmark
        assert graph_look(engine, engine.agents[0]).is_landmark

    def test_run_returns_the_unified_result_type(self):
        from repro.core.results import RunResult

        engine = DynamicGraphEngine(ring_graph(5), RandomWalkExplorer(seed=8), [0])
        result = engine.run(10_000)
        assert isinstance(result, RunResult)
        assert result.ring_size == 5  # node count, for any topology
        assert result.total_moves == sum(
            a.memory.Tsteps for a in engine.agents)
