"""Engine semantics: the round loop of Section 2.1, pinned by tests.

Uses a scripted pseudo-algorithm so every effect (port mutual exclusion,
blocking, crossing, passive transport, counters) is isolated from real
algorithm logic.
"""

import itertools

import pytest

from repro.adversary import FixedMissingEdge, NoRemoval
from repro.core import (
    ENTER_NODE,
    Engine,
    EventKind,
    GlobalDirection,
    LEFT,
    MIRRORED,
    RIGHT,
    Ring,
    STAY,
    TERMINATE,
    Trace,
    TransportModel,
    move,
)
from repro.core.errors import AdversaryViolation, ConfigurationError, InvariantViolation
from repro.schedulers import FsyncScheduler, ScriptedScheduler


class ScriptedAlgorithm:
    """Plays back a fixed action list per agent (tests only).

    Scripts are assigned to agents in construction order; once a script is
    exhausted the agent STAYs forever.
    """

    name = "scripted"

    def __init__(self, *scripts):
        self._scripts = list(scripts)
        self._assign = itertools.count()

    def setup(self, memory):
        memory.vars["script"] = self._scripts[next(self._assign)]
        memory.vars["pc"] = 0

    def compute(self, snapshot, memory):
        script = memory.vars["script"]
        pc = memory.vars["pc"]
        if pc >= len(script):
            return STAY
        memory.vars["pc"] = pc + 1
        return script[pc]


def engine_for(scripts, n=6, positions=(0,), adversary=None, scheduler=None,
               transport=TransportModel.NS, orientations=None, landmark=None,
               trace=None, **options):
    return Engine(
        Ring(n, landmark=landmark),
        ScriptedAlgorithm(*scripts),
        list(positions),
        orientations=orientations,
        scheduler=scheduler or FsyncScheduler(),
        adversary=adversary or NoRemoval(),
        transport=transport,
        trace=trace,
        **options,
    )


class TestConstruction:
    def test_requires_agents(self):
        with pytest.raises(ConfigurationError):
            engine_for([], positions=[])

    def test_orientation_count_must_match(self):
        with pytest.raises(ConfigurationError):
            engine_for([[]], positions=[0], orientations=[])

    def test_positions_are_normalized(self):
        engine = engine_for([[]], n=5, positions=[7])
        assert engine.agents[0].node == 2

    def test_initial_nodes_are_visited(self):
        engine = engine_for([[], []], n=6, positions=[1, 4])
        assert engine.visited == {1, 4}

    def test_landmark_observed_at_setup(self):
        engine = engine_for([[]], n=6, positions=[2], landmark=2)
        assert engine.agents[0].memory.landmark_seen


class TestBasicMovement:
    def test_left_move_with_canonical_orientation_decrements_index(self):
        engine = engine_for([[move(LEFT)]], n=6, positions=[3])
        engine.step()
        assert engine.agents[0].node == 2

    def test_right_move_increments_index(self):
        engine = engine_for([[move(RIGHT)]], n=6, positions=[3])
        engine.step()
        assert engine.agents[0].node == 4

    def test_mirrored_orientation_flips_movement(self):
        engine = engine_for(
            [[move(LEFT)]], n=6, positions=[3], orientations=[MIRRORED]
        )
        engine.step()
        assert engine.agents[0].node == 4

    def test_mover_arrives_in_interior(self):
        engine = engine_for([[move(LEFT)]], n=6, positions=[3])
        engine.step()
        assert engine.agents[0].port is None

    def test_counters_after_successful_move(self):
        engine = engine_for([[move(LEFT)]], n=6, positions=[3])
        engine.step()
        mem = engine.agents[0].memory
        assert mem.Ttime == 1
        assert mem.Tsteps == 1
        assert mem.net == -1
        assert mem.moved

    def test_stay_keeps_everything(self):
        engine = engine_for([[STAY]], n=6, positions=[3])
        engine.step()
        mem = engine.agents[0].memory
        assert engine.agents[0].node == 3
        assert mem.Tsteps == 0
        assert mem.Ttime == 1

    def test_walks_around_the_ring(self):
        engine = engine_for([[move(RIGHT)] * 6], n=6, positions=[0])
        for _ in range(6):
            engine.step()
        assert engine.agents[0].node == 0
        assert engine.exploration_complete
        assert engine.exploration_round == 5  # last new node entered in round 4


class TestBlocking:
    def test_missing_edge_blocks_the_mover(self):
        # Moving LEFT from node 3 (canonical) crosses edge 2.
        engine = engine_for([[move(LEFT)] * 3], n=6, positions=[3],
                            adversary=FixedMissingEdge(2))
        engine.step()
        agent = engine.agents[0]
        assert agent.node == 3
        assert agent.port is GlobalDirection.MINUS
        assert not agent.memory.moved
        assert agent.memory.Btime == 1

    def test_btime_accumulates_while_pushing_same_port(self):
        engine = engine_for([[move(LEFT)] * 4], n=6, positions=[3],
                            adversary=FixedMissingEdge(2))
        for _ in range(4):
            engine.step()
        assert engine.agents[0].memory.Btime == 4

    def test_blocked_agent_crosses_once_edge_returns(self):
        engine = engine_for([[move(LEFT)] * 3], n=6, positions=[3],
                            adversary=FixedMissingEdge(2, until_round=2))
        engine.step()
        engine.step()
        assert engine.agents[0].node == 3
        engine.step()
        assert engine.agents[0].node == 2
        assert engine.agents[0].memory.Btime == 0

    def test_direction_change_resets_btime(self):
        engine = engine_for(
            [[move(LEFT), move(LEFT), move(RIGHT)]], n=6, positions=[3],
            adversary=FixedMissingEdge(2),
        )
        engine.step()
        engine.step()
        assert engine.agents[0].memory.Btime == 2
        engine.step()  # reverse: fresh attempt through the other port
        assert engine.agents[0].node == 4
        assert engine.agents[0].memory.Btime == 0


class TestPortMutualExclusion:
    def test_contention_one_winner_one_failure(self):
        engine = engine_for([[move(LEFT)], [move(LEFT)]], n=6, positions=[3, 3])
        engine.step()
        nodes = sorted(a.node for a in engine.agents)
        assert nodes == [2, 3]  # winner crossed, loser stayed
        loser = next(a for a in engine.agents if a.node == 3)
        assert loser.memory.failed
        assert not loser.memory.moved

    def test_default_tie_break_prefers_lower_index(self):
        engine = engine_for([[move(LEFT)], [move(LEFT)]], n=6, positions=[3, 3])
        engine.step()
        assert engine.agents[0].node == 2
        assert engine.agents[1].node == 3

    def test_failed_flag_is_one_shot(self):
        engine = engine_for([[move(LEFT), STAY, STAY], [move(LEFT), STAY, STAY]],
                            n=6, positions=[3, 3])
        engine.step()
        loser = engine.agents[1]
        assert engine.snapshot_for(loser).failed
        engine.step()
        assert not engine.snapshot_for(loser).failed

    def test_occupied_port_is_denied(self):
        # Agent 0 blocks on edge 2 in round 0; agent 1 walks into node 3 in
        # round 0 and requests the same (still occupied) port in round 1.
        engine = engine_for(
            [[move(LEFT), move(LEFT)], [move(LEFT), move(LEFT)]],
            n=6, positions=[3, 4], adversary=FixedMissingEdge(2),
        )
        engine.step()
        assert engine.agents[0].port is GlobalDirection.MINUS
        assert engine.agents[1].node == 3
        engine.step()
        assert engine.agents[1].memory.failed
        assert engine.agents[1].node == 3

    def test_port_vacated_this_round_stays_denied(self):
        # Agent 0 sits blocked on node 3's minus port, then reverses; agent 1
        # (in the node) requests that port the same round and must fail.
        engine = engine_for(
            [[move(LEFT), move(LEFT), move(RIGHT)],
             [move(LEFT), move(LEFT), move(LEFT)]],
            n=6, positions=[3, 4], adversary=FixedMissingEdge(2),
        )
        engine.step()
        engine.step()
        engine.step()
        assert engine.agents[0].node == 4  # reversed and crossed edge 3
        assert engine.agents[1].memory.failed
        assert engine.agents[1].node == 3

    def test_custom_tie_break_picks_the_winner(self):
        engine = engine_for([[move(LEFT)], [move(LEFT)]], n=6, positions=[3, 3],
                            port_tie_break=max)
        engine.step()
        assert engine.agents[0].node == 3
        assert engine.agents[1].node == 2

    def test_custom_tie_break_is_consulted_for_a_single_contender(self):
        seen = []

        def policy(contenders):
            seen.append(list(contenders))
            return contenders[0]

        engine = engine_for([[move(LEFT)]], n=6, positions=[3],
                            port_tie_break=policy)
        engine.step()
        assert seen == [[0]]
        assert engine.agents[0].node == 2

    @pytest.mark.parametrize("positions", [[3], [3, 3]])
    def test_tie_break_returning_a_non_contender_is_rejected(self, positions):
        engine = engine_for([[move(LEFT)]] * len(positions), n=6,
                            positions=positions, port_tie_break=lambda c: 99)
        with pytest.raises(InvariantViolation, match="non-contender"):
            engine.step()

    def test_crossing_agents_swap_without_detection(self):
        engine = engine_for([[move(RIGHT)], [move(LEFT)]], n=6, positions=[2, 3])
        engine.step()
        assert engine.agents[0].node == 3
        assert engine.agents[1].node == 2
        assert engine.agents[0].memory.moved
        assert engine.agents[1].memory.moved


class TestEnterNode:
    def test_enter_node_steps_off_the_port(self):
        engine = engine_for([[move(LEFT), ENTER_NODE]], n=6, positions=[3],
                            adversary=FixedMissingEdge(2))
        engine.step()
        assert engine.agents[0].port is not None
        engine.step()
        assert engine.agents[0].port is None
        assert engine.agents[0].node == 3
        assert engine.agents[0].memory.Btime == 0

    def test_enter_node_in_interior_is_a_noop(self):
        engine = engine_for([[ENTER_NODE]], n=6, positions=[3])
        engine.step()
        assert engine.agents[0].node == 3
        assert engine.agents[0].port is None


class TestTermination:
    def test_terminated_agent_stops(self):
        engine = engine_for([[TERMINATE, move(LEFT)]], n=6, positions=[3])
        engine.step()
        agent = engine.agents[0]
        assert agent.terminated
        assert engine.termination_rounds[0] == 0
        assert not engine.step()  # nothing left to run

    def test_run_halts_when_all_terminated(self):
        engine = engine_for([[move(LEFT), TERMINATE]], n=6, positions=[3])
        result = engine.run(100)
        assert result.halted_reason == "all-terminated"
        assert result.rounds == 2

    def test_terminated_agent_keeps_its_port(self):
        """A terminated agent on a port still occupies it physically."""
        engine = engine_for(
            [[move(LEFT), TERMINATE], [STAY, STAY, move(LEFT)]],
            n=6, positions=[3, 3], adversary=FixedMissingEdge(2),
        )
        engine.step()  # agent 0 blocks on the port
        engine.step()  # agent 0 terminates on the port
        engine.step()  # agent 1 requests the same port: denied
        assert engine.agents[1].memory.failed


class TestRunStops:
    def test_stop_on_exploration(self):
        engine = engine_for([[move(RIGHT)] * 10], n=5, positions=[0])
        result = engine.run(50, stop_on_exploration=True)
        assert result.halted_reason == "explored"
        assert result.explored

    def test_stop_when_custom_condition(self):
        engine = engine_for([[move(RIGHT)] * 10], n=6, positions=[0])
        result = engine.run(50, stop_when=lambda e: e.round_no >= 3)
        assert result.halted_reason == "stop-condition"
        assert result.rounds == 3

    def test_horizon(self):
        engine = engine_for([[STAY] * 100], n=6, positions=[0])
        result = engine.run(7)
        assert result.halted_reason == "horizon"
        assert result.rounds == 7

    def test_invalid_max_rounds(self):
        engine = engine_for([[]], n=6, positions=[0])
        with pytest.raises(ConfigurationError):
            engine.run(0)


class TestValidation:
    def test_adversary_cannot_remove_invalid_edge(self):
        class Bad:
            def reset(self, engine):
                pass

            def choose_missing_edge(self, engine):
                return 99

        engine = engine_for([[move(LEFT)]], n=6, positions=[0], adversary=Bad())
        with pytest.raises(AdversaryViolation):
            engine.step()

    def test_scheduler_must_activate_someone(self):
        engine = engine_for([[move(LEFT)], [move(LEFT)]], n=6, positions=[0, 3],
                            scheduler=ScriptedScheduler([set()]))
        with pytest.raises(AdversaryViolation):
            engine.step()

    def test_invariant_checker_detects_shared_port(self):
        engine = engine_for([[], []], n=6, positions=[0, 0])
        engine.agents[0].port = GlobalDirection.PLUS
        engine.agents[1].port = GlobalDirection.PLUS
        with pytest.raises(InvariantViolation):
            engine._check_invariants()


class TestPeek:
    def test_peek_reports_intention_without_side_effects(self):
        engine = engine_for([[move(LEFT), move(RIGHT)]], n=6, positions=[3])
        intent = engine.peek_intended_action(0)
        assert intent == move(LEFT)
        assert engine.agents[0].memory.vars["pc"] == 0  # untouched
        engine.step()
        assert engine.agents[0].node == 2  # the real step still happens

    def test_peek_terminated_agent_stays(self):
        engine = engine_for([[TERMINATE]], n=6, positions=[3])
        engine.step()
        assert engine.peek_intended_action(0) is STAY


class TestSsyncActivation:
    def test_inactive_agents_do_not_act(self):
        engine = engine_for(
            [[move(LEFT)] * 4, [move(LEFT)] * 4], n=8, positions=[3, 6],
            scheduler=ScriptedScheduler([{0}, {0}, {1}]),
        )
        engine.step()
        engine.step()
        assert engine.agents[0].node == 1
        assert engine.agents[1].node == 6
        engine.step()
        assert engine.agents[1].node == 5

    def test_inactive_counters_are_frozen(self):
        engine = engine_for(
            [[move(LEFT)], [move(LEFT)]], n=8, positions=[3, 6],
            scheduler=ScriptedScheduler([{0}]),
        )
        engine.step()
        assert engine.agents[1].memory.Ttime == 0
        assert engine.agents[1].rounds_since_active == 1

    def test_activation_bookkeeping(self):
        engine = engine_for(
            [[STAY] * 3, [STAY] * 3], n=8, positions=[3, 6],
            scheduler=ScriptedScheduler([{0}, {0}, {0, 1}]),
        )
        engine.step()
        engine.step()
        assert engine.agents[1].rounds_since_active == 2
        engine.step()
        assert engine.agents[1].rounds_since_active == 0
        assert engine.agents[0].activations == 3

    def test_active_agents_tick_their_clocks(self):
        engine = engine_for(
            [[STAY] * 3, [STAY] * 3], n=8, positions=[3, 6],
            scheduler=ScriptedScheduler([{0}, {0}, {0, 1}]),
        )
        for _ in range(3):
            engine.step()
        memories = [agent.memory for agent in engine.agents]
        assert [(m.Ttime, m.Etime) for m in memories] == [(3, 3), (1, 1)]
        assert [m.Ntime for m in memories] == [0, 0]  # size still unknown

    def test_ntime_only_runs_after_size_known(self):
        engine = engine_for([[move(RIGHT)] * 4], n=4, landmark=0)
        memory = engine.agents[0].memory
        for _ in range(3):
            engine.step()
        assert memory.size is None and memory.Ntime == 0
        engine.step()  # back at the landmark: the loop is closed
        assert memory.size == 4 and memory.Ntime == 1
        engine.step()
        engine.step()
        assert memory.Ntime == 3 and memory.Ttime == 6


class TestPassiveTransport:
    def _blocked_then_sleep(self, transport):
        # Agent 0 pushes onto node 3's minus port in round 0 (edge 2 missing),
        # then sleeps in round 1 while the edge is back.  Agent 1 keeps the
        # round alive.
        return engine_for(
            [[move(LEFT), move(LEFT)], [STAY, STAY]],
            n=6, positions=[3, 0],
            adversary=FixedMissingEdge(2, until_round=1),
            scheduler=ScriptedScheduler([{0, 1}, {1}]),
            transport=transport,
        )

    def test_pt_transports_sleeping_agent(self):
        engine = self._blocked_then_sleep(TransportModel.PT)
        engine.step()
        assert engine.agents[0].port is not None
        engine.step()
        agent = engine.agents[0]
        assert agent.node == 2
        assert agent.port is None
        assert agent.memory.Tsteps == 1  # the transport counts as its move
        assert agent.memory.moved
        assert agent.memory.Ttime == 1  # but its clock did not advance

    def test_ns_leaves_sleeping_agent_on_port(self):
        engine = self._blocked_then_sleep(TransportModel.NS)
        engine.step()
        engine.step()
        assert engine.agents[0].node == 3
        assert engine.agents[0].port is not None

    def test_et_leaves_sleeping_agent_on_port(self):
        engine = self._blocked_then_sleep(TransportModel.ET)
        engine.step()
        engine.step()
        assert engine.agents[0].node == 3

    def test_pt_does_not_transport_across_missing_edge(self):
        engine = engine_for(
            [[move(LEFT), move(LEFT)], [STAY, STAY]],
            n=6, positions=[3, 0],
            adversary=FixedMissingEdge(2),  # never comes back
            scheduler=ScriptedScheduler([{0, 1}, {1}]),
            transport=TransportModel.PT,
        )
        engine.step()
        engine.step()
        assert engine.agents[0].node == 3

    def test_pt_does_not_transport_active_agents_extra(self):
        engine = engine_for(
            [[move(LEFT), move(LEFT)]], n=6, positions=[3],
            adversary=FixedMissingEdge(2, until_round=1),
            transport=TransportModel.PT,
        )
        engine.step()
        engine.step()
        # active agent crossed once (normal move), not twice
        assert engine.agents[0].node == 2
        assert engine.agents[0].memory.Tsteps == 1


class TestTraceAndSnapshots:
    def test_trace_records_moves_blocks_and_exploration(self):
        trace = Trace()
        engine = engine_for([[move(RIGHT)] * 5], n=5, positions=[0], trace=trace)
        engine.run(10, stop_on_exploration=True)
        kinds = {e.kind for e in trace}
        assert EventKind.MOVE in kinds
        assert EventKind.EXPLORED in kinds
        assert EventKind.ROUND in kinds

    def test_snapshot_sees_other_agents_positions(self):
        engine = engine_for(
            [[move(LEFT), STAY], [STAY, STAY]], n=6, positions=[3, 3],
            adversary=FixedMissingEdge(2),
        )
        engine.step()
        watcher = engine.agents[1]
        snap = engine.snapshot_for(watcher)
        assert snap.other_on_left_port  # agent 0 stuck on the minus port
        assert snap.others_in_node == 0
        blocked = engine.snapshot_for(engine.agents[0])
        assert blocked.on_port is LEFT
        assert blocked.others_in_node == 1

    def test_mirrored_observer_sees_swapped_ports(self):
        from repro.core import CANONICAL

        engine = engine_for(
            [[move(LEFT), STAY], [STAY, STAY]], n=6, positions=[3, 3],
            orientations=[CANONICAL, MIRRORED],
            adversary=FixedMissingEdge(2),
        )
        engine.step()
        # Agent 0 (canonical) is on the global MINUS port; the mirrored
        # observer calls that port its *right*.
        snap = engine.snapshot_for(engine.agents[1])
        assert snap.other_on_right_port
        assert not snap.other_on_left_port
