"""The Explore-DSL driver: transitions, preambles, counters, guards."""

import pytest

from repro.adversary import FixedMissingEdge
from repro.algorithms.base import (
    Ctx,
    LEFT,
    RIGHT,
    StateMachineAlgorithm,
    StateSpec,
    TERMINAL,
    rules,
)
from repro.core import STAY, TERMINATE, move
from repro.core.errors import ProtocolViolation
from repro.core.memory import AgentMemory
from repro.core.snapshot import Snapshot


def plain_snapshot(**kw) -> Snapshot:
    defaults = dict(
        on_port=None,
        others_in_node=0,
        other_on_left_port=False,
        other_on_right_port=False,
        is_landmark=False,
        moved=False,
        failed=False,
    )
    defaults.update(kw)
    return Snapshot(**defaults)


class TwoState(StateMachineAlgorithm):
    """Init walks left until Ttime >= 3, then Final walks right forever."""

    name = "two-state"

    def build_states(self):
        return [
            StateSpec(
                name="Init",
                direction=LEFT,
                rules=rules((lambda ctx: ctx.Ttime >= 3, "Final")),
            ),
            StateSpec(name="Final", direction=RIGHT),
        ]


class TestDriverBasics:
    def test_setup_initializes_state(self):
        memory = AgentMemory()
        TwoState().setup(memory)
        assert memory.vars["state"] == "Init"

    def test_moves_in_state_direction(self):
        memory = AgentMemory()
        algo = TwoState()
        algo.setup(memory)
        assert algo.compute(plain_snapshot(), memory) == move(LEFT)

    def test_transition_fires_and_is_processed_same_round(self):
        memory = AgentMemory()
        algo = TwoState()
        algo.setup(memory)
        memory.Ttime = 5
        assert algo.compute(plain_snapshot(), memory) == move(RIGHT)
        assert memory.vars["state"] == "Final"

    def test_transition_resets_explore_counters(self):
        memory = AgentMemory()
        algo = TwoState()
        algo.setup(memory)
        memory.Ttime = 5
        memory.Etime = 9
        memory.Esteps = 4
        algo.compute(plain_snapshot(), memory)
        assert memory.Etime == 0
        assert memory.Esteps == 0

    def test_terminal_state_returns_terminate_forever(self):
        class Quits(StateMachineAlgorithm):
            name = "quits"

            def build_states(self):
                return [
                    StateSpec(
                        name="Init",
                        direction=LEFT,
                        rules=rules((lambda ctx: True, TERMINAL)),
                    )
                ]

        memory = AgentMemory()
        algo = Quits()
        algo.setup(memory)
        assert algo.compute(plain_snapshot(), memory) is TERMINATE
        assert algo.compute(plain_snapshot(), memory) is TERMINATE


class TestPreambles:
    def test_on_enter_runs_once_with_old_counters(self):
        captured = []

        class Capture(StateMachineAlgorithm):
            name = "capture"

            def build_states(self):
                def enter(ctx):
                    captured.append((ctx.Etime, ctx.Esteps))

                return [
                    StateSpec(
                        name="Init",
                        direction=LEFT,
                        rules=rules((lambda ctx: ctx.Ttime >= 1, "Next")),
                    ),
                    StateSpec(name="Next", direction=RIGHT, on_enter=enter),
                ]

        memory = AgentMemory()
        algo = Capture()
        algo.setup(memory)
        algo.compute(plain_snapshot(), memory)  # stays in Init
        memory.Ttime, memory.Etime, memory.Esteps = 1, 4, 2
        algo.compute(plain_snapshot(), memory)  # transition: preamble sees 4, 2
        algo.compute(plain_snapshot(), memory)  # no re-run
        assert captured == [(4, 2)]

    def test_on_enter_may_redirect(self):
        class Redirect(StateMachineAlgorithm):
            name = "redirect"

            def build_states(self):
                return [
                    StateSpec(
                        name="Init",
                        direction=LEFT,
                        rules=rules((lambda ctx: True, "Hop")),
                    ),
                    StateSpec(name="Hop", direction=LEFT, on_enter=lambda ctx: "End"),
                    StateSpec(name="End", direction=RIGHT),
                ]

        memory = AgentMemory()
        algo = Redirect()
        algo.setup(memory)
        assert algo.compute(plain_snapshot(), memory) == move(RIGHT)
        assert memory.vars["state"] == "End"

    def test_on_enter_may_terminate(self):
        class EnterQuit(StateMachineAlgorithm):
            name = "enter-quit"

            def build_states(self):
                return [
                    StateSpec(
                        name="Init",
                        direction=LEFT,
                        rules=rules((lambda ctx: True, "Quit")),
                    ),
                    StateSpec(name="Quit", direction=LEFT, on_enter=lambda ctx: TERMINATE),
                ]

        memory = AgentMemory()
        algo = EnterQuit()
        algo.setup(memory)
        assert algo.compute(plain_snapshot(), memory) is TERMINATE
        assert memory.vars["state"] == TERMINAL

    def test_keep_esteps_state(self):
        class NoReset(StateMachineAlgorithm):
            name = "no-reset"

            def build_states(self):
                return [
                    StateSpec(
                        name="Init",
                        direction=LEFT,
                        rules=rules((lambda ctx: ctx.Ttime >= 1, "Keep")),
                    ),
                    StateSpec(name="Keep", direction=LEFT, keep_esteps=True),
                ]

        memory = AgentMemory()
        algo = NoReset()
        algo.setup(memory)
        algo.compute(plain_snapshot(), memory)
        memory.Ttime, memory.Etime, memory.Esteps = 1, 5, 3
        algo.compute(plain_snapshot(), memory)
        assert memory.Esteps == 3  # survives ExploreNoResetEsteps
        assert memory.Etime == 0


class TestGuards:
    def test_preamble_redirect_loop_raises(self):
        class Loop(StateMachineAlgorithm):
            name = "loop"

            def build_states(self):
                return [
                    StateSpec(name="Init", direction=LEFT, on_enter=lambda ctx: "Other"),
                    StateSpec(name="Other", direction=LEFT, on_enter=lambda ctx: "Init"),
                ]

        memory = AgentMemory()
        algo = Loop()
        algo.setup(memory)
        with pytest.raises(ProtocolViolation):
            algo.compute(plain_snapshot(), memory)

    def test_rule_transitions_skip_new_state_guards_for_one_round(self):
        """A rule-fired transition cannot re-fire off the same snapshot."""

        class PingPong(StateMachineAlgorithm):
            name = "ping-pong"

            def build_states(self):
                always = rules((lambda ctx: True, "Pong"))
                back = rules((lambda ctx: True, "Ping"))
                return [
                    StateSpec(name="Init", direction=LEFT,
                              rules=rules((lambda ctx: True, "Ping"))),
                    StateSpec(name="Ping", direction=LEFT, rules=always),
                    StateSpec(name="Pong", direction=RIGHT, rules=back),
                ]

        memory = AgentMemory()
        algo = PingPong()
        algo.setup(memory)
        # Round 0: Init's rule fires, Ping entered, guard deferred: move left.
        assert algo.compute(plain_snapshot(), memory) == move(LEFT)
        assert memory.vars["state"] == "Ping"
        # Round 1: Ping's guard now fires, Pong entered: move right.
        assert algo.compute(plain_snapshot(), memory) == move(RIGHT)
        assert memory.vars["state"] == "Pong"

    def test_unknown_target_rejected_at_build(self):
        class Broken(StateMachineAlgorithm):
            name = "broken"

            def build_states(self):
                return [
                    StateSpec(name="Init", direction=LEFT,
                              rules=rules((lambda ctx: True, "Nowhere"))),
                ]

        with pytest.raises(ValueError):
            Broken()

    def test_duplicate_state_rejected(self):
        class Duped(StateMachineAlgorithm):
            name = "duped"

            def build_states(self):
                return [
                    StateSpec(name="Init", direction=LEFT),
                    StateSpec(name="Init", direction=RIGHT),
                ]

        with pytest.raises(ValueError):
            Duped()

    def test_state_needs_direction_or_custom(self):
        with pytest.raises(ValueError):
            StateSpec(name="bad")

    def test_state_cannot_mix_custom_and_rules(self):
        with pytest.raises(ValueError):
            StateSpec(
                name="bad",
                custom=lambda ctx: STAY,
                rules=rules((lambda ctx: True, "X")),
            )


class TestCtx:
    def test_effective_btime_is_capped_by_etime(self):
        memory = AgentMemory()
        memory.Btime = 7
        memory.Etime = 2
        ctx = Ctx(plain_snapshot(), memory)
        assert ctx.Btime == 2

    def test_size_is_infinite_until_known(self):
        memory = AgentMemory()
        ctx = Ctx(plain_snapshot(), memory)
        assert ctx.size == float("inf")
        assert not ctx.size_known
        assert not (ctx.Ntime > 2 * ctx.size)  # "all tests using it fail"
        memory.size = 9
        assert ctx.size == 9
        assert ctx.size_known

    def test_catches_requires_direction(self):
        memory = AgentMemory()
        ctx = Ctx(plain_snapshot(other_on_left_port=True), memory)
        assert not ctx.catches  # no direction resolved yet
        ctx.direction = LEFT
        assert ctx.catches

    def test_meeting_requires_both_in_interior(self):
        def meeting(**kw):
            return Ctx(plain_snapshot(**kw), AgentMemory()).meeting

        assert meeting(others_in_node=1)
        assert not meeting(others_in_node=0)
        assert not meeting(on_port=LEFT, others_in_node=1)

    @pytest.mark.parametrize("direction, left, right, expected", [
        (LEFT, True, False, True),
        (RIGHT, True, False, False),
        (RIGHT, False, True, True),
        (LEFT, False, True, False),
    ])
    def test_catches_checks_port_in_moving_direction(self, direction, left,
                                                     right, expected):
        ctx = Ctx(plain_snapshot(other_on_left_port=left,
                                 other_on_right_port=right), AgentMemory())
        ctx.direction = direction
        assert ctx.catches is expected

    def test_agent_on_a_port_cannot_catch(self):
        ctx = Ctx(plain_snapshot(on_port=RIGHT, other_on_left_port=True),
                  AgentMemory())
        ctx.direction = LEFT
        assert not ctx.catches

    def test_caught_requires_failed_move_and_witness(self):
        def caught(**kw):
            return Ctx(plain_snapshot(**kw), AgentMemory()).caught

        assert caught(on_port=LEFT, others_in_node=1, moved=False)
        assert not caught(on_port=LEFT, others_in_node=0, moved=False)
        assert not caught(on_port=LEFT, others_in_node=1, moved=True)
        assert not caught(others_in_node=1)

    def test_predicate_passthroughs(self):
        memory = AgentMemory()
        snap = plain_snapshot(others_in_node=2, is_landmark=True, failed=True)
        ctx = Ctx(snap, memory)
        assert ctx.meeting
        assert ctx.is_landmark
        assert ctx.failed
        assert ctx.others_in_node == 2


class TestCustomStates:
    def test_custom_state_drives_multiround_script(self):
        class Dance(StateMachineAlgorithm):
            name = "dance"

            def build_states(self):
                def script(ctx):
                    step = ctx.vars.setdefault("step", 0)
                    ctx.vars["step"] = step + 1
                    if step == 0:
                        return STAY
                    if step == 1:
                        return move(LEFT)
                    return TERMINATE

                return [StateSpec(name="Init", custom=script)]

        memory = AgentMemory()
        algo = Dance()
        algo.setup(memory)
        assert algo.compute(plain_snapshot(), memory) is STAY
        assert algo.compute(plain_snapshot(), memory) == move(LEFT)
        assert algo.compute(plain_snapshot(), memory) is TERMINATE
