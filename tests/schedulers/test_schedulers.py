"""Activation schedulers: FSYNC, round-robin, random-fair, ET fairness."""

import pytest

from repro.adversary import FixedMissingEdge, NoRemoval
from repro.core import Engine, Ring, STAY, TransportModel, move
from repro.core.directions import LEFT
from repro.core.errors import ConfigurationError
from repro.schedulers import (
    ETFairScheduler,
    FsyncScheduler,
    RandomFairScheduler,
    RoundRobinScheduler,
    ScriptedScheduler,
)


class Idle:
    """All agents stay put forever (scheduler tests only)."""

    name = "idle"

    def setup(self, memory):
        return None

    def compute(self, snapshot, memory):
        return STAY


class PushLeft:
    """All agents push left forever."""

    name = "push-left"

    def setup(self, memory):
        return None

    def compute(self, snapshot, memory):
        return move(LEFT)


def make_engine(scheduler, *, n=8, agents=3, algorithm=None, adversary=None,
                transport=TransportModel.NS):
    return Engine(
        Ring(n),
        algorithm or Idle(),
        list(range(0, 2 * agents, 2)),
        scheduler=scheduler,
        adversary=adversary or NoRemoval(),
        transport=transport,
    )


class TestFsync:
    def test_everyone_active_every_round(self):
        engine = make_engine(FsyncScheduler())
        for _ in range(5):
            engine.step()
            assert engine.last_active == {0, 1, 2}


class TestRoundRobin:
    def test_window_one_rotates(self):
        engine = make_engine(RoundRobinScheduler(window=1))
        seen = []
        for _ in range(6):
            engine.step()
            seen.append(tuple(engine.last_active))
        assert seen == [(0,), (1,), (2,), (0,), (1,), (2,)]

    def test_window_two(self):
        engine = make_engine(RoundRobinScheduler(window=2))
        engine.step()
        assert engine.last_active == {0, 1}
        engine.step()
        assert engine.last_active == {1, 2}

    def test_fairness(self):
        engine = make_engine(RoundRobinScheduler(window=1))
        for _ in range(30):
            engine.step()
            for agent in engine.agents:
                assert agent.rounds_since_active < 3

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RoundRobinScheduler(window=0)


class TestRandomFair:
    def test_reproducibility(self):
        def pattern(seed):
            engine = make_engine(RandomFairScheduler(p=0.5, seed=seed))
            out = []
            for _ in range(20):
                engine.step()
                out.append(tuple(sorted(engine.last_active)))
            return out

        assert pattern(7) == pattern(7)

    def test_never_empty(self):
        engine = make_engine(RandomFairScheduler(p=0.01, seed=1))
        for _ in range(50):
            engine.step()
            assert engine.last_active

    def test_starvation_cap_is_enforced(self):
        cap = 5
        engine = make_engine(RandomFairScheduler(p=0.05, seed=3, starvation_cap=cap))
        for _ in range(200):
            engine.step()
            for agent in engine.agents:
                assert agent.rounds_since_active <= cap

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RandomFairScheduler(p=0.0)
        with pytest.raises(ConfigurationError):
            RandomFairScheduler(starvation_cap=0)


class TestChoose:
    """``choose`` decides from plain inputs exactly as ``select`` does."""

    @pytest.mark.parametrize("make", [
        lambda: RoundRobinScheduler(window=2),
        lambda: RandomFairScheduler(p=0.3, seed=4, starvation_cap=3),
    ], ids=["round-robin", "random-fair"])
    def test_choose_replays_select(self, make):
        engine = make_engine(make())
        detached = make()
        for _ in range(30):
            live = sorted(engine.live_indexes)
            idle = {a.index: a.rounds_since_active for a in engine.agents}
            engine.step()
            assert detached.choose(live, idle, {}) == engine.last_active

    def test_et_fair_choose_forces_a_waiting_sleeper(self):
        """Debt accrues only while the sleeper's edge is present."""
        class OnlyOne:
            def choose(self, live, idle, waiting):
                return {1}

        scheduler = ETFairScheduler(OnlyOne(), patience=2)
        idle = {0: 0, 1: 0}
        assert scheduler.choose([0, 1], idle, {0: False}) == {1}
        assert scheduler.choose([0, 1], idle, {0: True}) == {1}
        assert scheduler.choose([0, 1], idle, {0: True}) == {0, 1}
        assert scheduler.choose([0, 1], idle, {0: True}) == {1}


class TestScripted:
    def test_sequence_cycles(self):
        engine = make_engine(ScriptedScheduler([{0}, {1, 2}]))
        engine.step()
        assert engine.last_active == {0}
        engine.step()
        assert engine.last_active == {1, 2}
        engine.step()
        assert engine.last_active == {0}

    def test_callable_script(self):
        engine = make_engine(ScriptedScheduler(lambda e: {e.round_no % 3}))
        engine.step()
        assert engine.last_active == {0}
        engine.step()
        assert engine.last_active == {1}

    def test_empty_script_rejected(self):
        engine = make_engine(ScriptedScheduler([]))
        with pytest.raises(ConfigurationError):
            engine.step()


class TestETFairness:
    def test_forces_blocked_sleeper_awake_when_edge_present(self):
        """The ET simultaneity condition, enforced after `patience` rounds."""
        patience = 4
        # Base scheduler never activates agent 0 on its own.
        base = ScriptedScheduler(lambda e: {1})
        scheduler = ETFairScheduler(base, patience=patience)
        engine = Engine(
            Ring(8),
            PushLeft(),
            [3, 6],
            scheduler=scheduler,
            # agent 0 pushes edge 2; missing for 2 rounds only
            adversary=FixedMissingEdge(2, until_round=2),
            transport=TransportModel.ET,
        )
        # Round 0: agent 0 must be activated (it is not yet on a port, and
        # the base scheduler only picks agent 1) -- via the starvation-free
        # base?  No: ETFair only adds port sleepers, so activate manually.
        # Instead run and check the guarantee: within patience rounds of
        # the edge being back, agent 0 has crossed.
        for _ in range(2):
            engine.step()  # agent 0 asleep in the interior: fine
        # wake agent 0 once so it walks onto the port while the edge is missing
        scheduler._base = ScriptedScheduler(lambda e: {0, 1})
        engine.step()
        scheduler._base = ScriptedScheduler(lambda e: {1})
        assert engine.agents[0].port is None  # edge back at round 2: it moved

    def test_debt_accumulates_only_when_edge_present(self):
        patience = 3
        base = ScriptedScheduler(lambda e: {1})
        scheduler = ETFairScheduler(base, patience=patience)
        engine = Engine(
            Ring(8),
            PushLeft(),
            [3, 6],
            scheduler=scheduler,
            adversary=FixedMissingEdge(2),  # never returns
            transport=TransportModel.ET,
        )
        # Let agent 0 reach the port first.
        scheduler._base = ScriptedScheduler(lambda e: {0, 1})
        engine.step()
        scheduler._base = ScriptedScheduler(lambda e: {1})
        assert engine.agents[0].port is not None
        for _ in range(20):
            engine.step()
        # Edge never present: ET owes the agent nothing; it stays asleep.
        assert engine.agents[0].memory.Ttime == 1

    def test_sleeper_eventually_crosses(self):
        patience = 3
        base = ScriptedScheduler(lambda e: {1})
        scheduler = ETFairScheduler(base, patience=patience)
        engine = Engine(
            Ring(8),
            PushLeft(),
            [3, 6],
            scheduler=scheduler,
            adversary=FixedMissingEdge(2, until_round=2),
            transport=TransportModel.ET,
        )
        scheduler._base = ScriptedScheduler(lambda e: {0, 1})
        engine.step()  # agent 0 onto the port (edge missing)
        scheduler._base = ScriptedScheduler(lambda e: {1})
        start_node = engine.agents[0].node
        for _ in range(patience + 3):
            engine.step()
        assert engine.agents[0].node != start_node  # force-woken and crossed

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ETFairScheduler(FsyncScheduler(), patience=0)
