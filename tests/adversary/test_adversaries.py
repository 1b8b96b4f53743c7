"""Benign and blocking adversaries (Observations 1-2 and baselines)."""

import pytest

from repro.adversary import (
    BlockAgentAdversary,
    FixedMissingEdge,
    FunctionAdversary,
    MeetingPreventionAdversary,
    NoRemoval,
    PeriodicMissingEdge,
    RandomMissingEdge,
)
from repro.algorithms.fsync import KnownUpperBound, UnconsciousExploration
from repro.core import EventKind, Trace
from repro.core.errors import ConfigurationError

from ..helpers import fsync_engine


class TestSimpleAdversaries:
    def test_no_removal(self):
        engine = fsync_engine(UnconsciousExploration(), 6, [0, 3])
        engine.step()
        assert engine.missing_edge is None

    def test_fixed_edge_window(self):
        adversary = FixedMissingEdge(2, from_round=1, until_round=3)
        engine = fsync_engine(UnconsciousExploration(), 6, [0, 3], adversary=adversary)
        engine.step()
        assert engine.missing_edge is None
        engine.step()
        assert engine.missing_edge == 2
        engine.step()
        assert engine.missing_edge == 2
        engine.step()
        assert engine.missing_edge is None

    def test_fixed_edge_validation(self):
        with pytest.raises(ConfigurationError):
            FixedMissingEdge(0, from_round=-1)
        with pytest.raises(ConfigurationError):
            FixedMissingEdge(0, from_round=5, until_round=5)
        with pytest.raises(ConfigurationError):
            fsync_engine(UnconsciousExploration(), 6, [0, 3],
                         adversary=FixedMissingEdge(9))

    def test_periodic_edge(self):
        adversary = PeriodicMissingEdge(1, period=3, duty=2)
        engine = fsync_engine(UnconsciousExploration(), 6, [0, 3], adversary=adversary)
        seen = []
        for _ in range(6):
            engine.step()
            seen.append(engine.missing_edge)
        assert seen == [1, 1, None, 1, 1, None]

    def test_periodic_validation(self):
        with pytest.raises(ConfigurationError):
            PeriodicMissingEdge(0, period=0)
        with pytest.raises(ConfigurationError):
            PeriodicMissingEdge(0, period=2, duty=3)

    def test_random_edge_is_reproducible(self):
        def edges(seed):
            adversary = RandomMissingEdge(seed=seed)
            engine = fsync_engine(UnconsciousExploration(), 8, [0, 4],
                                  adversary=adversary)
            out = []
            for _ in range(10):
                engine.step()
                out.append(engine.missing_edge)
            return out

        assert edges(42) == edges(42)
        assert edges(42) != edges(43)

    def test_random_edge_probability_zero(self):
        adversary = RandomMissingEdge(p=0.0, seed=1)
        engine = fsync_engine(UnconsciousExploration(), 6, [0, 3], adversary=adversary)
        for _ in range(10):
            engine.step()
            assert engine.missing_edge is None

    def test_random_edge_validation(self):
        with pytest.raises(ConfigurationError):
            RandomMissingEdge(p=1.5)

    @pytest.mark.parametrize("make", [
        NoRemoval,
        lambda: FixedMissingEdge(2, from_round=1, until_round=5),
        lambda: PeriodicMissingEdge(1, period=3, duty=1),
        lambda: RandomMissingEdge(p=0.5, seed=9),
    ], ids=["none", "fixed", "periodic", "random"])
    def test_edge_for_replays_the_engine_stream(self, make):
        """``edge_for`` alone yields the removals an engine run sees."""
        engine = fsync_engine(UnconsciousExploration(), 8, [0, 4],
                              adversary=make())
        seen = []
        for _ in range(12):
            engine.step()
            seen.append(engine.missing_edge)
        detached = make()
        assert [detached.edge_for(t, 8) for t in range(12)] == seen

    def test_function_adversary(self):
        adversary = FunctionAdversary(lambda e: e.round_no % 2 or None, label="odd")
        engine = fsync_engine(UnconsciousExploration(), 6, [0, 3], adversary=adversary)
        engine.step()
        assert engine.missing_edge is None
        engine.step()
        assert engine.missing_edge == 1


class TestBlockAgentAdversary:
    """Observation 1 / Corollary 1."""

    @pytest.mark.parametrize("algorithm", [UnconsciousExploration, lambda: KnownUpperBound(8)])
    def test_target_never_moves(self, algorithm):
        engine = fsync_engine(algorithm(), 8, [3], adversary=BlockAgentAdversary(0))
        result = engine.run(300)
        assert result.agents[0].moves == 0
        assert result.visited == {3}

    def test_non_target_agents_roam_free(self):
        engine = fsync_engine(
            UnconsciousExploration(), 8, [3, 6], adversary=BlockAgentAdversary(0)
        )
        result = engine.run(400, stop_on_exploration=True)
        assert result.agents[0].moves == 0
        assert result.explored  # the other agent covers the ring

    def test_invalid_target(self):
        with pytest.raises(ValueError):
            fsync_engine(UnconsciousExploration(), 6, [0],
                         adversary=BlockAgentAdversary(3))


class TestMeetingPrevention:
    """Observation 2: with two agents, no meeting and no mutual detection."""

    def test_agents_never_share_a_node(self):
        trace = Trace(limit=None)
        engine = fsync_engine(
            UnconsciousExploration(), 9, [0, 4],
            adversary=MeetingPreventionAdversary(), trace=trace,
        )
        for _ in range(600):
            engine.step()
            a, b = engine.agents
            assert a.node != b.node

    def test_no_catches_or_meetings_for_known_bound_agents(self):
        n = 10
        engine = fsync_engine(
            KnownUpperBound(bound=n), n, [0, 5],
            adversary=MeetingPreventionAdversary(),
        )
        for _ in range(3 * n):
            if engine.all_terminated:
                break
            engine.step()
            a, b = engine.agents
            assert a.node != b.node

    def test_requires_two_distinct_agents(self):
        with pytest.raises(ValueError):
            fsync_engine(UnconsciousExploration(), 6, [0],
                         adversary=MeetingPreventionAdversary())
        with pytest.raises(ValueError):
            fsync_engine(UnconsciousExploration(), 6, [2, 2],
                         adversary=MeetingPreventionAdversary())

    def test_removes_nothing_when_no_meeting_imminent(self):
        engine = fsync_engine(
            UnconsciousExploration(), 12, [0, 6],
            adversary=MeetingPreventionAdversary(),
        )
        engine.step()
        assert engine.missing_edge is None  # far apart, both heading left
