"""Fault plans as campaign dimensions: grammar, engine semantics, replay.

The contract under test: ``CellConfig.faults`` parses into a
:class:`FaultPlan`, the engine crashes exactly the named agents at the
named times, termination re-anchors on the surviving census, faulty
cells replay deterministically, and the fault hook routes scalar
(batch-ineligible) without disturbing fault-free keys or records.
"""

import pytest

from repro.campaigns.executor import execute_cell, run_chunk
from repro.campaigns.registry import build_cell_engine, validate_cell
from repro.campaigns.spec import CellConfig
from repro.core import EventKind
from repro.core.batch_rules import (
    _batch_ineligibility, batch_eligible, numpy_available)
from repro.core.errors import ConfigurationError
from repro.obs.metrics import PhaseTimer
from repro.resilience import FaultPlan


def cell(**overrides) -> CellConfig:
    base = dict(algorithm="known-bound", ring_size=8, agents=2, seed=0,
                adversary="random", transport="ns",
                placement="offset-spread", max_rounds=400)
    base.update(overrides)
    return CellConfig(**base)


class TestPlanGrammar:
    def test_crash_clause(self):
        plan = FaultPlan.parse("crash:1@4")
        assert plan.crash_at == ((4, 1),)
        assert not plan.lost and not plan.lost_all and plan.rate == 0.0

    def test_multiple_clauses(self):
        plan = FaultPlan.parse("crash:0@2, lost:1, rate:0.25")
        assert plan.crash_at == ((2, 0),)
        assert plan.lost == frozenset({1})
        assert plan.rate == 0.25

    def test_lost_star(self):
        plan = FaultPlan.parse("lost:*")
        assert plan.lost_all
        assert plan.injector().lost_on_removal(7)

    @pytest.mark.parametrize("bad", [
        "", "  ,  ", "crash:1", "crash:@4", "crash:1@4@5", "lost:x",
        "rate:1.5", "rate:0", "rate:1", "explode:3", "crash:1@2,crash:1@9",
        "rate:0.1,rate:0.2",
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ConfigurationError):
            FaultPlan.parse(bad)

    def test_plans_are_hashable_and_comparable(self):
        assert FaultPlan.parse("crash:1@4") == FaultPlan.parse(" crash:1@4 ")
        assert hash(FaultPlan.parse("lost:*")) == hash(FaultPlan.parse("lost:*"))

    def test_parse_is_memoised_per_spec_string(self):
        """Routing and both cores parse a cell's plan; one parse serves
        them all, and a malformed plan raises on every call."""
        assert FaultPlan.parse("crash:1@4,lost:*") is \
            FaultPlan.parse("crash:1@4,lost:*")
        for _ in range(2):
            with pytest.raises(ConfigurationError):
                FaultPlan.parse("crash:1@4,bogus")

    def test_validate_agents_catches_out_of_range(self):
        FaultPlan.parse("crash:1@4").validate_agents(2)
        with pytest.raises(ConfigurationError, match=r"\[2\]"):
            FaultPlan.parse("crash:2@4").validate_agents(2)
        with pytest.raises(ConfigurationError):
            validate_cell(cell(faults="lost:5"))


class TestScheduledCrashes:
    def test_named_agent_crashes_at_named_round(self):
        engine = build_cell_engine(cell(faults="crash:1@4"))
        result = engine.run(400)
        victim = result.agents[1]
        assert victim.crashed and not victim.terminated
        assert result.crashed_count == 1
        assert [a.index for a in result.survivors] == [0]

    def test_crash_event_lands_in_trace(self):
        from repro.core import Trace

        trace = Trace()
        engine = build_cell_engine(cell(faults="crash:1@4"), trace=trace)
        engine.run(400)
        crashes = trace.of_kind(EventKind.CRASH)
        assert len(crashes) == 1 and crashes[0].agent == 1
        assert crashes[0].round == 4

    def test_termination_is_surviving_agent_census(self):
        result = build_cell_engine(cell(faults="crash:1@4")).run(400)
        # the survivor still terminates explicitly -> all-terminated
        assert result.all_terminated
        assert result.halted_reason == "all-terminated"
        assert result.terminated_count == 1

    def test_all_crashed_halts_with_its_own_reason(self):
        result = build_cell_engine(cell(faults="crash:0@2,crash:1@2")).run(400)
        assert result.crashed_count == 2
        assert not result.all_terminated
        assert result.halted_reason == "all-crashed"
        assert not result.survivors

    def test_crashed_agent_releases_its_port(self):
        engine = build_cell_engine(cell(faults="crash:0@3"))
        engine.run(400)
        # no occupancy entry may reference the crashed agent
        for _count, ports in engine._occ.values():
            assert 0 not in ports.values()

    def test_crashed_agent_vanishes_from_every_look(self):
        """The indexed Look drops a crashed agent, as a fresh scan does."""
        from tests.core.look_oracle import ring_look

        engine = build_cell_engine(cell(agents=3, placement="origin",
                                        faults="crash:0@3"))
        for _ in range(40):
            for agent in engine.agents:
                if not agent.crashed:
                    assert engine.snapshot_for(agent) == ring_look(
                        engine, agent)
            if not engine.step():
                break
        assert engine.agents[0].crashed

    def test_fault_free_cell_reports_no_census(self):
        result = build_cell_engine(cell()).run(400)
        assert result.crashed_count is None
        assert "crashed" not in result.summary()
        faulty = build_cell_engine(cell(faults="crash:1@4")).run(400)
        assert "crashed=1" in faulty.summary()


class TestLostOnRemoval:
    def test_lossy_agent_dies_waiting_on_removed_edge(self):
        # ns-starvation removes exactly the edge its victim wants every
        # round, so a removal-lossy team dies deterministically.
        config = cell(algorithm="unconscious", adversary="ns-starvation",
                      faults="lost:*", max_rounds=50)
        result = build_cell_engine(config).run(50)
        assert result.crashed_count == len(result.agents)
        assert result.halted_reason == "all-crashed"

    def test_fault_free_twin_survives_the_same_adversary(self):
        config = cell(algorithm="unconscious", adversary="ns-starvation",
                      max_rounds=50)
        result = build_cell_engine(config).run(50)
        assert result.crashed_count is None
        assert all(not a.crashed for a in result.agents)


class TestStochasticRate:
    def test_rate_replays_byte_for_byte(self):
        config = cell(algorithm="unconscious", faults="rate:0.2",
                      seed=5, stop_on_exploration=True)
        first = execute_cell(config)
        second = execute_cell(config)
        assert first["metrics"] == second["metrics"]
        assert first["key"] == second["key"]

    def test_rate_stream_never_aliases_the_adversary_stream(self):
        # same seed with and without a rate plan: the adversary's removal
        # schedule (and thus the survivors' trajectory up to the first
        # crash) must be identical — the fault RNG is a separate stream.
        fault_free = build_cell_engine(cell(seed=9)).run(400)
        faulty = build_cell_engine(cell(seed=9, faults="crash:1@4")).run(400)
        assert faulty.rounds <= fault_free.rounds or faulty.rounds > 0

    def test_different_seeds_draw_different_schedules(self):
        outcomes = {
            execute_cell(cell(algorithm="unconscious", faults="rate:0.3",
                              seed=seed, stop_on_exploration=True,
                              ring_size=12))["metrics"]["crashed_count"]
            for seed in range(8)
        }
        assert len(outcomes) > 1   # the rate clause actually bites


class TestInstrumentedParity:
    def test_instrumented_step_applies_identical_faults(self):
        config = cell(faults="crash:1@4,rate:0.1", seed=2)
        plain = build_cell_engine(config).run(400)
        timed_engine = build_cell_engine(config)
        timed_engine.set_instrument(PhaseTimer())
        timed = timed_engine.run(400)
        assert timed.crashed_count == plain.crashed_count
        assert timed.rounds == plain.rounds
        assert [(a.final_node, a.crashed, a.terminated) for a in timed.agents] == \
               [(a.final_node, a.crashed, a.terminated) for a in plain.agents]


class TestCampaignIntegration:
    def test_only_invalid_fault_plans_are_batch_ineligible(self):
        """Every plan the scalar path accepts batches; one it rejects
        stays scalar under the ``faults`` key, so the fallback writes
        the scalar error record."""
        assert batch_eligible(cell())
        for plan in ("crash:1@4", "lost:0", "lost:*", "rate:0.05",
                     "crash:0@2,lost:1,rate:0.1"):
            assert batch_eligible(cell(faults=plan)), plan
        for plan in ("crash:7@4", "lost:9", "crash:1@x", "rate:1.5"):
            key, reason = _batch_ineligibility(cell(faults=plan))
            assert key == "faults" and plan in reason, plan

    @pytest.mark.skipif(not numpy_available(),
                        reason="batch path needs numpy")
    def test_batch_auto_equals_batch_off_for_fault_cells(self):
        config = cell(faults="crash:1@4")
        [auto], batched = run_chunk([config], planned=True)
        [off], _ = run_chunk([config], batch="off")
        assert batched == 1
        assert auto["metrics"] == off["metrics"]
        assert auto["metrics"]["crashed_count"] == 1

    def test_key_unchanged_when_faults_absent(self):
        """Stores written before the fault dimension existed must resume."""
        config = cell()
        legacy = config.to_dict()
        legacy.pop("faults")             # a dict from a pre-faults store
        assert CellConfig.from_dict(legacy).key() == config.key()

    def test_faulty_key_differs_and_roundtrips(self):
        config = cell(faults="crash:1@4")
        assert config.key() != cell().key()
        rebuilt = CellConfig.from_dict(config.to_dict())
        assert rebuilt.faults == "crash:1@4"
        assert rebuilt.key() == config.key()

    def test_record_metrics_carry_the_census(self):
        record = execute_cell(cell(faults="crash:1@4"))
        assert record["metrics"]["crashed_count"] == 1
        clean = execute_cell(cell())
        assert "crashed_count" not in clean["metrics"]
