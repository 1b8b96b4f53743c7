"""Differential suite: BatchCore vs the scalar core, cell by cell.

The vectorized batch engine re-implements the FSYNC round loop as
whole-array NumPy operations; these tests are its correctness proof,
built on the shared harness (:mod:`repro.analysis.differential`):

* a deterministic grid — >= 20 cells x 3 seeds covering every
  vectorizable algorithm/adversary pair, every placement policy, bound
  overrides and mirrored orientations — executed as real mixed batches
  and compared against the scalar core;
* lockstep round-by-round state equality (positions, ports, every
  memory counter) so divergences that cancel by run end still fail;
* hypothesis-generated compositions: random ring sizes, placements and
  adversary schedules, mixed horizons (so batches mix terminated,
  halted and running cells) — batch and scalar must agree cell-by-cell
  for *any* valid composition;
* the eligibility predicate itself: the single shared function the
  executor, the worker and these tests import must accept exactly the
  configurations the batch core handles and reject the rest with a
  reason.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.differential import (
    differential_cells,
    lockstep_divergence,
    result_payload,
)
from repro.campaigns.spec import CellConfig
from repro.core.batch import BatchCore, run_batch_cells
from repro.core.batch_rules import (
    BATCH_ADVERSARIES,
    BATCH_ALGORITHMS,
    BATCH_SCHEDULERS,
    BATCH_TRANSPORTS,
    batch_eligible,
    batch_ineligible_reason,
    numpy_available,
)
from repro.core.batch_kernels import PROGRAMS, VectorProgram, build_program
from repro.core.errors import ConfigurationError

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="batch core needs numpy")

SEEDS = (0, 1, 2)


#: The transport the paper pairs each algorithm family with.  Transport
#: is still a free axis (the grid crosses them deliberately below); this
#: just makes the default grid exercise PT rides and ET bookkeeping.
_HOME_TRANSPORT = {
    "pt-bound": "pt", "pt-bound-3": "pt",
    "pt-landmark": "pt", "pt-landmark-3": "pt",
    "et-exact": "et", "et-unconscious": "et",
}

#: The SSYNC schedulers (everything but fsync/auto).
_SSYNC_SCHEDULERS = ("round-robin", "random-fair", "et-fair")

#: Fault plans the grid crosses with algorithms and adversaries.
_FAULT_PLANS = ("crash:0@0,crash:1@0", "crash:1@4", "crash:0@2,lost:1",
                "lost:*", "rate:0.05")


def _grid_cells() -> list[CellConfig]:
    """>= 20 cells covering every vectorizable algorithm x adversary,
    each at its home transport, plus an SSYNC scheduler sweep."""
    cells = []
    # Every (algorithm, adversary) pair at a couple of shapes, plus a
    # third shape under an explicit SSYNC scheduler (cycled so the grid
    # covers every algorithm x scheduler pair across adversaries).
    for i, algorithm in enumerate(sorted(BATCH_ALGORITHMS)):
        stop = algorithm == "unconscious"
        transport = _HOME_TRANSPORT.get(algorithm, "ns")
        for j, adversary in enumerate(sorted(BATCH_ADVERSARIES)):
            cells.append(CellConfig(
                algorithm=algorithm, ring_size=8, agents=2, max_rounds=90,
                adversary=adversary, edge=3, transport=transport,
                stop_on_exploration=stop))
            cells.append(CellConfig(
                algorithm=algorithm, ring_size=11, agents=3, max_rounds=70,
                adversary=adversary, edge=10, transport=transport,
                placement="offset-spread", stop_on_exploration=stop))
            cells.append(CellConfig(
                algorithm=algorithm, ring_size=9, agents=2, max_rounds=60,
                adversary=adversary, edge=4, transport=transport,
                scheduler=_SSYNC_SCHEDULERS[(i + j) % 3],
                stop_on_exploration=stop))
    # A fixed missing edge on rings this small makes the two agents
    # block and catch each other early: the unconscious phase rules
    # (Reverse only on a block *longer* than G) and the direction each
    # agent keeps after Bounce/Forward then decide the whole trajectory.
    # known-bound twins cover its bounce rules on the same shapes.
    cells += [
        CellConfig(algorithm=algorithm, ring_size=n, agents=2,
                   max_rounds=300, adversary="fixed", edge=edge,
                   placement=placement)
        for algorithm in ("unconscious", "known-bound")
        for n in (5, 6)
        for edge in range(5)
        for placement in ("spread", "offset-spread")
    ]
    # Fault plans — every clause kind, alone and combined, a plan that
    # crashes the whole team at round 0 — under FSYNC and the replayed
    # SSYNC schedulers, beside an oblivious and the block-agent adversary.
    cells += [
        CellConfig(algorithm=algorithm, ring_size=8, agents=k,
                   max_rounds=80, adversary=adversary, edge=3,
                   transport=_HOME_TRANSPORT.get(algorithm, "ns"),
                   scheduler=scheduler, faults=plan)
        for algorithm, k, scheduler in (
            ("known-bound", 2, "auto"), ("unconscious", 2, "random-fair"),
            ("pt-bound", 2, "auto"), ("et-exact", 3, "auto"))
        for adversary in ("fixed", "block-agent")
        for plan in _FAULT_PLANS
    ]
    # Placement policies, explicit positions (incl. out-of-range, which
    # resolve_positions wraps), mirrored orientation, bound overrides,
    # k=1 and a crowded ring.
    cells += [
        CellConfig(algorithm="known-bound", ring_size=9, agents=3,
                   max_rounds=80, adversary="random", placement="thirds"),
        CellConfig(algorithm="known-bound", ring_size=7, agents=2,
                   max_rounds=60, adversary="random", placement="origin"),
        CellConfig(algorithm="unconscious", ring_size=10, agents=2,
                   max_rounds=120, adversary="random", placement="explicit",
                   positions=(0, 13), stop_on_exploration=True),
        CellConfig(algorithm="known-bound", ring_size=8, agents=2,
                   max_rounds=80, adversary="random", chirality=False,
                   flipped=(1,)),
        CellConfig(algorithm="known-bound", ring_size=10, agents=2,
                   max_rounds=100, adversary="random", bound=12),
        CellConfig(algorithm="known-bound", ring_size=6, agents=1,
                   max_rounds=50, adversary="random"),
        CellConfig(algorithm="unconscious", ring_size=5, agents=5,
                   max_rounds=60, adversary="random",
                   stop_on_exploration=True),
        CellConfig(algorithm="known-bound", ring_size=12, agents=4,
                   max_rounds=30, adversary="periodic", edge=0),
        # Non-origin landmarks, cross-transport schedulers, bound
        # overrides under PT — the frontier's new corners.
        CellConfig(algorithm="landmark-chirality", ring_size=9, agents=2,
                   max_rounds=80, adversary="random", landmark=4),
        CellConfig(algorithm="landmark-no-chirality", ring_size=8, agents=3,
                   max_rounds=90, adversary="random", landmark=5,
                   transport="pt", scheduler="random-fair"),
        CellConfig(algorithm="start-from-landmark", ring_size=7, agents=2,
                   max_rounds=70, adversary="random", landmark=3),
        CellConfig(algorithm="et-exact", ring_size=8, agents=3,
                   max_rounds=60, adversary="random", transport="et",
                   scheduler="et-fair"),
        CellConfig(algorithm="pt-bound", ring_size=8, agents=2,
                   max_rounds=80, adversary="random", transport="pt",
                   bound=10),
        CellConfig(algorithm="known-bound", ring_size=8, agents=2,
                   max_rounds=80, adversary="random", transport="et",
                   scheduler="round-robin"),
    ]
    return cells


GRID = _grid_cells()


class TestGridEquivalence:
    def test_grid_is_wide_enough(self):
        assert len(GRID) >= 20
        covered = {(c.algorithm, c.adversary) for c in GRID}
        assert covered >= {
            (alg, adv)
            for alg in BATCH_ALGORITHMS for adv in BATCH_ADVERSARIES}
        # the widened frontier: every transport, every scheduler, every
        # algorithm x SSYNC-scheduler pair
        assert {c.transport for c in GRID} == set(BATCH_TRANSPORTS)
        assert {c.scheduler for c in GRID} >= set(_SSYNC_SCHEDULERS)
        assert {(c.algorithm, c.scheduler) for c in GRID} >= {
            (alg, sched)
            for alg in BATCH_ALGORITHMS for sched in _SSYNC_SCHEDULERS}
        # every fault clause kind, under the block-agent peek too
        assert {(c.faults, c.adversary) for c in GRID} >= {
            (plan, "block-agent") for plan in _FAULT_PLANS}
        assert all(batch_eligible(c) for c in GRID)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_batch_agrees_with_scalar(self, seed):
        """The whole grid as ONE mixed batch, against the scalar core."""
        from dataclasses import replace

        cells = [replace(c, seed=seed) for c in GRID]
        divergences = differential_cells(cells)
        assert not divergences, "\n".join(str(d) for d in divergences)

    def test_round_counts_match_cell_by_cell(self):
        """Lockstep round/halt accounting, one batch vs per-cell scalar."""
        from repro.analysis.differential import scalar_result

        results = run_batch_cells(GRID)
        for cell, batch_result in zip(GRID, results):
            scalar = scalar_result(cell)
            assert batch_result.rounds == scalar.rounds, cell
            assert batch_result.halted_reason == scalar.halted_reason, cell


class TestLockstep:
    """Round-by-round state equality (not just final results)."""

    @pytest.mark.parametrize("cell", [
        GRID[0], GRID[5], GRID[9], GRID[-4], GRID[-2],
        CellConfig(algorithm="unconscious", ring_size=9, agents=3,
                   max_rounds=60, adversary="random", seed=7,
                   stop_on_exploration=True),
        CellConfig(algorithm="known-bound", ring_size=13, agents=2,
                   max_rounds=120, adversary="fixed", edge=5, seed=3),
    ], ids=lambda c: f"{c.algorithm}-{c.adversary}-n{c.ring_size}-k{c.agents}")
    def test_every_round_state_identical(self, cell):
        assert lockstep_divergence(cell) is None


class TestMixedCompositions:
    def test_mixed_horizons_batch_mixes_halted_and_running(self):
        """Cells halting at wildly different rounds share one batch."""
        from dataclasses import replace

        # A cell that actually terminates well before round 90, so the
        # horizon sweep really mixes halt reasons (GRID[0] is sorted-
        # alphabetically "et-exact", which never terminates with k=2).
        base = CellConfig(algorithm="known-bound", ring_size=8, agents=2,
                          max_rounds=90, adversary="fixed", edge=3,
                          transport="ns")
        cells = [replace(base, max_rounds=m, seed=s)
                 for m in (1, 2, 7, 40, 90) for s in SEEDS]
        # sanity: the composition really mixes halt reasons
        results = run_batch_cells(cells)
        assert len({r.halted_reason for r in results}) >= 2
        assert not differential_cells(cells)

    def test_singleton_batch(self):
        assert not differential_cells([GRID[3]])

    def test_core_requires_uniform_shape(self):
        with pytest.raises(ConfigurationError):
            BatchCore([GRID[0],
                       CellConfig(algorithm="unconscious", ring_size=8,
                                  agents=3, max_rounds=10)])

    def test_run_batch_cells_groups_mixed_shapes(self):
        """run_batch_cells regroups by (algorithm, k) and restores order."""
        mixed = [GRID[0], GRID[2], GRID[1], GRID[0]]
        payloads = [result_payload(r) for r in run_batch_cells(mixed)]
        singles = [result_payload(run_batch_cells([c])[0]) for c in mixed]
        assert payloads == singles


class TestSSyncMaskReplay:
    """Activation masks vs the scalar schedulers, round by round.

    The SSYNC story batches by asking each cell's scheduler object for
    its per-round activation set; lockstep comparison after *every*
    round is the proof that the mask stream equals the scalar
    interleaving (same RNG, same starvation caps, same ET debt forcing).
    """

    @pytest.mark.parametrize("scheduler", _SSYNC_SCHEDULERS)
    @pytest.mark.parametrize("algorithm,transport", [
        ("known-bound", "ns"),
        ("pt-bound", "pt"),
        ("et-unconscious", "et"),
    ], ids=lambda v: v if isinstance(v, str) else "")
    def test_every_round_matches_scalar(self, scheduler, algorithm,
                                        transport):
        for seed in SEEDS:
            cell = CellConfig(
                algorithm=algorithm, ring_size=9, agents=3, max_rounds=80,
                seed=seed, adversary="random", transport=transport,
                scheduler=scheduler)
            assert lockstep_divergence(cell) is None, (scheduler, seed)

    def test_auto_scheduler_resolves_per_transport(self):
        """auto = fsync/NS, random-fair/PT, et-fair/ET — all in one mix."""
        from dataclasses import replace

        base = [
            CellConfig(algorithm="unconscious", ring_size=8, agents=2,
                       max_rounds=70, adversary="random", transport="ns",
                       stop_on_exploration=True),
            CellConfig(algorithm="pt-landmark", ring_size=8, agents=2,
                       max_rounds=70, adversary="random", transport="pt"),
            CellConfig(algorithm="et-exact", ring_size=8, agents=2,
                       max_rounds=70, adversary="random", transport="et"),
        ]
        cells = [replace(c, seed=s) for c in base for s in SEEDS]
        assert not differential_cells(cells)

    def test_round_robin_rows_beside_fsync_rows_as_agents_terminate(self):
        """Round-robin rows are computed for the whole batch at once.

        FSYNC and round-robin cells share one batch, and on these rings
        start-from-landmark's agents 1 and 2 terminate within a few dozen
        rounds while agent 0 runs on to the horizon, so the live set a
        round-robin row picks from shrinks from 3 to 1 mid-run.
        """
        cells = [
            CellConfig(algorithm="start-from-landmark", ring_size=n,
                       agents=3, max_rounds=120, adversary=adversary,
                       edge=2, seed=seed, scheduler=scheduler)
            for scheduler in ("fsync", "round-robin")
            for n in (5, 6, 7)
            for adversary in ("fixed", "random")
            for seed in SEEDS
        ]
        core = BatchCore(cells)
        results = core.run()
        shrunk = [
            cell for ci, cell in enumerate(cells)
            if cell.scheduler == "round-robin"
            and (core.term_round[ci] >= 0).sum() == 2
            and core.term_round[ci].max() < results[ci].rounds - 1
        ]
        assert len(shrunk) >= 3
        assert not differential_cells(cells)
        assert lockstep_divergence(shrunk[0]) is None


def _both_cores(cell):
    """``(batch, scalar)`` results of one cell."""
    from repro.analysis.differential import scalar_result

    return run_batch_cells([cell])[0], scalar_result(cell)


class TestFaultPlans:
    """Crash state on both cores: the edge cases, pinned."""

    def test_crashing_the_whole_team_at_round_zero(self):
        cell = CellConfig(algorithm="known-bound", ring_size=8, agents=2,
                          max_rounds=50, faults="crash:0@0,crash:1@0")
        for result in _both_cores(cell):
            assert result.rounds == 0
            assert result.halted_reason == "all-crashed"
            assert result.crashed_count == 2
            assert all(a.crashed and not a.waiting_on_port
                       for a in result.agents)
        assert lockstep_divergence(cell) is None

    def test_scheduled_crash_of_a_terminated_agent_does_nothing(self):
        from dataclasses import replace

        # Agent 0 terminates at round 5; the run ends at round 18.
        free = CellConfig(algorithm="start-from-landmark", ring_size=5,
                          agents=3, max_rounds=120, adversary="fixed",
                          edge=2)
        cell = replace(free, faults="crash:0@10")
        expected = result_payload(run_batch_cells([free])[0])
        assert expected["agents"][0][3] == 5 and expected["rounds"] == 18
        for result in _both_cores(cell):
            payload = result_payload(result)
            assert payload.pop("crashed") == [0, []]
            assert payload == expected
        assert lockstep_divergence(cell) is None

    @pytest.mark.parametrize("edge", [0, 3, 6])
    def test_lost_on_removal_under_a_fixed_edge(self, edge):
        cell = CellConfig(algorithm="known-bound", ring_size=8, agents=2,
                          max_rounds=60, adversary="fixed", edge=edge,
                          faults="lost:*")
        batch, scalar = _both_cores(cell)
        assert result_payload(batch) == result_payload(scalar)
        assert batch.crashed_count >= 1
        assert lockstep_divergence(cell) is None

    def test_rate_replay_under_random_fair(self):
        cells = [CellConfig(algorithm="unconscious", ring_size=9, agents=3,
                            max_rounds=120, adversary="random", seed=seed,
                            scheduler="random-fair", faults="rate:0.05")
                 for seed in range(6)]
        assert not differential_cells(cells)
        assert any(r.crashed_count for r in run_batch_cells(cells))
        for cell in cells[:3]:
            assert lockstep_divergence(cell) is None


class TestCrashedAgentsAreNeverForced:
    """A crashed agent's idle count is frozen, so the starvation cap must
    not force it: random-fair forces live agents only, on both cores.

    With ``p=0.3`` and a cap of 5, agent 0 can reach the cap in the round
    its crash lands; forcing it left a chosen set with no live agent, so
    the scalar engine refused the round while BatchCore ran on.
    """

    @pytest.mark.parametrize("seed,faults", [
        (16, "crash:0@10"), (18, "crash:0@7"), (23, "crash:0@10")])
    def test_scalar_completes_and_batch_agrees(self, monkeypatch, seed,
                                               faults):
        from repro.analysis.differential import scalar_result
        from repro.campaigns import registry
        from repro.schedulers import RandomFairScheduler

        monkeypatch.setitem(
            registry.SCHEDULERS, "random-fair",
            lambda c: RandomFairScheduler(p=0.3, seed=c.seed + 1,
                                          starvation_cap=5))
        cell = CellConfig(algorithm="pt-bound", ring_size=9, agents=3,
                          max_rounds=400, transport="pt", seed=seed,
                          faults=faults)
        scalar = scalar_result(cell)
        assert scalar.crashed_count == 1
        assert result_payload(run_batch_cells([cell])[0]) == \
            result_payload(scalar)
        assert lockstep_divergence(cell) is None


class TestWordStreams:
    """BatchCore reads the seeded policies' own words, in blocks.

    The block/cursor draws of :class:`~repro.core.batch._WordBlocks` must
    equal the calls the policy objects make: checked against twin
    generators directly, and round by round against detached twins of
    each cell's adversary and scheduler asked through ``edge_for`` and
    ``choose``.
    """

    @pytest.fixture(autouse=True)
    def _numpy_bound(self):
        # The first BatchCore of a process binds NumPy to the module.
        BatchCore([CellConfig(algorithm="known-bound", ring_size=5,
                              max_rounds=1)])

    @pytest.mark.parametrize("seed", range(3))
    def test_blocks_replay_random_randrange_and_choice(self, seed):
        import random

        import numpy as np

        from repro.adversary import RandomMissingEdge
        from repro.core.batch import _LOOKAHEAD, _WordBlocks

        script = random.Random(seed)
        seeds = range(100 * seed, 100 * seed + 12)
        twins = [random.Random(s) for s in seeds]
        words = _WordBlocks([RandomMissingEdge(seed=s) for s in seeds], 6)
        sizes = (1, 2, 3, 5, 6, 7, 8, 9, 16, 17, 64, 100)
        short_draws = 0
        for _ in range(3000):
            rows = np.array(sorted(script.sample(range(12),
                                                 script.randint(1, 12))))
            op = script.randrange(3)
            if op == 0:  # random(), as RandomMissingEdge's coin
                words.ensure(rows, 2)
                got = words.random(rows, 0)[:, 0].tolist()
                words.cur[rows] += 2
                assert got == [twins[j].random() for j in rows.tolist()]
            elif op == 1:  # randrange(n) / choice of n, powers of two too
                n = np.array([script.choice(sizes) for _ in rows])
                short_draws += int(
                    (words.end[rows] - words.cur[rows] < _LOOKAHEAD).any())
                got = words.below(rows, n).tolist()
                assert got == [twins[j].randrange(int(m))
                               for j, m in zip(rows.tolist(), n.tolist())]
            else:  # random-fair's coins: two words per live agent
                live = np.array([[script.random() < 0.7 for _ in range(3)]
                                 for _ in rows])
                rank = np.cumsum(live, axis=1) - 1
                words.ensure(rows, 6)
                got = words.random(rows, 2 * np.maximum(rank, 0))
                words.cur[rows] += 2 * live.sum(axis=1)
                for j, row, mask in zip(rows.tolist(), got.tolist(),
                                        live.tolist()):
                    expect = [twins[j].random() for m in mask if m]
                    assert [u for u, m in zip(row, mask) if m] == expect
        # Draws that began within a look-ahead of a block's end, so read
        # across the refill.
        assert short_draws > 50

    @staticmethod
    def replay(cells):
        """Run ``cells`` as one batch, checking every round's missing edge
        and activation set against detached twins of each cell's
        policies; returns the core and the per-row rounds checked."""
        import numpy as np

        from repro.campaigns.registry import ADVERSARIES, cell_scheduler

        adversaries = [ADVERSARIES[c.adversary](c) for c in cells]
        schedulers = [cell_scheduler(c, adv)
                      for c, adv in zip(cells, adversaries)]
        core = BatchCore(cells)
        missing_edges, activation = core._missing_edges, core._activation
        checked = np.zeros(len(cells), dtype=int)

        def check_missing(run, dead, look):
            missing = missing_edges(run, dead, look)
            for ci in np.nonzero(run)[0].tolist():
                edge = adversaries[ci].edge_for(core._t, cells[ci].ring_size)
                assert missing[ci] == (-1 if edge is None else edge), \
                    (ci, core._t)
            return missing

        def check_activation(run, missing, dead):
            idle = core.rsa.copy()
            waits = core.on_port & ~core.term
            edge = np.where(core.port == 1, core.pos,
                            (core.pos - 1) % core.n[:, None])
            act = activation(run, missing, dead)
            for ci in np.nonzero(run)[0].tolist():
                live = [i for i in range(core._K) if not dead[ci, i]]
                waiting = {i: bool(edge[ci, i] != missing[ci])
                           for i in range(core._K) if waits[ci, i]}
                expect = schedulers[ci].choose(
                    live, {i: int(idle[ci, i]) for i in live}, waiting)
                assert set(np.nonzero(act[ci])[0].tolist()) == expect, \
                    (ci, core._t)
                checked[ci] += 1
            return act

        core._missing_edges = check_missing
        core._activation = check_activation
        core.run()
        return core, checked

    @staticmethod
    def override(monkeypatch, *, edge_p=1.0, fair_p=0.5, cap=64):
        from repro.adversary import RandomMissingEdge
        from repro.campaigns import registry
        from repro.schedulers import ETFairScheduler, RandomFairScheduler

        def random_fair(c):
            return RandomFairScheduler(p=fair_p, seed=c.seed + 1,
                                       starvation_cap=cap)

        monkeypatch.setitem(registry.ADVERSARIES, "random",
                            lambda c: RandomMissingEdge(p=edge_p, seed=c.seed))
        monkeypatch.setitem(registry.SCHEDULERS, "random-fair", random_fair)
        monkeypatch.setitem(registry.SCHEDULERS, "et-fair",
                            lambda c: ETFairScheduler(random_fair(c),
                                                      patience=3))

    @pytest.mark.parametrize("edge_p", [1.0, 0.4])
    def test_ring_sizes_including_powers_of_two(self, monkeypatch, edge_p):
        self.override(monkeypatch, edge_p=edge_p)
        cells = [
            CellConfig(algorithm="unconscious", ring_size=n, agents=3,
                       max_rounds=150, transport=transport,
                       scheduler=scheduler, seed=seed)
            for n in (5, 6, 7, 8, 9, 16, 64)
            for transport, scheduler in (
                ("ns", "random-fair"), ("ns", "round-robin"),
                ("et", "auto"))
            for seed in (0, 1)
        ]
        core, checked = self.replay(cells)
        assert checked.min() > 0
        assert not differential_cells(cells)

    def test_single_live_agent_falls_back_to_choice(self, monkeypatch):
        """``choice`` over one live agent reads words until a top bit is
        0 (``bit_length`` 1): lone agents, and teams crashed down to one,
        under a scheduler whose coins mostly come up empty."""
        self.override(monkeypatch, fair_p=0.1)
        for k, faults in ((1, ""), (3, "crash:0@2,crash:2@5")):
            cells = [
                CellConfig(algorithm="unconscious", ring_size=n, agents=k,
                           max_rounds=300, transport="pt", seed=seed,
                           faults=faults)
                for n in (6, 8)
                for seed in range(3)
            ]
            core, checked = self.replay(cells)
            assert (checked == 300).all()
            assert (~(core.term | core.crashed)).sum(axis=1).max() == 1
            assert not differential_cells(cells)

    def test_pt_cells_refill_many_times(self, monkeypatch):
        from repro.schedulers import RandomFairScheduler

        blocks = []
        real_words = RandomFairScheduler.words
        monkeypatch.setattr(
            RandomFairScheduler, "words",
            lambda self, count: blocks.append(count) or real_words(self,
                                                                  count))
        for algorithm in ("pt-bound", "unconscious"):
            cells = [
                CellConfig(algorithm=algorithm, ring_size=n, agents=3,
                           max_rounds=2000, transport="pt",
                           placement="thirds", seed=seed)
                for n in (6, 8)
                for seed in (0, 1)
            ]
            blocks.clear()
            core, checked = self.replay(cells)
            assert not differential_cells(cells)
        # The unconscious rows never halt: 2000 rounds x 3 agents x 2
        # words each, so each of the four refills its block ~190 times.
        assert (checked == 2000).all()
        assert len(blocks) >= 4 * 2000 * 3 * 2 // max(blocks)

    def test_factory_without_array_form_runs_scalar(self, monkeypatch):
        from repro.adversary import RandomMissingEdge
        from repro.campaigns import registry
        from repro.campaigns.executor import execute_cell, run_chunk

        class Custom(RandomMissingEdge):
            pass

        monkeypatch.setitem(registry.ADVERSARIES, "random",
                            lambda c: Custom(seed=c.seed))
        cells = [CellConfig(algorithm="known-bound", ring_size=8,
                            max_rounds=60, seed=seed) for seed in range(3)]
        with pytest.raises(ConfigurationError, match="no array form"):
            BatchCore(cells)
        records, batched = run_chunk(cells, planned=True)
        assert batched == 0
        for record, cell in zip(records, cells):
            scalar = execute_cell(cell)
            assert record["metrics"] == scalar["metrics"]
            assert record["config"] == scalar["config"]


class TestRegistryOverrides:
    """BatchCore runs the registry's policy objects, whatever they hold.

    Every scheduler, adversary and fault injector a batch row consults is
    the object the registry builds for the scalar engine, so a factory
    rebuilt with non-default parameters must move both routes alike.
    """

    @staticmethod
    def override(monkeypatch):
        from repro.adversary import (
            BlockAgentAdversary, PeriodicMissingEdge, RandomMissingEdge)
        from repro.campaigns import registry
        from repro.schedulers import (
            ETFairScheduler, RandomFairScheduler, RoundRobinScheduler)

        def random_fair(c):
            return RandomFairScheduler(p=0.3, seed=c.seed + 1,
                                       starvation_cap=5)

        for table, name, factory in (
            (registry.SCHEDULERS, "random-fair", random_fair),
            (registry.SCHEDULERS, "et-fair",
             lambda c: ETFairScheduler(random_fair(c), patience=3)),
            (registry.SCHEDULERS, "round-robin",
             lambda c: RoundRobinScheduler(window=2)),
            (registry.ADVERSARIES, "periodic",
             lambda c: PeriodicMissingEdge(c.edge, period=3, duty=1)),
            (registry.ADVERSARIES, "random",
             lambda c: RandomMissingEdge(p=0.5, seed=c.seed)),
            (registry.ADVERSARIES, "block-agent",
             lambda c: BlockAgentAdversary(1)),
        ):
            monkeypatch.setitem(table, name, factory)

    @pytest.mark.parametrize("scheduler", ("auto",) + _SSYNC_SCHEDULERS)
    def test_non_default_factories_agree_with_scalar(self, monkeypatch,
                                                     scheduler):
        self.override(monkeypatch)
        cells = [
            CellConfig(algorithm=algorithm, ring_size=9, agents=3,
                       max_rounds=90, adversary=adversary, edge=2,
                       transport=transport, scheduler=scheduler, seed=seed,
                       faults=faults)
            for algorithm, transport in (("unconscious", "ns"),
                                         ("pt-bound", "pt"),
                                         ("et-unconscious", "et"))
            for adversary in ("periodic", "random", "block-agent")
            for seed, faults in ((0, ""), (1, "rate:0.02"))
        ]
        assert not differential_cells(cells)


class TestBlockAgent:
    """The block-agent peek: a side-effect-free Compute of agent 0."""

    @staticmethod
    def cells(algorithm):
        transport = _HOME_TRANSPORT.get(algorithm, "ns")
        return [
            CellConfig(algorithm=algorithm, ring_size=n, agents=k,
                       max_rounds=70, adversary="block-agent",
                       transport=transport, scheduler=scheduler, seed=seed,
                       faults=faults)
            for n, k in ((6, 1), (7, 2), (8, 3))
            for scheduler in ("auto", "round-robin")
            for seed, faults in ((0, ""), (1, "crash:0@9"))
        ]

    @pytest.mark.parametrize("algorithm", sorted(BATCH_ALGORITHMS))
    def test_intend_pass_leaves_every_array_unchanged(self, algorithm):
        """Whatever a program writes during the peek is put back; a
        program that writes a column the peek does not save fails here."""
        calls = []
        for k in (1, 2, 3):
            core = BatchCore([c for c in self.cells(algorithm)
                              if c.agents == k])
            self.check_intend(core, calls)
            core.run()
        assert sum(calls) > 0

    @staticmethod
    def check_intend(core, calls):
        """Wrap ``core._intend`` to compare every array around each pass."""
        import numpy as np

        real = core._intend

        def checked(mask, look):
            before = {name: value.copy() for name, value in vars(core).items()
                      if isinstance(value, np.ndarray)}
            schedules = [list(row) for row in getattr(core, "_schedules", ())]
            out = real(mask, look)
            after = {name: value for name, value in vars(core).items()
                     if isinstance(value, np.ndarray)}
            assert after.keys() == before.keys()
            for name, value in after.items():
                assert np.array_equal(value, before[name]), name
            assert [list(row) for row in getattr(core, "_schedules", ())] \
                == schedules
            calls.append(int(mask.sum()))
            return out

        core._intend = checked

    @pytest.mark.parametrize("algorithm", sorted(BATCH_ALGORITHMS))
    def test_missing_edge_matches_the_scalar_adversary_every_round(
            self, algorithm):
        from repro.campaigns.registry import build_cell_engine

        for cell in self.cells(algorithm):
            core = BatchCore([cell])
            engine = build_cell_engine(cell)
            rounds = 0
            while core.advance():
                if not engine.step():
                    break
                rounds += 1
                expected = engine.missing_edge
                assert int(core.missing[0]) == (
                    -1 if expected is None else expected), (cell, rounds)
            assert rounds == core.results()[0].rounds, cell
            assert lockstep_divergence(cell) is None, cell


class TestMixedEligibility:
    """A chunk mixing batchable and scalar-only cells loses nothing."""

    def test_chunk_interleaves_batch_and_scalar_records(self):
        from dataclasses import replace

        from repro.analysis.differential import scalar_result
        from repro.campaigns.aggregate import metrics_from_result
        from repro.campaigns.executor import run_chunk

        eligible = [replace(GRID[i], seed=9) for i in (0, 5, 9)]
        ineligible = [
            CellConfig(algorithm="known-bound", ring_size=8, agents=2,
                       max_rounds=50, adversary="ns-starvation"),
            CellConfig(algorithm="known-bound", ring_size=8, agents=2,
                       max_rounds=50, adversary="prevent-meetings"),
        ]
        assert all(not batch_eligible(c) for c in ineligible)
        cells = [eligible[0], ineligible[0], eligible[1], ineligible[1],
                 eligible[2]]
        records, batched = run_chunk(cells, planned=True)
        assert batched == 3
        assert [r["key"] for r in records] == [c.key() for c in cells]
        for cell, record in zip(cells, records):
            assert "error" not in record, record
            assert record["metrics"] == metrics_from_result(
                scalar_result(cell))


class TestWidthAndScale:
    """The batch width cap and the packed-bitmap memory cap."""

    def test_split_batches_counts_packed_visited_bytes(self, monkeypatch):
        """Pins the packed sizing: 1024 cells x 10^5 nodes is ONE batch.

        Packed, the visited plane is 1024 x ceil(1e5/8) B ~ 12.2 MiB —
        under the 64 MiB cap; an unpacked bool bitmap (1024 x 1e5 B
        ~ 97.7 MiB) would have forced a split.  This is the regression
        test for the 10^5-node-ring sweep that previously exceeded the
        cap.
        """
        from repro.core.batch import _MAX_VISITED_BYTES, _split_batches

        monkeypatch.setattr("repro.core.batch.BATCH_WIDTH", 1024)
        n = 100_000
        cells = [CellConfig(algorithm="known-bound", ring_size=n, agents=2,
                            max_rounds=5, seed=s, adversary="random")
                 for s in range(1024)]
        batches = _split_batches(list(enumerate(cells)))
        assert len(batches) == 1
        assert 1024 * ((n + 7) // 8) <= _MAX_VISITED_BYTES   # packed fits
        assert 1024 * n > _MAX_VISITED_BYTES                 # bools did not

    def test_hundred_thousand_node_ring_agrees_with_scalar(self):
        cells = [CellConfig(algorithm="known-bound", ring_size=100_000,
                            agents=2, max_rounds=12, seed=s,
                            adversary="random")
                 for s in range(2)]
        assert not differential_cells(cells)

    def test_width_one_still_correct(self, monkeypatch):
        monkeypatch.setattr("repro.core.batch.BATCH_WIDTH", 1)
        cells = GRID[:4]
        from repro.core.batch import _split_batches

        assert len(_split_batches(list(enumerate(cells)))) == 4
        assert not differential_cells(cells)


# -- hypothesis: any valid composition agrees ---------------------------

def _eligible_cell() -> st.SearchStrategy[CellConfig]:
    @st.composite
    def build(draw):
        algorithm = draw(st.sampled_from(sorted(BATCH_ALGORITHMS)))
        n = draw(st.integers(min_value=3, max_value=13))
        k = draw(st.integers(min_value=1, max_value=4))
        adversary = draw(st.sampled_from(sorted(BATCH_ADVERSARIES)))
        placement = draw(st.sampled_from(
            ("spread", "offset-spread", "origin", "explicit")))
        positions = None
        if placement == "explicit":
            positions = tuple(draw(st.lists(
                st.integers(min_value=-2 * n, max_value=2 * n),
                min_size=k, max_size=k)))
        mirrored = draw(st.booleans()) and k >= 2
        flipped = tuple(sorted(draw(st.sets(
            st.integers(min_value=0, max_value=k - 1),
            min_size=1, max_size=k)))) if mirrored else ()
        doomed = draw(st.integers(min_value=0, max_value=k - 1))
        at = draw(st.integers(min_value=0, max_value=30))
        faults = draw(st.sampled_from((
            "", f"crash:{doomed}@{at}", f"lost:{doomed}", "lost:*",
            "rate:0.05", f"crash:{doomed}@{at},lost:*,rate:0.02")))
        return CellConfig(
            algorithm=algorithm,
            ring_size=n,
            agents=k,
            max_rounds=draw(st.integers(min_value=1, max_value=120)),
            seed=draw(st.integers(min_value=0, max_value=2 ** 20)),
            adversary=adversary,
            edge=draw(st.integers(min_value=0, max_value=n - 1)),
            transport=draw(st.sampled_from(sorted(BATCH_TRANSPORTS))),
            scheduler=draw(st.sampled_from(sorted(BATCH_SCHEDULERS))),
            placement=placement,
            positions=positions,
            bound=draw(st.sampled_from((None, n, n + 3))),
            landmark=draw(st.sampled_from(
                (None, 0, n // 2, n - 1))),
            chirality=not mirrored,
            flipped=flipped,
            stop_on_exploration=draw(st.booleans()),
            faults=faults,
        )

    return build()


class TestHypothesisCompositions:
    @settings(max_examples=20, deadline=None)
    @given(cells=st.lists(_eligible_cell(), min_size=1, max_size=6))
    def test_any_valid_batch_agrees_cell_by_cell(self, cells):
        assert all(batch_eligible(c) for c in cells)
        divergences = differential_cells(cells)
        assert not divergences, "\n".join(str(d) for d in divergences)

    @settings(max_examples=15, deadline=None)
    @given(cell=_eligible_cell())
    def test_any_valid_cell_lockstep(self, cell):
        assert lockstep_divergence(cell) is None


# -- the shared eligibility predicate -----------------------------------

class TestPrograms:
    """``PROGRAMS`` is the one list of vectorised algorithms."""

    @pytest.mark.parametrize("algorithm", sorted(BATCH_ALGORITHMS))
    def test_every_batch_algorithm_builds_a_program(self, algorithm):
        program = build_program(algorithm)
        assert isinstance(program, VectorProgram)
        assert program.initial_code in {st.code for st in program.states}

    def test_batch_algorithms_are_registry_programs(self):
        from repro.campaigns.registry import ALGORITHMS

        assert BATCH_ALGORITHMS == set(PROGRAMS)
        assert BATCH_ALGORITHMS <= set(ALGORITHMS)

    @pytest.mark.parametrize("algorithm", ["strawman", "no-such-algorithm"])
    def test_unknown_algorithm_raises(self, algorithm):
        with pytest.raises(ConfigurationError, match="no vector program"):
            build_program(algorithm)


class TestEligibilityPredicate:
    """One function, imported everywhere — these pin its contract."""

    def test_executor_and_worker_share_this_predicate(self):
        """The routing layers must use *this* function, not a copy."""
        from repro.campaigns import executor
        from repro.campaigns.distributed import worker

        assert executor.batch_eligible is batch_eligible
        # the worker routes through executor.run_chunk, which closes
        # over the same module-level predicate
        assert worker.run_chunk is executor.run_chunk

    @pytest.mark.parametrize("cell,fragment", [
        (CellConfig(algorithm="strawman", ring_size=8, agents=2,
                    max_rounds=50), "algorithm"),
        (CellConfig(algorithm="pt-bound", ring_size=8, agents=2,
                    max_rounds=50, transport="pt", adversary="zigzag",
                    adversary_arg=3), "adversary"),
        (CellConfig(algorithm="known-bound", ring_size=8, agents=2,
                    max_rounds=50, adversary="prevent-meetings"),
         "adversary"),
        (CellConfig(algorithm="known-bound", ring_size=8, agents=2,
                    max_rounds=50, scheduler="windowed"), "scheduler"),
        (CellConfig(algorithm="known-bound", ring_size=8, agents=2,
                    max_rounds=50, faults="crash:5@3"), "fault"),
        (CellConfig(algorithm="known-bound", ring_size=8, agents=2,
                    max_rounds=50, faults="crash:0@3,bogus"), "fault"),
        (CellConfig(algorithm="known-bound", ring_size=8, agents=2,
                    max_rounds=50, topology="torus"), "topology"),
        (CellConfig(algorithm="known-bound", ring_size=8, agents=2,
                    max_rounds=50, debug_invariants=True), "invariant"),
        (CellConfig(algorithm="known-bound", ring_size=8, agents=2,
                    max_rounds=50, adversary="fixed", edge=8), "edge"),
        (CellConfig(algorithm="known-bound", ring_size=8, agents=2,
                    max_rounds=50, flipped=(1,)), "flipped"),
        (CellConfig(algorithm="known-bound", ring_size=8, agents=2,
                    max_rounds=50, landmark=8), "landmark"),
    ], ids=lambda v: v if isinstance(v, str) else "")
    def test_ineligible_with_reason(self, cell, fragment):
        reason = batch_ineligible_reason(cell)
        assert reason is not None and fragment in reason
        assert not batch_eligible(cell)

    def test_eligible_cell_has_no_reason(self):
        assert batch_ineligible_reason(GRID[0]) is None

    def test_run_batch_cells_rejects_ineligible(self):
        # a plan naming agent 5 of 2: the scalar path rejects it
        bad = CellConfig(algorithm="known-bound", ring_size=8, agents=2,
                         max_rounds=50, faults="crash:5@3")
        with pytest.raises(ConfigurationError, match="not batch-eligible"):
            run_batch_cells([GRID[0], bad])

    def test_scalar_rejected_configs_are_ineligible(self):
        """Configs the scalar engine errors on must stay scalar, so the
        fallback reproduces the identical error record."""
        bad = CellConfig(algorithm="known-bound", ring_size=8, agents=2,
                         max_rounds=50, placement="explicit",
                         positions=None)
        assert not batch_eligible(bad)
