"""Differential-testing harness: BatchCore vs the scalar simulation core.

The vectorized batch engine (:mod:`repro.core.batch`) re-implements the
round loop — FSYNC and the mask-replayable SSYNC schedulers, all three
transports, every registry algorithm, fault plans and the block-agent
adversary — as whole-array operations, so its correctness argument is
*empirical by construction*: every claim of equivalence is backed by
executing the same cells through :class:`~repro.core.batch.BatchCore`
and the scalar :class:`~repro.core.sim.SimulationCore` and comparing
everything observable.  This module is that harness, packaged once so
the equivalence suite, the golden-trace replay and ad-hoc sweeps all
share one definition of "agrees":

* :func:`result_payload` — the canonical comparable essence of a
  :class:`~repro.core.results.RunResult` (exactly the ``result`` block
  the golden ring-trace digests pin, so "payload-equal" here means
  "digest-equal" there);
* :func:`differential_cells` — run a batch composition through both
  cores and collect :class:`Divergence` records (empty list = proven
  equivalent for those cells);
* :func:`lockstep_divergence` — step one cell round-by-round through
  both cores comparing full per-agent state (position, port, every
  memory counter), catching divergences that cancel out by run end.

Run ad hoc::

    PYTHONPATH=src python -m repro.analysis.differential
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from ..campaigns.registry import build_cell_engine
from ..campaigns.spec import CellConfig
from ..core.batch import BatchCore, batch_ineligible_reason, run_routed_cells
from ..core.errors import ConfigurationError
from ..core.results import RunResult

def result_payload(result: RunResult) -> dict[str, Any]:
    """The comparable essence of one run outcome.

    Deliberately the same shape as the ``result`` block of
    :func:`tests.core.golden_traces.run_digest`'s payload: rounds, the
    exploration outcome, the visited set, the halt reason and the full
    per-agent record.  A run under a fault plan adds one ``crashed``
    entry (the census and the crashed indexes), so fault-free payloads
    keep the golden shape.  Two runs with equal payloads are
    indistinguishable to every consumer of :class:`RunResult` that the
    campaign layer has (metrics, aggregation, reports).
    """
    payload = {
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
    if result.crashed_count is not None:
        payload["crashed"] = [result.crashed_count,
                              [a.index for a in result.agents if a.crashed]]
    return payload


def scalar_result(cell: CellConfig) -> RunResult:
    """One cell through the scalar core (the campaign executor's path)."""
    engine = build_cell_engine(cell)
    return engine.run(
        cell.max_rounds, stop_on_exploration=cell.stop_on_exploration)


@dataclass(frozen=True)
class Divergence:
    """One observed disagreement between the batch and the scalar core."""

    cell: CellConfig
    field: str       # payload key that differed
    batch_value: Any
    scalar_value: Any

    def __str__(self) -> str:  # readable pytest failure output
        return (f"[{self.cell.algorithm}/{self.cell.adversary} "
                f"n={self.cell.ring_size} k={self.cell.agents} "
                f"seed={self.cell.seed}] {self.field} "
                f"batch={self.batch_value!r} scalar={self.scalar_value!r}")


def _require_eligible(cells: Iterable[CellConfig]) -> None:
    for cell in cells:
        reason = batch_ineligible_reason(cell)
        if reason is not None:
            raise ConfigurationError(
                f"differential harness got a batch-ineligible cell: {reason}")


def differential_cells(cells: Iterable[CellConfig]) -> list[Divergence]:
    """Run a batch composition through both cores; collect divergences.

    The cells are executed *as one batch* (mixed sizes/seeds/adversaries,
    including cells that terminate at different rounds — exactly the
    composition a campaign chunk hands :func:`run_routed_cells`), then
    each cell is re-run scalar and the payloads compared field by
    field.  An empty return is the equivalence proof for this
    composition.
    """
    cells = list(cells)
    _require_eligible(cells)
    batch_results = run_routed_cells(cells)
    divergences: list[Divergence] = []
    for cell, batch_result in zip(cells, batch_results):
        batch_payload = result_payload(batch_result)
        scalar_payload = result_payload(scalar_result(cell))
        for key in scalar_payload.keys() | batch_payload.keys():
            if batch_payload.get(key) != scalar_payload.get(key):
                divergences.append(Divergence(
                    cell=cell, field=key,
                    batch_value=batch_payload.get(key),
                    scalar_value=scalar_payload.get(key)))
    return divergences


def _agent_mismatch(state: dict, engine) -> str | None:
    """Compare one BatchCore debug snapshot against scalar agent state."""
    for agent, snap in zip(engine.agents, state["agents"]):
        mem = agent.memory
        expected = {
            "node": agent.node,
            "port": None if agent.port is None else int(agent.port),
            "terminated": agent.terminated,
            "crashed": agent.crashed,
            "Ttime": mem.Ttime, "Tsteps": mem.Tsteps,
            "Etime": mem.Etime, "Esteps": mem.Esteps,
            "Btime": mem.Btime,
            "moved": mem.moved, "failed": mem.failed,
            "net": mem.net, "min_net": mem.min_net, "max_net": mem.max_net,
            "size": mem.size, "Ntime": mem.Ntime,
        }
        for key, value in expected.items():
            if snap[key] != value:
                return (f"agent {agent.index} {key}: "
                        f"batch={snap[key]!r} scalar={value!r}")
    if state["visited_count"] != len(engine.visited):
        return (f"visited_count: batch={state['visited_count']} "
                f"scalar={len(engine.visited)}")
    return None


def lockstep_divergence(cell: CellConfig) -> str | None:
    """Step one cell through both cores in lockstep; ``None`` = identical.

    Stronger than :func:`differential_cells`: the comparison happens
    after *every* round, over the agents' full observable state, so two
    bugs that cancel out by run end still show up.  The scalar side is
    stepped exactly as :meth:`BatchCore.advance` halts — the halt-check
    mirroring is itself under test here.
    """
    _require_eligible([cell])
    core = BatchCore([cell])
    engine = build_cell_engine(cell)
    mismatch = _agent_mismatch(core.debug_state(0), engine)
    if mismatch is not None:
        return f"round 0 (initial): {mismatch}"
    rounds = 0
    while core.advance():
        engine.step()
        rounds += 1
        mismatch = _agent_mismatch(core.debug_state(0), engine)
        if mismatch is not None:
            return f"round {rounds}: {mismatch}"
    batch_payload = result_payload(core.results()[0])
    scalar_payload = result_payload(scalar_result(cell))
    for key in scalar_payload.keys() | batch_payload.keys():
        if batch_payload.get(key) != scalar_payload.get(key):
            return (f"final result {key}: batch={batch_payload.get(key)!r} "
                    f"scalar={scalar_payload.get(key)!r}")
    return None


def _demo_cells() -> list[CellConfig]:
    """A small mixed composition for the module's __main__ smoke run."""
    cells = []
    for seed in range(4):
        cells.append(CellConfig(
            algorithm="known-bound", ring_size=8 + seed, agents=2,
            max_rounds=80, seed=seed, adversary="random", transport="ns"))
        cells.append(CellConfig(
            algorithm="unconscious", ring_size=9, agents=3, max_rounds=60,
            seed=seed, adversary="random", transport="ns",
            stop_on_exploration=True, placement="offset-spread"))
    return cells


if __name__ == "__main__":  # pragma: no cover - manual smoke entry
    found = differential_cells(_demo_cells())
    for div in found:
        print(div)
    print(f"{len(_demo_cells())} cells: {len(found)} divergences")
    raise SystemExit(1 if found else 0)
