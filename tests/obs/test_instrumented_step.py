"""A phase timer must observe the round loop without changing it.

``SimulationCore.step`` times its phases only when a ``PhaseTimer`` is
attached (``set_instrument``).  These tests pin that a timed run
produces exactly the same trajectory, round for round, across
adversaries and transports, and that the timer's totals land in the
metrics registry.
"""

import pytest

from repro.campaigns.registry import build_cell_engine
from repro.campaigns.spec import CellConfig
from repro.obs.metrics import MetricsRegistry, PhaseTimer

CELLS = [
    CellConfig(algorithm="known-bound", ring_size=9, agents=2, seed=3,
               adversary="random", transport="ns", max_rounds=400),
    CellConfig(algorithm="known-bound", ring_size=8, agents=3, seed=1,
               adversary="ns-starvation", transport="ns", max_rounds=400),
    CellConfig(algorithm="pt-bound", ring_size=7, agents=2, seed=2,
               adversary="zigzag", transport="pt", max_rounds=600),
    CellConfig(algorithm="unconscious", ring_size=8, agents=4, seed=0,
               adversary="block-agent", transport="ns", max_rounds=200,
               stop_on_exploration=True),
]


def run_trajectory(cell: CellConfig, *, instrument):
    """(positions, missing, explored) per round, plus the final engine."""
    engine = build_cell_engine(cell)
    engine.set_instrument(instrument)
    states = []
    for _ in range(cell.max_rounds):
        if not engine.step():      # no live agent: no round executed
            break
        states.append((
            tuple((a.index, a.node, a.port, a.terminated)
                  for a in engine.agents),
            engine.missing_edge,
            engine.exploration_complete,
        ))
        if cell.stop_on_exploration and engine.exploration_complete:
            break
    return states, engine


@pytest.mark.parametrize("cell", CELLS,
                         ids=[c.algorithm + "/" + c.adversary for c in CELLS])
def test_instrumented_trajectory_identical(cell):
    plain, _ = run_trajectory(cell, instrument=None)
    timer = PhaseTimer()
    timed, _ = run_trajectory(cell, instrument=timer)
    assert timed == plain
    assert timer.rounds == len(plain)
    # wall-clock accumulated somewhere (phases are >= 0 by construction)
    assert timer.adversary >= 0.0 and timer.look_compute >= 0.0


def test_detached_timer_stops_accumulating():
    engine = build_cell_engine(CELLS[0])
    timer = PhaseTimer()
    engine.set_instrument(timer)
    assert engine.instrument is timer
    assert engine.step()
    assert timer.rounds == 1
    engine.set_instrument(None)
    assert engine.instrument is None
    assert engine.step()                          # still runs, untimed
    assert timer.rounds == 1


def test_timer_flush_lands_phase_histograms():
    engine = build_cell_engine(CELLS[0])
    timer = PhaseTimer()
    engine.set_instrument(timer)
    for _ in range(50):
        if not engine.step():
            break
    reg = MetricsRegistry()
    timer.flush(reg)
    snap = reg.snapshot()
    for phase in PhaseTimer.PHASES:
        dump = snap[f"engine.phase.{phase}_s"]
        assert dump["count"] == 1
        assert dump["sum"] >= 0.0
    assert snap["engine.run_rounds"]["sum"] > 0
