"""Per-cell work budgets on the coordinator and worker paths of a sweep.

Each budget counts one step that ``sweep-10k`` repeats for every cell;
the counts before and after that step was made once per cell (or once
per distinct value) are recorded beside each budget.
"""

from __future__ import annotations

import ast

import pytest

from repro.campaigns import spec as spec_module
from repro.campaigns.distributed import run_distributed
from repro.campaigns.distributed.queue import WorkQueue
from repro.campaigns.executor import run_chunk
from repro.campaigns.spec import CampaignSpec, CellConfig
from repro.campaigns.stores import SqliteStore
from repro.core import batch_rules
from repro.obs import metrics as obs_metrics
from repro.resilience.faults import FaultPlan
from tests.campaigns.test_cell_codec import SAMPLE

needs_numpy = pytest.mark.skipif(
    not batch_rules.numpy_available(), reason="batch path needs numpy")

#: The sample sweep with 30 seed values: 7 variants x 2 ring sizes x 30
#: seeds + 1 explicit cell = 421 cells, 301 of them with a horizon
#: expression.
SWEEP = CampaignSpec.from_dict(
    {**SAMPLE.to_dict(), "grid": {"seed": list(range(30)), "ring_size": [6, 8]}})

#: ``ast.parse`` calls in one expansion of SWEEP: 301 (one per horizon
#: cell) before the horizon memo, 5 after (one per distinct
#: ``(expression, n, bound, k)``).
PARSES_BUDGET = 5

#: ``CellConfig.to_dict`` calls per cell in ``WorkQueue.enqueue``: 2
#: before (one for the key, one for the payload), 1 after.
TO_DICT_PER_ENQUEUED_CELL = 1

#: ``_batch_ineligibility`` calls per cell of a planned batch chunk: 3
#: before (``run_chunk``, ``core.batch.run_batch_cells`` and
#: ``BatchCore.__init__``), 1 after.
VERDICTS_PER_BATCHED_CELL = 1

#: ``_batch_ineligibility`` calls per cell in the coordinator of a
#: ``--batch on`` distributed run: 2 before (``prepare_cells`` refused
#: ineligible cells, then ``plan_chunks`` routed them), 1 after (the
#: planner's one verdict does both).
VERDICTS_PER_PLANNED_CELL = 1


def counting(monkeypatch, owner, name):
    """Wrap ``owner.name`` to count its calls; return the call list."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_one_expansion_parses_each_distinct_horizon_once(monkeypatch):
    spec_module._expression_rounds.cache_clear()
    parses = counting(monkeypatch, ast, "parse")
    cells = SWEEP.cell_list()
    assert len(cells) == 421
    assert len(parses) <= PARSES_BUDGET


def test_enqueue_encodes_each_cell_once(monkeypatch, tmp_path):
    cells = SWEEP.cell_list()
    to_dict = counting(monkeypatch, CellConfig, "to_dict")
    store = SqliteStore(tmp_path / "q.db", campaign=SWEEP.name)
    report = WorkQueue(store).enqueue(cells)
    assert report.enqueued_cells == len(cells)
    assert len(to_dict) <= TO_DICT_PER_ENQUEUED_CELL * len(cells)


@needs_numpy
@pytest.mark.parametrize("metrics", [False, True])
def test_a_batch_chunk_checks_each_cell_once(monkeypatch, metrics):
    cells = [c for c in SAMPLE.cells() if batch_rules.batch_eligible(c)]
    assert any(c.faults for c in cells)
    verdicts = counting(monkeypatch, batch_rules, "_batch_ineligibility")
    FaultPlan.parse.cache_clear()
    obs_metrics.configure(enabled=metrics)
    try:
        records, batched = run_chunk(cells, planned=True)
    finally:
        obs_metrics.configure(enabled=None)
        obs_metrics.reset()
    assert batched == len(cells) == len(records)
    assert len(verdicts) == VERDICTS_PER_BATCHED_CELL * len(cells)
    # ``faults`` strings are parsed once per distinct value, not per cell.
    distinct = {c.faults for c in cells if c.faults}
    assert FaultPlan.parse.cache_info().misses == len(distinct)


@needs_numpy
def test_planning_under_on_checks_each_cell_once(monkeypatch, tmp_path):
    """Counts the coordinator's calls only: the forked queue worker
    that runs the chunks appends to its own copy of the list."""
    cells = [c for c in SAMPLE.cells() if batch_rules.batch_eligible(c)]
    verdicts = counting(monkeypatch, batch_rules, "_batch_ineligibility")
    store = SqliteStore(tmp_path / "q.db", campaign=SAMPLE.name)
    run = run_distributed(SAMPLE, store, cells=cells, workers=1,
                          lease_ttl_s=10, batch="on")
    assert run.batched == len(cells) == run.executed
    assert len(verdicts) == VERDICTS_PER_PLANNED_CELL * len(cells)
