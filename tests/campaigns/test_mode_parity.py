"""Mode parity: serial, pool and distributed runs share one loop.

One mixed cell list — batch-eligible cells, scalar-only cells (a fault
plan) and a cell that errors — goes through ``run_cells`` serially, on a
two-process pool, and through ``run_distributed``.  All three must write
the same records (modulo the ``elapsed_s``/``span_id`` telemetry), report
the same accounting, and find nothing left to do on a second pass: this
pins the shared claim → run → commit loop's bookkeeping.
"""

from __future__ import annotations

import pytest

from repro.campaigns import CampaignSpec, CellConfig, SqliteStore, run_cells
from repro.campaigns.distributed import run_distributed
from repro.core.batch import batch_eligible, numpy_available

MODES = ("serial", "pool", "distributed")
TELEMETRY = {"elapsed_s", "span_id"}


def mixed_cells() -> tuple[CampaignSpec, list[CellConfig]]:
    spec = CampaignSpec(
        name="parity",
        base={"algorithm": "known-bound", "adversary": "random",
              "agents": 2, "placement": "offset-spread",
              "horizon": "known_bound_time(N) + 5"},
        grid={"seed": [0, 1, 2], "ring_size": [6, 8]},
        variants=[{"label": "batchable"},
                  {"label": "crash", "faults": "crash:1@4"}],
    )
    broken = CellConfig(algorithm="unconscious", ring_size=8, max_rounds=10,
                        placement="explicit", positions=None, label="broken")
    return spec, spec.cell_list() + [broken]


def execute(mode: str, spec, cells, store):
    if mode == "distributed":
        return run_distributed(spec, store, cells=cells, workers=2,
                               lease_ttl_s=10)
    return run_cells(cells, store, workers=1 if mode == "serial" else 2)


def results(store) -> dict[str, dict]:
    store.invalidate_caches()
    return {r["key"]: {k: v for k, v in r.items() if k not in TELEMETRY}
            for r in store.records()}


@pytest.fixture(scope="module")
def outcomes(tmp_path_factory):
    spec, cells = mixed_cells()
    out = {}
    for mode in MODES:
        store = SqliteStore(tmp_path_factory.mktemp(mode) / "r.db",
                            campaign=spec.name)
        first = execute(mode, spec, cells, store)
        second = execute(mode, spec, cells, store)
        out[mode] = (first, second, results(store))
    return out


def accounting(run) -> tuple[int, int, int, int]:
    return (run.total, run.skipped, run.executed, run.failed)


def test_the_spec_really_is_mixed():
    _, cells = mixed_cells()
    eligible = [c for c in cells if batch_eligible(c)]
    assert 0 < len(eligible) < len(cells) - 1
    assert sum(1 for c in cells if c.faults) == len(eligible)


def test_every_mode_writes_the_same_records(outcomes):
    serial = outcomes["serial"][2]
    assert len(serial) == len(mixed_cells()[1])
    assert sum(1 for r in serial.values() if "error" in r) == 1
    for mode in MODES[1:]:
        assert outcomes[mode][2] == serial, mode


def test_every_mode_reports_the_same_accounting(outcomes):
    total = len(mixed_cells()[1])
    for mode in MODES:
        assert accounting(outcomes[mode][0]) == (total, 0, total, 1), mode


def test_local_modes_batch_the_eligible_cells(outcomes):
    if not numpy_available():
        pytest.skip("batch path needs numpy")
    _, cells = mixed_cells()
    eligible = sum(1 for c in cells if batch_eligible(c))
    for mode in ("serial", "pool"):
        assert outcomes[mode][0].batched == eligible, mode


def test_a_second_pass_executes_nothing(outcomes):
    total = len(mixed_cells()[1])
    for mode in MODES:
        assert accounting(outcomes[mode][1]) == (total, total, 0, 0), mode


@pytest.mark.parametrize("mode", MODES)
def test_every_mode_traces_the_same_span_tree(mode, tmp_path, monkeypatch):
    """The loop owns the campaign and chunk spans in every mode: each
    chunk span carries claim_s/commit_s, and every cell hangs off one."""
    import json

    from repro.obs import spans as obs_spans
    from repro.obs.validate import check_spans

    trace = tmp_path / "spans.jsonl"
    monkeypatch.setenv("REPRO_TRACE_JSONL", str(trace))
    spec, cells = mixed_cells()
    try:
        execute(mode, spec, cells, SqliteStore(tmp_path / "r.db",
                                               campaign=spec.name))
    finally:
        obs_spans.close_recorder()
    assert check_spans(trace, ("campaign", "chunk", "cell")) == []
    spans = [json.loads(line) for line in trace.read_text().splitlines()]
    chunks = {s["span_id"]: s for s in spans if s["kind"] == "chunk"}
    assert all({"claim_s", "commit_s", "cells"} <= c["attrs"].keys()
               for c in chunks.values())
    cells_traced = [s for s in spans if s["kind"] == "cell"]
    assert len(cells_traced) == len(cells)
    assert all(s["parent_id"] in chunks for s in cells_traced)
