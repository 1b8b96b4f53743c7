"""Mode parity: serial, pool and distributed runs share one loop.

One mixed cell list — batch-eligible cells of two shapes (a group at
:data:`~repro.campaigns.executor.MIN_BATCH_LANES`, some of it with a
fault plan, and a narrow group), scalar-only cells (a peeking adversary)
and a cell that errors — goes through ``run_cells`` serially, on a
two-process pool, and through ``run_distributed``.  All three must write
the same records (modulo the ``elapsed_s``/``span_id`` telemetry), report
the same accounting, and find nothing left to do on a second pass: this
pins the shared claim → run → commit loop's bookkeeping.
"""

from __future__ import annotations

from itertools import zip_longest

import pytest

from repro.campaigns import CampaignSpec, CellConfig, SqliteStore, run_cells
from repro.campaigns.distributed import run_distributed
from repro.campaigns.executor import MIN_BATCH_LANES, batch_reject_counts
from repro.core.batch_rules import batch_eligible, numpy_available
from repro.obs import metrics as obs_metrics

MODES = ("serial", "pool", "distributed")
TELEMETRY = {"elapsed_s", "span_id"}


def mixed_cells() -> tuple[CampaignSpec, list[CellConfig]]:
    spec = CampaignSpec(
        name="parity",
        base={"algorithm": "known-bound", "adversary": "random",
              "agents": 2, "placement": "offset-spread",
              "horizon": "known_bound_time(N) + 5"},
        grid={"seed": [0, 1, 2], "ring_size": [6, 8]},
        # With the crash variant, 64 two-agent known-bound cells: a
        # group at the minimum, which ``auto`` batches; the 6 unconscious
        # cells are a narrow group, which it runs scalar.
        variants=[{"label": "unconscious", "algorithm": "unconscious",
                   "horizon": "10 * n", "stop_on_exploration": True},
                  {"label": "batchable", "grid": {"seed": list(range(29))}},
                  {"label": "crash", "faults": "crash:1@4"},
                  {"label": "meetings", "adversary": "prevent-meetings"}],
    )
    broken = CellConfig(algorithm="unconscious", ring_size=8, max_rounds=10,
                        placement="explicit", positions=None, label="broken")
    # Interleave the variants, so every mode's chunk plan must regroup
    # the two batch shapes and set the scalar cells apart.
    by_label: dict[str, list[CellConfig]] = {}
    for cell in spec.cell_list():
        by_label.setdefault(cell.label, []).append(cell)
    rows = zip_longest(*by_label.values())
    cells = [c for row in rows for c in row if c is not None]
    return spec, cells + [broken]


def execute(mode: str, spec, cells, store, batch=None):
    if mode == "distributed":
        return run_distributed(spec, store, cells=cells, workers=2,
                               lease_ttl_s=10, batch=batch)
    return run_cells(cells, store, workers=1 if mode == "serial" else 2,
                     batch=batch)


@pytest.fixture
def metrics_on(monkeypatch):
    """Metrics on (inherited by forked workers) from an empty registry."""
    monkeypatch.setenv("REPRO_METRICS", "1")
    obs_metrics.reset()
    yield
    obs_metrics.reset()


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
    # the fault plan batches; the peeking adversary is what stays scalar
    assert any(c.faults for c in eligible)
    assert (sum(1 for c in cells if c.adversary == "prevent-meetings")
            == len(cells) - 1 - len(eligible))
    # two batch shapes, interleaved, so the planner regroups them
    shapes = [c.algorithm for c in cells if batch_eligible(c)]
    assert len(set(shapes)) == 2 and shapes[0] != shapes[1]


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


def test_every_mode_batches_the_eligible_cells(outcomes):
    """Every eligible cell of the wide group batches; the narrow group's
    run scalar."""
    if not numpy_available():
        pytest.skip("batch path needs numpy")
    _, cells = mixed_cells()
    eligible = sum(1 for c in cells
                   if batch_eligible(c) and c.algorithm == "known-bound")
    assert eligible * 2 == MIN_BATCH_LANES
    for mode in MODES:
        assert outcomes[mode][0].batched == eligible, mode
        assert f" batched={eligible} " in outcomes[mode][0].summary(), mode
        assert outcomes[mode][1].batched == 0, mode


@pytest.mark.parametrize("mode", MODES)
def test_every_mode_keys_each_cell_once(mode, tmp_path, monkeypatch):
    """A run hashes each cell once, where it dedupes (serial, pool) or
    enqueues (distributed) it; the key rides with the chunk into the
    record.  Every key goes through ``CellConfig.key_from_dict``
    (``key()`` included), and forked pool and queue workers log their
    calls too."""
    spec, cells = mixed_cells()
    log = tmp_path / "key-calls.txt"
    key_from_dict = CellConfig.key_from_dict

    def logged_key(data):
        value = key_from_dict(data)
        with log.open("a") as fh:
            fh.write(value + "\n")
        return value

    monkeypatch.setattr(CellConfig, "key_from_dict", staticmethod(logged_key))
    store = SqliteStore(tmp_path / "r.db", campaign=spec.name)
    execute(mode, spec, cells, store)
    monkeypatch.undo()
    calls = log.read_text().split()
    assert sorted(calls) == sorted(c.key() for c in cells)
    assert set(calls) == set(results(store))


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


@pytest.mark.parametrize("batch", ["auto", "on", "off"])
def test_every_mode_counts_the_same_rejects(batch, tmp_path, metrics_on):
    """The planner counts each scalar-routed cell once, in the process
    that plans; pool children and queue workers add nothing to it."""
    spec, cells = mixed_cells()
    if batch == "on":
        if not numpy_available():
            pytest.skip("batch path needs numpy")
        cells = [c for c in cells if batch_eligible(c)]
    counts = {}
    for mode in MODES:
        obs_metrics.reset()
        run = execute(mode, spec, cells, SqliteStore(
            tmp_path / f"{mode}.db", campaign=spec.name), batch)
        counts[mode] = batch_reject_counts(run.metrics)
    if batch == "auto" and numpy_available():
        # the narrow unconscious group, the peeking adversary and the
        # broken cell's placement
        assert counts["serial"] == {
            "adversary": 6, "narrow": 6, "placement": 1}
    elif batch == "auto":
        assert counts["serial"] == {"no_numpy": len(cells)}
    else:
        assert counts["serial"] == {}
    for mode in MODES[1:]:
        assert counts[mode] == counts["serial"], mode


@pytest.mark.parametrize("mode", MODES)
def test_coordinator_metrics_are_reported_once(mode, tmp_path, metrics_on):
    """What the coordinator recorded before the run appears once in the
    run's metrics: forked pool and queue workers start from an empty
    registry, and the enqueue publishes the coordinator's own snapshot."""
    spec, cells = mixed_cells()
    obs_metrics.registry().counter("test.coordinator").inc()
    run = execute(mode, spec, cells, SqliteStore(tmp_path / "r.db",
                                                 campaign=spec.name))
    assert run.metrics["test.coordinator"]["value"] == 1
