"""Batch routing through the campaign layer: chunks, stores, fleets.

The contract under test: routing eligible cells through
:class:`~repro.core.batch.BatchCore` is *invisible* in every persisted
artifact — store keys, record shapes, reports and resume behaviour are
byte-identical to the scalar path — while the queue's telemetry (and
only the telemetry) says which chunks vectorized and how fast.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.campaigns import (
    CampaignSpec,
    CellConfig,
    JsonlStore,
    SqliteStore,
    render_rows,
    run_cells,
)
from repro.campaigns.distributed import (
    WorkQueue,
    enqueue_campaign,
    fleet_status,
    render_status,
    run_distributed,
    run_worker,
)
from repro.campaigns.executor import (
    CampaignRun,
    default_chunk_size,
    run_chunk,
)
from repro.core import batch as batch_mod
from repro.core.batch import BATCH_WIDTH
from repro.core.errors import ConfigurationError

FIXTURES = Path(__file__).parent / "fixtures"

needs_numpy = pytest.mark.skipif(
    not batch_mod.numpy_available(), reason="batch path needs numpy")


def eligible_spec(name="batch-test", seeds=(0, 1, 2), sizes=(6, 8)) -> CampaignSpec:
    """Every cell of this spec qualifies for the batch path."""
    return CampaignSpec(
        name=name,
        base={"algorithm": "unconscious", "horizon": "100 * n",
              "stop_on_exploration": True, "placement": "offset-spread"},
        grid={"ring_size": list(sizes), "seed": list(seeds)},
    )


def scalar_only_cell(seed=0) -> CellConfig:
    """Zigzag peeks at agent state, so this cell is always routed scalar
    (PT transport itself vectorizes since the frontier widened)."""
    return CellConfig(algorithm="pt-bound", ring_size=8, agents=2,
                      max_rounds=400, transport="pt", adversary="zigzag",
                      adversary_arg=3, seed=seed)


def metrics_by_key(records):
    return {r["key"]: r["metrics"] for r in records if "error" not in r}


def report_text(store, name):
    return render_rows(store.query().table(), title=f"campaign {name}")


@needs_numpy
class TestRunChunkRouting:
    def test_mixed_chunk_splits_and_keeps_input_order(self):
        eligible = eligible_spec().cell_list()
        mixed = [eligible[0], scalar_only_cell(0), eligible[1],
                 scalar_only_cell(1), eligible[2]]
        records, batched = run_chunk(mixed)
        assert batched == 3
        assert [r["key"] for r in records] == [c.key() for c in mixed]
        assert all("metrics" in r for r in records)

    def test_off_routes_nothing_through_batch(self):
        records, batched = run_chunk(eligible_spec().cell_list(), batch="off")
        assert batched == 0 and len(records) == 6

    def test_record_shape_identical_across_routing(self):
        cells = eligible_spec().cell_list()
        auto, n_auto = run_chunk(cells, batch="auto")
        off, n_off = run_chunk(cells, batch="off")
        assert n_auto == len(cells) and n_off == 0
        for a, o in zip(auto, off):
            assert a["key"] == o["key"]
            assert a["config"] == o["config"]
            assert a["metrics"] == o["metrics"]
            assert set(a) == set(o)  # same fields, incl. elapsed_s

    def test_abort_stops_scalar_remainder(self):
        calls = []

        def abort():
            calls.append(None)
            return len(calls) > 1  # allow one scalar cell, then abort

        cells = [scalar_only_cell(s) for s in range(4)]
        records, batched = run_chunk(cells, batch="off", abort=abort)
        assert batched == 0
        assert len(records) == 1

    def test_cell_level_batch_field_routes_like_the_flag(self):
        from dataclasses import replace

        cells = [replace(c, batch="off") for c in eligible_spec().cell_list()]
        records, batched = run_chunk(cells)  # no override: cells decide
        assert batched == 0 and len(records) == 6
        # the override wins over the cell field
        _, forced = run_chunk(cells, batch="auto")
        assert forced == 6


@needs_numpy
class TestStoreEquivalence:
    def test_batched_report_byte_identical_to_serial_scalar(self, tmp_path):
        spec = eligible_spec()
        batched = JsonlStore(tmp_path / "batched.jsonl")
        scalar = JsonlStore(tmp_path / "scalar.jsonl")
        run_b = run_cells(spec.cells(), batched, workers=1, batch="auto")
        run_s = run_cells(spec.cells(), scalar, workers=1, batch="off")
        assert run_b.batched == 6 and run_s.batched == 0
        assert "batched=6" in run_b.summary()
        assert metrics_by_key(batched.records()) == metrics_by_key(scalar.records())
        assert report_text(batched, spec.name) == report_text(scalar, spec.name)

    def test_resume_over_batched_store_recomputes_nothing(self, tmp_path):
        spec = eligible_spec()
        store = JsonlStore(tmp_path / "r.jsonl")
        first = run_cells(spec.cells(), store, workers=1, batch="auto")
        assert first.executed == 6
        resumed = run_cells(spec.cells(), JsonlStore(store.path), workers=1)
        assert resumed.executed == 0 and resumed.skipped == 6
        # ...and a scalar resume over the batched store agrees too
        rerun = run_cells(spec.cells(), JsonlStore(store.path), workers=1,
                          batch="off")
        assert rerun.executed == 0 and rerun.skipped == 6

    def test_parallel_batched_equals_serial_scalar(self, tmp_path):
        spec = eligible_spec()
        pool = JsonlStore(tmp_path / "pool.jsonl")
        serial = JsonlStore(tmp_path / "serial.jsonl")
        run_p = run_cells(spec.cells(), pool, workers=3, batch="auto")
        run_cells(spec.cells(), serial, workers=1, batch="off")
        assert run_p.batched == 6
        assert metrics_by_key(pool.records()) == metrics_by_key(serial.records())


class TestKeyRegression:
    """``--batch off`` reproduces the PR-5-era store keys exactly.

    ``fixtures/pr5_store.jsonl`` is a result store in the pre-batch
    record shape: its configs have no ``batch`` field at all.  Both
    resuming over it and re-running its spec must line up key-for-key —
    the ``batch`` knob is execution routing, never identity.
    """

    FIXTURE_SPEC = CampaignSpec(
        name="pr5-fixture",
        base={"algorithm": "unconscious", "horizon": "100 * n",
              "stop_on_exploration": True, "placement": "offset-spread"},
        grid={"ring_size": [6, 8], "seed": [0, 1, 2]},
    )

    def fixture_records(self):
        lines = (FIXTURES / "pr5_store.jsonl").read_text().splitlines()
        return [json.loads(line) for line in lines]

    def test_fixture_predates_the_batch_field(self):
        for record in self.fixture_records():
            assert "batch" not in record["config"]

    def test_scalar_rerun_reproduces_every_fixture_key(self, tmp_path):
        store = JsonlStore(tmp_path / "r.jsonl")
        run_cells(self.FIXTURE_SPEC.cells(), store, workers=1, batch="off")
        assert ({r["key"] for r in store.records()}
                == {r["key"] for r in self.fixture_records()})
        assert (metrics_by_key(store.records())
                == metrics_by_key(self.fixture_records()))

    @needs_numpy
    def test_batched_rerun_reproduces_every_fixture_key(self, tmp_path):
        store = JsonlStore(tmp_path / "r.jsonl")
        run = run_cells(self.FIXTURE_SPEC.cells(), store, workers=1,
                        batch="auto")
        assert run.batched == 6
        assert (metrics_by_key(store.records())
                == metrics_by_key(self.fixture_records()))

    def test_resume_over_pr5_store_skips_everything(self, tmp_path):
        path = tmp_path / "pr5.jsonl"
        path.write_text((FIXTURES / "pr5_store.jsonl").read_text())
        resumed = run_cells(self.FIXTURE_SPEC.cells(), JsonlStore(path),
                            workers=1)
        assert resumed.executed == 0 and resumed.skipped == 6


class TestStrictMode:
    @needs_numpy
    def test_on_rejects_ineligible_cells_up_front(self, tmp_path):
        cells = [eligible_spec().cell_list()[0], scalar_only_cell()]
        with pytest.raises(ConfigurationError, match="not batch-eligible"):
            run_cells(cells, JsonlStore(tmp_path / "r.jsonl"), batch="on")

    @needs_numpy
    def test_on_refuses_distributed_runs_before_enqueue(self, tmp_path):
        """The refusal sits where serial, pool and distributed runs all
        pass: a --distributed run must not enqueue (let alone run
        scalar) the cells --batch on cannot vectorize."""
        spec = eligible_spec()
        cells = spec.cell_list() + [scalar_only_cell()]
        store = SqliteStore(tmp_path / "r.db", campaign=spec.name)
        with pytest.raises(ConfigurationError, match="not batch-eligible"):
            run_distributed(spec, store, cells=cells, workers=1,
                            lease_ttl_s=10, batch="on")
        assert not WorkQueue(store).ever_enqueued()
        assert len(store) == 0

    @needs_numpy
    @pytest.mark.parametrize("mode", [[], ["--distributed"]])
    def test_cli_on_refusal_is_the_same_in_every_mode(self, tmp_path, mode,
                                                      capsys):
        from repro.cli import main

        code = main(["campaign", "run", "--spec", "faults-smoke",
                     "--batch", "on", "--workers", "1", "--no-report",
                     "--store", f"sqlite:{tmp_path}/faults.db", *mode])
        assert code == 2
        assert "27 cell(s) are not batch-eligible" in capsys.readouterr().err

    def test_on_without_numpy_is_an_error(self, tmp_path, monkeypatch):
        monkeypatch.setattr(batch_mod, "HAVE_NUMPY", False)
        with pytest.raises(ConfigurationError, match="NumPy"):
            run_cells(eligible_spec().cell_list(),
                      JsonlStore(tmp_path / "r.jsonl"), batch="on")

    def test_unknown_mode_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="batch"):
            run_cells(eligible_spec().cell_list(),
                      JsonlStore(tmp_path / "r.jsonl"), batch="sideways")


class TestNumpyFallback:
    """No NumPy: everything runs scalar, nothing else changes."""

    def test_auto_degrades_to_scalar(self, tmp_path, monkeypatch):
        monkeypatch.setattr(batch_mod, "HAVE_NUMPY", False)
        assert not batch_mod.numpy_available()
        spec = eligible_spec()
        store = JsonlStore(tmp_path / "r.jsonl")
        run = run_cells(spec.cells(), store, workers=1, batch="auto")
        assert run.executed == 6 and run.batched == 0
        assert store.completed_keys() == {c.key() for c in spec.cells()}

    @needs_numpy
    def test_scalar_records_match_batched_records(self, tmp_path, monkeypatch):
        spec = eligible_spec()
        batched = JsonlStore(tmp_path / "b.jsonl")
        run_cells(spec.cells(), batched, workers=1, batch="auto")
        monkeypatch.setattr(batch_mod, "HAVE_NUMPY", False)
        scalar = JsonlStore(tmp_path / "s.jsonl")
        run_cells(spec.cells(), scalar, workers=1, batch="auto")
        assert metrics_by_key(batched.records()) == metrics_by_key(scalar.records())


class TestChunkSizing:
    def test_scalar_sizing_unchanged(self):
        assert default_chunk_size(1000, 8) == 25
        assert default_chunk_size(40, 8) == 2
        assert default_chunk_size(1, 8) == 1

    def test_batch_sizing_targets_one_chunk_per_worker(self):
        assert default_chunk_size(1000, 8, batch=True) == 125
        assert default_chunk_size(8 * BATCH_WIDTH + 1, 8, batch=True) == BATCH_WIDTH
        assert default_chunk_size(1, 8, batch=True) == 1

    def test_batch_cap_is_the_vector_width(self):
        assert default_chunk_size(10 ** 6, 1, batch=True) == BATCH_WIDTH

    @needs_numpy
    def test_enqueue_sizes_chunks_for_the_batch_path(self, tmp_path):
        spec = eligible_spec(seeds=range(10), sizes=(6, 7, 8))  # 30 cells
        store = SqliteStore(tmp_path / "q.db", campaign=spec.name)
        queue, report = enqueue_campaign(spec, store)
        # all 30 cells eligible -> one wide chunk per local worker, not
        # the scalar 25-cell slivers
        expected = default_chunk_size(30, batch=True)
        sizes = [n for n, in store.connection().execute(
            "SELECT n_cells FROM chunks ORDER BY id")]
        assert max(sizes) == expected
        assert sum(sizes) == 30

    def test_enqueue_keeps_scalar_sizing_for_mixed_cells(self, tmp_path):
        cells = eligible_spec(seeds=range(3)).cell_list() + [scalar_only_cell()]
        spec = eligible_spec()
        store = SqliteStore(tmp_path / "q.db", campaign=spec.name)
        queue = WorkQueue(store)
        queue.enqueue(cells)
        sizes = [n for n, in store.connection().execute(
            "SELECT n_cells FROM chunks ORDER BY id")]
        assert max(sizes) <= 25


@needs_numpy
class TestFleetTelemetry:
    def test_worker_marks_batched_chunks(self, tmp_path):
        spec = eligible_spec()
        store = SqliteStore(tmp_path / "q.db", campaign=spec.name)
        queue, _ = enqueue_campaign(spec, store)
        report = run_worker(store, campaign=spec.name, worker_id="w0",
                            poll_s=0.01)
        assert report.cells_done == 6
        assert report.cells_batched == 6
        assert "batched=6" in report.summary()
        counts = queue.counts()
        assert counts.batched_done == counts.done > 0
        assert counts.cells_batched == 6
        for chunk in queue.recent_chunks():
            assert chunk.batched
            assert chunk.cells_per_s is None or chunk.cells_per_s > 0

    def test_scalar_worker_leaves_chunks_unmarked(self, tmp_path):
        spec = eligible_spec(name="scalar-fleet")
        store = SqliteStore(tmp_path / "q.db", campaign=spec.name)
        queue, _ = enqueue_campaign(spec, store)
        report = run_worker(store, campaign=spec.name, worker_id="w0",
                            poll_s=0.01, batch="off")
        assert report.cells_batched == 0
        counts = queue.counts()
        assert counts.batched_done == 0 and counts.cells_batched == 0

    def test_status_renders_batch_telemetry(self, tmp_path):
        spec = eligible_spec()
        store = SqliteStore(tmp_path / "q.db", campaign=spec.name)
        enqueue_campaign(spec, store)
        run_worker(store, campaign=spec.name, worker_id="w0", poll_s=0.01)
        status = fleet_status(store, campaign=spec.name)
        assert status.recent_chunks
        text = render_status(status)
        assert "batch   :" in text
        assert "batched=true" in text
        assert "cells/s" in text

    def test_mixed_fleet_report_identical_to_serial(self, tmp_path):
        """A batched fleet and a scalar serial run: same report bytes."""
        spec = eligible_spec(name="mixed-fleet")
        store = SqliteStore(tmp_path / "q.db", campaign=spec.name)
        enqueue_campaign(spec, store)
        run_worker(store, campaign=spec.name, worker_id="w0", poll_s=0.01)
        serial = JsonlStore(tmp_path / "serial.jsonl")
        run_cells(spec.cells(), serial, workers=1, batch="off")
        assert report_text(store, spec.name) == report_text(serial, spec.name)

    def test_old_store_schema_migrates_in_place(self, tmp_path):
        """A PR-5-era queue db (no telemetry columns) opens and works."""
        import sqlite3

        path = tmp_path / "old.db"
        conn = sqlite3.connect(path)
        # the chunks table as PR 5 created it, without batched/cells_per_s
        conn.executescript("""
            CREATE TABLE chunks (
                id           INTEGER PRIMARY KEY,
                campaign_key TEXT NOT NULL DEFAULT '',
                state        TEXT NOT NULL DEFAULT 'pending',
                cells        TEXT NOT NULL,
                cell_keys    TEXT NOT NULL,
                n_cells      INTEGER NOT NULL,
                created_at   REAL NOT NULL,
                done_at      REAL
            );
        """)
        conn.commit()
        conn.close()
        spec = eligible_spec(name="migrated")
        store = SqliteStore(path, campaign=spec.name)
        cols = {row[1] for row in store.connection().execute(
            "PRAGMA table_info(chunks)")}
        assert {"batched", "cells_per_s"} <= cols
        enqueue_campaign(spec, store)
        report = run_worker(store, campaign=spec.name, worker_id="w0",
                            poll_s=0.01)
        assert report.cells_done == 6


class TestCampaignRunSummary:
    def test_summary_omits_batched_when_zero(self):
        run = CampaignRun(total=5, skipped=0, executed=5, failed=0,
                          workers=1, elapsed_s=1.0)
        assert "batched" not in run.summary()


class TestPresetBatchIntent:
    """Preset drift must not silently shrink batch coverage.

    ``batch-smoke`` and ``batch-wide`` exist to exercise the vector
    path in CI: every cell must stay batch-eligible.  ``faults-smoke``
    deliberately pairs eligible fault-free twins with faulted cells
    that must stay scalar *because of the fault plan* — an eligibility
    regression in either direction changes what the preset tests.
    """

    @pytest.mark.parametrize("preset", ["batch-smoke", "batch-wide"])
    def test_all_cells_of_batch_presets_are_eligible(self, preset):
        from repro.campaigns.presets import get_spec
        from repro.core.batch import batch_ineligible_reason

        for cell in get_spec(preset).cell_list():
            reason = batch_ineligible_reason(cell)
            assert reason is None, f"{cell.key()}: {reason}"

    def test_faults_smoke_scalar_cells_are_exactly_the_faulted_ones(self):
        from repro.campaigns.presets import get_spec
        from repro.core.batch import batch_ineligible_key

        for cell in get_spec("faults-smoke").cell_list():
            key = batch_ineligible_key(cell)
            if cell.faults:
                assert key == "faults", f"{cell.key()}: {key}"
            else:
                assert key is None, f"{cell.key()}: {key}"
