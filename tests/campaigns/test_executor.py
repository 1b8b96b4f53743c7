"""Executor: serial/parallel equivalence, resume, failures, aggregation."""

import pytest

from repro.api import run_cell, run_exploration
from repro.adversary import RandomMissingEdge
from repro.algorithms.fsync import UnconsciousExploration
from repro.campaigns import (
    CampaignSpec,
    CellConfig,
    JsonlStore as ResultStore,
    aggregate_records,
    execute_cell,
    run_cells,
)
from repro.campaigns import executor as executor_mod
from repro.core.errors import ConfigurationError


def small_spec(seeds=(0, 1, 2)) -> CampaignSpec:
    return CampaignSpec(
        name="exec-test",
        base={"algorithm": "unconscious", "horizon": "100 * n",
              "stop_on_exploration": True, "placement": "offset-spread"},
        grid={"ring_size": [6, 8], "seed": list(seeds)},
    )


def metrics_by_key(records):
    return {r["key"]: r["metrics"] for r in records}


class TestExecuteCell:
    def test_matches_direct_api_run(self):
        cell = CellConfig(
            algorithm="unconscious", ring_size=8, max_rounds=800,
            placement="offset-spread", stop_on_exploration=True, seed=3,
        )
        record = execute_cell(cell)
        direct = run_exploration(
            UnconsciousExploration(), ring_size=8, positions=[1, 5],
            max_rounds=800, adversary=RandomMissingEdge(seed=3),
            stop_on_exploration=True,
        )
        assert record["metrics"]["rounds"] == direct.rounds
        assert record["metrics"]["total_moves"] == direct.total_moves
        assert record["metrics"]["exploration_round"] == direct.exploration_round

    def test_run_cell_facade_matches_executor(self):
        cell = CellConfig(algorithm="known-bound", ring_size=8, max_rounds=100)
        result = run_cell(cell)
        record = execute_cell(cell)
        assert record["metrics"]["rounds"] == result.rounds
        assert record["metrics"]["mode"] == result.termination_mode().value

    def test_failure_becomes_error_record(self):
        cell = CellConfig(
            algorithm="unconscious", ring_size=8, max_rounds=10,
            placement="explicit", positions=None,  # invalid: no positions
        )
        record = execute_cell(cell)
        assert "error" in record and "metrics" not in record
        assert record["key"] == cell.key()


class TestRunCells:
    def test_serial_executes_everything(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        run = run_cells(small_spec().cells(), store, workers=1)
        assert (run.total, run.skipped, run.executed, run.failed) == (6, 0, 6, 0)
        assert store.completed_keys() == {c.key() for c in small_spec().cells()}

    def test_parallel_equals_serial(self, tmp_path):
        serial = ResultStore(tmp_path / "serial.jsonl")
        parallel = ResultStore(tmp_path / "parallel.jsonl")
        run_s = run_cells(small_spec().cells(), serial, workers=1)
        run_p = run_cells(small_spec().cells(), parallel, workers=3,
                          chunk_size=1)
        assert run_p.workers > 1
        assert metrics_by_key(run_s.records) == metrics_by_key(run_p.records)

    def test_resume_skips_completed_cells(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        cells = small_spec().cell_list()
        first = run_cells(cells[:4], store, workers=1)
        assert first.executed == 4
        resumed = run_cells(cells, store, workers=1)
        assert resumed.skipped == 4
        assert resumed.executed == 2
        assert store.completed_keys() == {c.key() for c in cells}

    def test_interrupted_store_resumes_without_recompute(self, tmp_path, monkeypatch):
        """Simulate a kill mid-campaign: completed lines + one torn line."""
        store = ResultStore(tmp_path / "r.jsonl")
        cells = small_spec().cell_list()
        run_cells(cells[:3], store, workers=1)
        with store.path.open("a") as fh:
            fh.write('{"key": "torn-re')  # process died mid-write
        executed = []
        original = executor_mod.execute_cell

        def counting(cell):
            executed.append(cell.key())
            return original(cell)

        monkeypatch.setattr(executor_mod, "execute_cell", counting)
        # batch="off" pins the scalar path so the counting hook sees
        # every executed cell (the batch path never calls execute_cell).
        resumed = run_cells(cells, ResultStore(store.path), workers=1,
                            batch="off")
        assert resumed.skipped == 3
        assert set(executed) == {c.key() for c in cells[3:]}

    def test_progress_callback_sees_every_cell(self, tmp_path):
        seen = []
        run_cells(
            small_spec().cells(), ResultStore(tmp_path / "r.jsonl"),
            workers=1, progress=lambda done, total: seen.append((done, total)),
        )
        assert seen[-1] == (6, 6)

    def test_serial_runs_chunk_like_a_one_worker_pool(self, tmp_path,
                                                      monkeypatch):
        """Serial runs share the pool's chunking: default_chunk_size with
        one worker, one run_chunk call and one store commit per chunk."""
        cells = small_spec(seeds=range(10)).cell_list()     # 20 cells
        chunks, commits = [], []
        real_chunk = executor_mod.run_chunk
        store = ResultStore(tmp_path / "r.jsonl")
        real_append = store.append_many

        def counting_chunk(group, **kwargs):
            chunks.append(len(group))
            return real_chunk(group, **kwargs)

        def counting_append(records):
            commits.append(len(records))
            return real_append(records)

        monkeypatch.setattr(executor_mod, "run_chunk", counting_chunk)
        monkeypatch.setattr(store, "append_many", counting_append)
        run_cells(cells, store, workers=1, batch="off")
        size = executor_mod.default_chunk_size(len(cells), 1)
        expected = [len(c) for c in executor_mod.chunk_cells(cells, size)]
        assert chunks == commits == expected == [5, 5, 5, 5]

    def test_rejects_unknown_names_before_running(self, tmp_path):
        bad = CellConfig(algorithm="unconscious", ring_size=6, max_rounds=10,
                         adversary="martian")
        with pytest.raises(ConfigurationError, match="unknown adversary"):
            run_cells([bad], ResultStore(tmp_path / "r.jsonl"))

    def test_failed_cells_recorded_and_skipped_until_retry(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        bad = CellConfig(algorithm="unconscious", ring_size=8, max_rounds=10,
                         placement="explicit", positions=None)
        run = run_cells([bad], store, workers=1)
        assert run.failed == 1
        assert store.error_keys() == {bad.key()}
        # failures count as *attempted*: a plain resume skips them...
        rerun = run_cells([bad], store, workers=1)
        assert rerun.skipped == 1 and rerun.executed == 0
        # ...and retry_failed re-drives them explicitly
        redriven = run_cells([bad], store, workers=1, retry_failed=True)
        assert redriven.skipped == 0 and redriven.executed == 1

    def test_retry_failed_clears_error_listing_on_success(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        cell = small_spec(seeds=(0,)).cell_list()[0]
        # Forge an error record for a cell that will succeed when re-driven
        # (the transient-failure shape a fleet sees).
        store.append({"key": cell.key(), "config": cell.to_dict(),
                      "error": "RuntimeError: transient"})
        assert store.error_keys() == {cell.key()}
        assert run_cells([cell], store, workers=1).executed == 0
        run = run_cells([cell], store, workers=1, retry_failed=True)
        assert run.executed == 1 and run.failed == 0
        # the error listing empties once a success exists
        assert store.error_keys() == set()
        fresh = ResultStore(store.path)
        assert fresh.error_keys() == set()
        assert store.query().errors() == []


class TestAggregation:
    def test_rows_group_by_ring_size(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        run_cells(small_spec().cells(), store, workers=1)
        rows = aggregate_records(store.records(), by=("ring_size",))
        assert [dict(r.group)["ring_size"] for r in rows] == [6, 8]
        for row in rows:
            assert row.stats.runs == 3
            assert row.stats.all_explored
            assert row.stats.modes == {"unconscious": 3}

    def test_error_records_excluded(self):
        rows = aggregate_records([{"key": "x", "config": {}, "error": "boom"}])
        assert rows == []

    def test_unknown_dimension_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown group-by"):
            aggregate_records([], by=("bogus",))

    def test_list_valued_dimension_is_groupable(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        run_cells(small_spec(seeds=(0,)).cells(), store, workers=1)
        rows = aggregate_records(store.records(), by=("flipped", "ring_size"))
        assert [dict(r.group)["flipped"] for r in rows] == [(), ()]

    def test_rows_sorted_numerically(self):
        records = [
            {"key": str(n), "config": {"ring_size": n},
             "metrics": {"rounds": 1, "explored": True, "exploration_round": 1,
                         "total_moves": 1, "last_termination_round": None,
                         "all_terminated": False, "mode": "unconscious"}}
            for n in (128, 8, 32, 16)
        ]
        rows = aggregate_records(records, by=("ring_size",))
        assert [dict(r.group)["ring_size"] for r in rows] == [8, 16, 32, 128]

    def test_sweep_point_and_campaign_agree(self, tmp_path):
        """The refactored analysis sweep and a campaign report the same stats."""
        from repro.analysis.runner import average_case
        from repro.api import build_engine
        from repro.schedulers import FsyncScheduler

        def factory(n, seed):
            return build_engine(
                UnconsciousExploration(), ring_size=n, positions=[1, 1 + n // 2],
                adversary=RandomMissingEdge(seed=seed), scheduler=FsyncScheduler(),
            )

        point = average_case(factory, 8, seeds=range(3), max_rounds=800,
                             stop_on_exploration=True)
        store = ResultStore(tmp_path / "r.jsonl")
        run_cells(small_spec(seeds=range(3)).cells(), store, workers=1)
        rows = aggregate_records(store.records(), by=("ring_size",))
        row = next(r for r in rows if dict(r.group)["ring_size"] == 8)
        assert row.stats.mean_rounds == point.mean_rounds
        assert row.stats.mean_moves == point.mean_moves
        assert row.stats.mean_exploration_round == point.mean_exploration_round
