"""Distributed execution: lease queue, workers, crash recovery, telemetry.

The acceptance properties from the subsystem's contract are all here:

* two concurrent workers on one SQLite store complete a >= 100-cell
  campaign with zero duplicated cell keys and a byte-identical
  ``campaign report`` versus a serial run;
* killing a worker mid-campaign leaves an orphaned lease that a
  surviving worker reclaims (both the deterministic ghost-lease shape
  and a real SIGKILL);
* >= 4 processes claiming leases and appending simultaneously lose no
  records and duplicate no cell execution;
* ``campaign status`` reflects the fleet throughout.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time

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
    LeaseLost,
    WorkQueue,
    enqueue_campaign,
    fleet_status,
    render_status,
    run_distributed,
    run_worker,
    watch_status,
)
from repro.campaigns.distributed.worker import LeasedQueue
from repro.core.errors import ConfigurationError

CTX = multiprocessing.get_context(
    "fork" if "fork" in multiprocessing.get_all_start_methods() else None)


def fast_spec(name="dist-test", seeds=range(3), sizes=(6, 8)) -> CampaignSpec:
    return CampaignSpec(
        name=name,
        base={"algorithm": "unconscious", "horizon": "100 * n",
              "stop_on_exploration": True, "placement": "offset-spread"},
        grid={"ring_size": list(sizes), "seed": list(seeds)},
    )


def make_queue(tmp_path, spec, *, lease_ttl_s=30.0, clock=time.time,
               name="q.db") -> WorkQueue:
    store = SqliteStore(tmp_path / name, campaign=spec.name)
    return WorkQueue(store, lease_ttl_s=lease_ttl_s, clock=clock)


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def metrics_by_key(store):
    return {r["key"]: r["metrics"] for r in store.records() if "error" not in r}


def report_text(store, name):
    return render_rows(store.query().table(), title=f"campaign {name}")


def duplicate_keys(store) -> list[str]:
    return [
        key for key, in store.connection().execute(
            "SELECT cell_key FROM results GROUP BY cell_key "
            "HAVING COUNT(*) > 1")
    ]


# -- worker-process entry points (top level: fork/spawn picklable) --------

def _worker_main(path, campaign, worker_id, ttl):
    run_worker(f"sqlite:{path}", campaign=campaign, worker_id=worker_id,
               lease_ttl_s=ttl, poll_s=0.02)


def _slow_worker_main(path, campaign, worker_id, ttl, delay_s):
    """A worker whose every cell takes >= delay_s (for mid-run kills)."""
    from repro.campaigns.distributed import worker as worker_mod

    real = worker_mod.executor_module.execute_cell

    def slow(cell, key=None):
        time.sleep(delay_s)
        return real(cell, key)

    worker_mod.executor_module.execute_cell = slow
    run_worker(f"sqlite:{path}", campaign=campaign, worker_id=worker_id,
               lease_ttl_s=ttl, poll_s=0.02)


class TestWorkQueue:
    def test_jsonl_store_rejected_with_clear_error(self, tmp_path):
        with pytest.raises(ConfigurationError, match="sqlite"):
            WorkQueue(JsonlStore(tmp_path / "r.jsonl", campaign="x"))

    def test_enqueue_skips_done_failed_and_queued(self, tmp_path):
        spec = fast_spec()
        cells = spec.cell_list()
        queue = make_queue(tmp_path, spec)
        store = queue.store
        # one completed, one errored, the rest fresh
        store.append({"key": cells[0].key(), "config": cells[0].to_dict(),
                      "metrics": {"rounds": 1}, "elapsed_s": 0.0})
        store.append({"key": cells[1].key(), "config": cells[1].to_dict(),
                      "error": "boom"})
        report = queue.enqueue(cells, chunk_size=2)
        assert report.skipped_done == 1
        assert report.skipped_failed == 1
        assert report.enqueued_cells == len(cells) - 2
        # a second enqueue double-queues nothing
        again = queue.enqueue(cells, chunk_size=2)
        assert again.enqueued_cells == 0
        assert again.skipped_queued == len(cells) - 2
        # retry_failed re-queues exactly the errored cell
        retried = queue.enqueue(cells, chunk_size=2, retry_failed=True)
        assert retried.enqueued_cells == 1
        assert cells[1].key() in queue.queued_cell_keys()

    def test_claim_heartbeat_complete_lifecycle(self, tmp_path):
        from repro.campaigns.executor import execute_cell

        spec = fast_spec(seeds=(0,))
        queue = make_queue(tmp_path, spec)
        queue.enqueue(spec.cell_list(), chunk_size=2)
        claim = queue.claim("w1")
        assert claim.attempt == 1 and claim.stolen_from is None
        assert queue.heartbeat(claim.chunk_id, "w1")
        assert not queue.heartbeat(claim.chunk_id, "imposter")
        records = [execute_cell(CellConfig.from_dict(d)) for d in claim.cells]
        queue.complete(claim.chunk_id, "w1", records)
        assert queue.store.completed_keys() >= {r["key"] for r in records}
        counts = queue.counts()
        assert counts.done == 1 and counts.cells_done == len(records)

    def test_fresh_leases_are_not_claimable(self, tmp_path):
        spec = fast_spec(seeds=(0,), sizes=(6,))
        queue = make_queue(tmp_path, spec)
        queue.enqueue(spec.cell_list(), chunk_size=100)
        assert queue.claim("w1") is not None
        assert queue.claim("w2") is None       # only chunk is freshly leased
        assert not queue.finished()            # ...and not done yet

    def test_expired_lease_is_stolen_with_attempt_count(self, tmp_path):
        clock = FakeClock()
        spec = fast_spec(seeds=(0,), sizes=(6,))
        queue = make_queue(tmp_path, spec, lease_ttl_s=10, clock=clock)
        queue.enqueue(spec.cell_list(), chunk_size=100)
        first = queue.claim("doomed")
        clock.advance(5)
        assert queue.claim("vulture") is None  # lease still fresh
        clock.advance(6)                       # heartbeat now 11s old > TTL
        assert queue.counts().orphaned == 1
        stolen = queue.claim("vulture")
        assert stolen is not None
        assert stolen.chunk_id == first.chunk_id
        assert stolen.attempt == 2
        assert stolen.stolen_from == "doomed"
        # the original holder has lost the lease
        assert not queue.heartbeat(first.chunk_id, "doomed")

    def test_complete_after_steal_raises_and_writes_nothing(self, tmp_path):
        clock = FakeClock()
        spec = fast_spec(seeds=(0,), sizes=(6,))
        queue = make_queue(tmp_path, spec, lease_ttl_s=10, clock=clock)
        queue.enqueue(spec.cell_list(), chunk_size=100)
        claim = queue.claim("doomed")
        clock.advance(11)
        queue.claim("vulture")
        fake = [{"key": "should-never-land", "config": {}, "metrics": {}}]
        with pytest.raises(LeaseLost):
            queue.complete(claim.chunk_id, "doomed", fake)
        assert len(queue.store) == 0           # nothing was recorded

    def test_release_returns_chunk_to_pending(self, tmp_path):
        spec = fast_spec(seeds=(0,), sizes=(6,))
        queue = make_queue(tmp_path, spec, lease_ttl_s=10)
        queue.enqueue(spec.cell_list(), chunk_size=100)
        claim = queue.claim("w1")
        assert queue.release(claim.chunk_id, "w1")
        assert queue.counts().pending == 1
        assert queue.claim("w2") is not None   # immediately claimable again


class TestRunWorker:
    def test_single_worker_drains_and_matches_serial(self, tmp_path):
        spec = fast_spec()
        serial = JsonlStore(tmp_path / "serial.jsonl", campaign=spec.name)
        run_cells(spec.cell_list(), serial, workers=1)

        queue = make_queue(tmp_path, spec)
        queue.enqueue(spec.cell_list(), chunk_size=2)
        report = run_worker(queue.store, worker_id="solo", lease_ttl_s=10,
                            poll_s=0.01)
        assert report.cells_done == len(spec.cell_list())
        assert report.chunks_done == queue.counts().done
        assert queue.finished()
        assert metrics_by_key(queue.store) == metrics_by_key(serial)

    def test_worker_skips_cells_completed_out_of_band(self, tmp_path):
        spec = fast_spec(seeds=(0,))
        queue = make_queue(tmp_path, spec)
        queue.enqueue(spec.cell_list(), chunk_size=100)
        cell = spec.cell_list()[0]
        # another host finishes this cell after it was enqueued
        queue.store.append({"key": cell.key(), "config": cell.to_dict(),
                            "metrics": {"rounds": 1}, "elapsed_s": 0.0})
        report = run_worker(queue.store, worker_id="w", lease_ttl_s=10,
                            poll_s=0.01)
        assert report.cells_skipped == 1
        assert duplicate_keys(queue.store) == []

    def test_worker_records_cell_errors_and_finishes(self, tmp_path):
        spec = fast_spec(seeds=(0,), sizes=(6,))
        bad = CellConfig(algorithm="unconscious", ring_size=8, max_rounds=10,
                         placement="explicit", positions=None)
        queue = make_queue(tmp_path, spec)
        queue.enqueue(spec.cell_list() + [bad], chunk_size=2)
        report = run_worker(queue.store, worker_id="w", lease_ttl_s=10,
                            poll_s=0.01)
        assert report.cells_failed == 1
        assert queue.finished()
        assert queue.store.error_keys() == {bad.key()}

    def test_surviving_worker_reclaims_a_dead_workers_lease(self, tmp_path):
        """The deterministic crash shape: a claimed chunk whose holder
        never heartbeats again is exactly what SIGKILL leaves behind."""
        spec = fast_spec()
        queue = make_queue(tmp_path, spec, lease_ttl_s=0.2)
        queue.enqueue(spec.cell_list(), chunk_size=4)
        ghost = queue.claim("ghost")
        assert ghost is not None
        report = run_worker(queue.store, worker_id="survivor",
                            lease_ttl_s=0.2, poll_s=0.02)
        assert report.chunks_stolen >= 1
        assert queue.finished()
        assert queue.store.completed_keys() == {
            c.key() for c in spec.cell_list()}
        assert duplicate_keys(queue.store) == []


def record_ok(store, cell):
    store.append({"key": cell.key(), "config": cell.to_dict(),
                  "metrics": {"rounds": 1}, "elapsed_s": 0.0})


class TestPerChunkDedupe:
    """The worker drops a claimed chunk's already-completed cells by the
    keys stored with the chunk, looked up in the store's own scope."""

    @staticmethod
    def claim_one(queue):
        worker = LeasedQueue(queue, "w", poll_s=0.01, say=lambda _: None)
        chunk = worker.claim()
        worker.release(chunk)            # stop the keeper, hand it back
        return chunk

    def test_racing_run_recorded_part_of_the_chunk(self, tmp_path):
        spec = fast_spec()
        cells = spec.cell_list()
        queue = make_queue(tmp_path, spec)
        queue.enqueue(cells, chunk_size=100)
        raced = {cells[1].key(), cells[4].key()}
        for cell in cells:
            if cell.key() in raced:
                record_ok(queue.store, cell)
        chunk = self.claim_one(queue)
        assert chunk.skipped == 2
        assert [c.key() for c in chunk.cells] == [
            c.key() for c in cells if c.key() not in raced]
        report = run_worker(queue.store, worker_id="w", lease_ttl_s=10,
                            poll_s=0.01)
        assert report.cells_skipped == 2
        assert report.cells_done == len(cells) - 2
        assert duplicate_keys(queue.store) == []

    def test_key_completed_under_another_campaign_is_not_skipped(
            self, tmp_path):
        spec = fast_spec()
        cells = spec.cell_list()
        queue = make_queue(tmp_path, spec)
        queue.enqueue(cells, chunk_size=100)
        other = SqliteStore(tmp_path / "q.db", campaign="another-campaign")
        for cell in cells:
            record_ok(other, cell)
        chunk = self.claim_one(queue)
        assert chunk.skipped == 0
        assert [c.key() for c in chunk.cells] == [c.key() for c in cells]

    def test_error_only_cell_is_still_run(self, tmp_path):
        spec = fast_spec(seeds=(0,))
        cells = spec.cell_list()
        queue = make_queue(tmp_path, spec)
        queue.enqueue(cells, chunk_size=100)
        queue.store.append({"key": cells[0].key(),
                            "config": cells[0].to_dict(), "error": "boom"})
        chunk = self.claim_one(queue)
        assert chunk.skipped == 0
        assert cells[0].key() in {c.key() for c in chunk.cells}
        run_worker(queue.store, worker_id="w", lease_ttl_s=10, poll_s=0.01)
        assert cells[0].key() in queue.store.completed_keys()

    def test_stolen_claim_keys_line_up_with_its_cells(self, tmp_path):
        clock = FakeClock()
        spec = fast_spec()
        queue = make_queue(tmp_path, spec, lease_ttl_s=10, clock=clock)
        queue.enqueue(spec.cell_list(), chunk_size=100)
        first = queue.claim("doomed")
        clock.advance(11)
        stolen = queue.claim("vulture")
        assert stolen.stolen_from == "doomed"
        assert len(stolen.cells) == len(spec.cell_list())
        assert stolen.cell_keys == first.cell_keys == tuple(
            CellConfig.from_dict(d).key() for d in stolen.cells)


class TestDistributedAcceptance:
    """The subsystem's headline guarantees, with real worker processes."""

    def test_two_workers_hundred_cells_matches_serial_byte_for_byte(
            self, tmp_path):
        spec = fast_spec(seeds=range(50))          # 50 x 2 sizes = 100 cells
        cells = spec.cell_list()
        assert len(cells) >= 100
        serial = SqliteStore(tmp_path / "serial.db", campaign=spec.name)
        run_cells(cells, serial, workers=1)

        queue = make_queue(tmp_path, spec, lease_ttl_s=10, name="fleet.db")
        queue.enqueue(cells, chunk_size=5)
        procs = [
            CTX.Process(target=_worker_main,
                        args=(str(queue.store.path), spec.name, f"w{i}", 10.0))
            for i in range(2)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
            assert proc.exitcode == 0
        assert queue.finished()
        assert duplicate_keys(queue.store) == []
        queue.store.invalidate_caches()    # workers wrote from other processes
        assert queue.store.completed_keys() == {c.key() for c in cells}
        assert metrics_by_key(queue.store) == metrics_by_key(serial)
        assert (report_text(queue.store, spec.name)
                == report_text(serial, spec.name))
        # telemetry saw both workers
        status = fleet_status(queue.store, lease_ttl_s=10)
        assert {w.worker_id for w in status.workers} == {"w0", "w1"}
        assert status.finished and status.cells_completed == len(cells)

    def test_sigkilled_worker_leaves_orphan_that_survivor_reclaims(
            self, tmp_path):
        spec = fast_spec(seeds=range(4))           # 8 cells
        cells = spec.cell_list()
        serial = SqliteStore(tmp_path / "serial.db", campaign=spec.name)
        run_cells(cells, serial, workers=1)

        ttl = 0.8
        queue = make_queue(tmp_path, spec, lease_ttl_s=ttl, name="fleet.db")
        queue.enqueue(cells, chunk_size=4)
        doomed = CTX.Process(
            target=_slow_worker_main,
            args=(str(queue.store.path), spec.name, "doomed", ttl, 0.4))
        doomed.start()
        # wait until it actually holds a lease, then kill -9 mid-chunk
        deadline = time.time() + 30
        while queue.counts().leased == 0:
            assert time.time() < deadline, "worker never claimed a lease"
            assert doomed.is_alive()
            time.sleep(0.02)
        os.kill(doomed.pid, signal.SIGKILL)
        doomed.join(timeout=30)
        # the lease outlives its holder, then ages into an orphan
        assert queue.counts().leased >= 1
        deadline = time.time() + 30
        while queue.counts().orphaned == 0:
            assert time.time() < deadline, "lease never aged into an orphan"
            time.sleep(0.05)
        status = fleet_status(queue.store, lease_ttl_s=ttl)
        assert status.counts.orphaned >= 1
        assert "orphaned" in render_status(status)
        # a surviving worker steals the orphan and drains the campaign
        report = run_worker(queue.store, worker_id="survivor",
                            lease_ttl_s=ttl, poll_s=0.05)
        assert report.chunks_stolen >= 1
        assert queue.finished()
        assert duplicate_keys(queue.store) == []
        assert metrics_by_key(queue.store) == metrics_by_key(serial)
        assert (report_text(queue.store, spec.name)
                == report_text(serial, spec.name))


class TestConcurrentStress:
    def test_four_processes_no_duplicates_no_lost_records(self, tmp_path):
        """>= 4 workers claiming and appending simultaneously: every cell
        key lands exactly once, none is lost."""
        spec = fast_spec(seeds=range(20))          # 40 cells
        cells = spec.cell_list()
        queue = make_queue(tmp_path, spec, lease_ttl_s=10, name="stress.db")
        queue.enqueue(cells, chunk_size=1)         # maximal claim contention
        procs = [
            CTX.Process(target=_worker_main,
                        args=(str(queue.store.path), spec.name, f"s{i}", 10.0))
            for i in range(4)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
            assert proc.exitcode == 0
        assert queue.finished()
        queue.store.invalidate_caches()    # workers wrote from other processes
        assert queue.store.completed_keys() == {c.key() for c in cells}
        assert duplicate_keys(queue.store) == []
        assert len(queue.store) == len(cells)
        # every worker that completed work is visible in telemetry
        done_by = {w.worker_id: w.cells_done for w in queue.workers()}
        assert sum(done_by.values()) == len(cells)


class TestRunDistributed:
    def test_matches_serial_and_resumes(self, tmp_path):
        spec = fast_spec()
        serial = JsonlStore(tmp_path / "serial.jsonl", campaign=spec.name)
        run_cells(spec.cell_list(), serial, workers=1)
        store = SqliteStore(tmp_path / "d.db", campaign=spec.name)
        run = run_distributed(spec, store, workers=2, chunk_size=2,
                              lease_ttl_s=10)
        assert run.executed == len(spec.cell_list())
        assert run.failed == 0 and run.workers == 2
        assert metrics_by_key(store) == metrics_by_key(serial)
        # a second distributed run is a no-op resume
        again = run_distributed(spec, store, workers=2, lease_ttl_s=10)
        assert again.executed == 0
        assert again.skipped == len(spec.cell_list())

    def test_jsonl_store_raises(self, tmp_path):
        with pytest.raises(ConfigurationError, match="sqlite"):
            run_distributed(fast_spec(), JsonlStore(tmp_path / "r.jsonl"),
                            workers=1)

    def test_enqueue_campaign_and_watch_status(self, tmp_path, capsys):
        spec = fast_spec(seeds=(0,))
        queue, report = enqueue_campaign(
            spec, SqliteStore(tmp_path / "w.db"), chunk_size=1)
        assert report.chunks == len(spec.cell_list())
        status = watch_status(queue.store, lease_ttl_s=10, interval_s=0.01,
                              max_snapshots=1)
        assert not status.finished
        run_worker(queue.store, worker_id="w", lease_ttl_s=10, poll_s=0.01)
        final = watch_status(queue.store, lease_ttl_s=10, interval_s=0.01)
        assert final.finished
        text = render_status(final)
        assert "fleet status" in text and "finished: yes" in text


class TestEnqueueRoutingOverride:
    """The run's ``batch`` override reaches the chunk planner.

    Workers of a ``--distributed --batch off`` run execute every cell
    scalar, so the queue must hold 25-cell scalar chunks, not one wide
    batch chunk run scalar under a single lease.
    """

    @pytest.fixture(autouse=True)
    def one_cpu(self, monkeypatch):
        # enqueue sizes chunks for this host's CPUs; pin them so the
        # batch and scalar layouts differ on any machine.
        from repro.campaigns import executor

        monkeypatch.setattr(executor, "usable_cpus", lambda: 1)

    def spec(self):
        # 64 two-agent cells: one group wide enough for ``auto`` to batch
        return fast_spec(name="route", seeds=range(32))

    @pytest.mark.parametrize("batch", ["off", "auto", None])
    def test_enqueue_plans_by_the_override(self, tmp_path, batch):
        from repro.campaigns.executor import MIN_BATCH_LANES
        from repro.core.batch import numpy_available

        spec = self.spec()
        assert 64 * 2 >= MIN_BATCH_LANES
        queue, report = enqueue_campaign(
            spec, SqliteStore(tmp_path / "q.db"), batch=batch)
        assert report.enqueued_cells == 64
        if batch == "off" or not numpy_available():
            # default_chunk_size(64, 1): 4 scalar chunks of 16
            assert report.chunks == 4 and report.chunk_size <= 25
        else:
            # batchable cells: one lockstep chunk, as with no override
            assert report.chunks == 1 and report.chunk_size == 64

    def test_run_distributed_threads_the_override(self, tmp_path):
        spec = self.spec()
        store = SqliteStore(tmp_path / "d.db", campaign=spec.name)
        run = run_distributed(spec, store, workers=1, lease_ttl_s=10,
                              batch="off")
        assert run.executed == 64 and run.batched == 0
        queue = WorkQueue(store)
        assert queue.counts().done == 4
        assert all(c.n_cells <= 25 and not c.batched
                   for c in queue.recent_chunks(limit=10))


class TestDistributedCli:
    def run_cli(self, *argv):
        from repro.cli import main

        return main(list(argv))

    def test_enqueue_worker_status_roundtrip(self, tmp_path, capsys):
        db = f"sqlite:{tmp_path}/smoke.db"
        assert self.run_cli(
            "campaign", "enqueue", "--spec", "smoke", "--store", db,
            "--chunk-size", "4") == 0
        assert "enqueued=24" in capsys.readouterr().out
        assert self.run_cli(
            "campaign", "worker", "--campaign", "smoke", "--store", db,
            "--lease-ttl", "10", "--poll", "0.01") == 0
        out = capsys.readouterr().out
        assert "chunks=6" in out
        assert self.run_cli(
            "campaign", "status", "--spec", "smoke", "--store", db) == 0
        out = capsys.readouterr().out
        assert "finished: yes" in out and "6 done" in out

    def test_run_distributed_flag(self, tmp_path, capsys):
        db = f"sqlite:{tmp_path}/d.db"
        assert self.run_cli(
            "campaign", "run", "--spec", "smoke", "--limit", "6",
            "--distributed", "--workers", "2", "--store", db,
            "--lease-ttl", "10", "--no-report") == 0
        assert "[distributed]" in capsys.readouterr().out

    def test_status_without_store_fails_cleanly(self, tmp_path, capsys,
                                                monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert self.run_cli("campaign", "status", "--spec", "smoke") == 1
        assert "no result store" in capsys.readouterr().err

    def test_report_errors_listing(self, tmp_path, capsys):
        spec = fast_spec(seeds=(0,), sizes=(6,))
        store = SqliteStore(tmp_path / "e.db", campaign="smoke")
        bad = CellConfig(algorithm="unconscious", ring_size=8, max_rounds=10,
                         placement="explicit", positions=None, label="bad-cell")
        run_cells(spec.cell_list() + [bad], store, workers=1)
        assert self.run_cli(
            "campaign", "report", "--spec", "smoke",
            "--store", f"sqlite:{tmp_path}/e.db", "--errors") == 0
        out = capsys.readouterr().out
        assert "errored cells" in out
        assert "bad-cell" in out and "ConfigurationError" in out


class TestReviewRegressions:
    """Fixes from review: keeper heartbeats, resume width, identity rows,
    graceful release."""

    def test_lease_keeper_prevents_steal_during_slow_cell(self, tmp_path):
        """A cell slower than the TTL must not get a healthy worker's
        chunk stolen: the keeper thread heartbeats while it computes."""
        import threading  # noqa: F401  (documents the threaded keeper)

        from repro.campaigns.distributed.worker import LeaseKeeper

        spec = fast_spec(seeds=(0,), sizes=(6,))
        queue = make_queue(tmp_path, spec, lease_ttl_s=0.3)
        queue.enqueue(spec.cell_list(), chunk_size=100)
        claim = queue.claim("steady")
        vulture = WorkQueue(SqliteStore(queue.store.path, campaign=spec.name),
                            lease_ttl_s=0.3)
        with LeaseKeeper(queue, claim.chunk_id, "steady") as keeper:
            deadline = time.time() + 1.0   # > 3x TTL of main-thread silence
            while time.time() < deadline:
                assert vulture.claim("vulture") is None
                time.sleep(0.05)
            assert not keeper.lost.is_set()
        # once the keeper stops (worker died), the lease ages out
        time.sleep(0.4)
        stolen = vulture.claim("vulture")
        assert stolen is not None and stolen.stolen_from == "steady"

    def test_resume_run_uses_full_worker_width(self, tmp_path):
        """A distributed re-run that enqueues nothing new must still drain
        leftover chunks at the requested width, not one worker."""
        spec = fast_spec()                     # 6 cells -> 3 chunks of 2
        store = SqliteStore(tmp_path / "r.db", campaign=spec.name)
        WorkQueue(store, lease_ttl_s=10).enqueue(
            spec.cell_list(), chunk_size=2)
        run = run_distributed(spec, store, workers=2, lease_ttl_s=10)
        assert run.workers == 2
        assert run.executed == len(spec.cell_list())

    def test_worker_row_follows_its_latest_campaign(self, tmp_path):
        """A reused worker_id shows up in the campaign it polls *now*."""
        path = tmp_path / "shared.db"
        spec_a = fast_spec(name="camp-a", seeds=(0,), sizes=(6,))
        spec_b = fast_spec(name="camp-b", seeds=(0,), sizes=(8,))
        queue_a = WorkQueue(SqliteStore(path, campaign="camp-a"),
                            lease_ttl_s=10)
        queue_b = WorkQueue(SqliteStore(path, campaign="camp-b"),
                            lease_ttl_s=10)
        queue_a.enqueue(spec_a.cell_list(), chunk_size=100)
        queue_b.enqueue(spec_b.cell_list(), chunk_size=100)
        queue_a.claim("node7")
        assert [w.worker_id for w in queue_a.workers()] == ["node7"]
        queue_b.claim("node7")
        assert [w.worker_id for w in queue_b.workers()] == ["node7"]
        assert queue_a.workers() == []         # the row moved campaigns

    def test_interrupt_releases_chunk_to_pending(self, tmp_path, monkeypatch):
        """Ctrl-C hands the held chunk straight back — no TTL wait."""
        from repro.campaigns.distributed import worker as worker_mod

        spec = fast_spec(seeds=(0,), sizes=(6,))
        queue = make_queue(tmp_path, spec, lease_ttl_s=10)
        queue.enqueue(spec.cell_list(), chunk_size=100)

        def interrupted(cell, key=None):
            raise KeyboardInterrupt

        monkeypatch.setattr(
            worker_mod.executor_module, "execute_cell", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_worker(queue.store, worker_id="w", lease_ttl_s=10,
                       poll_s=0.01)
        counts = queue.counts()
        assert counts.pending == 1 and counts.leased == 0
        assert len(queue.store) == 0           # nothing recorded

    def test_failure_keeps_lease_but_stops_heartbeat(self, tmp_path,
                                                     monkeypatch):
        """Any failure but Ctrl-C leaves the chunk leased, so the steal
        counts an attempt toward poison parking — and the heartbeat
        stops, so the lease does age out for a peer to steal."""
        from repro.campaigns.distributed import worker as worker_mod

        spec = fast_spec(seeds=(0,), sizes=(6,))
        queue = make_queue(tmp_path, spec, lease_ttl_s=0.3)
        queue.enqueue(spec.cell_list(), chunk_size=100)

        def broken(cell, key=None):
            raise RuntimeError("boom")

        monkeypatch.setattr(
            worker_mod.executor_module, "execute_cell", broken)
        with pytest.raises(RuntimeError):
            run_worker(queue.store, worker_id="w", lease_ttl_s=0.3,
                       poll_s=0.01)
        assert queue.counts().leased == 1
        time.sleep(0.5)                        # > TTL with no heartbeat
        vulture = WorkQueue(SqliteStore(queue.store.path, campaign=spec.name),
                            lease_ttl_s=0.3)
        stolen = vulture.claim("vulture")
        assert stolen is not None and stolen.attempt == 2

    def test_worker_waits_for_first_enqueue(self, tmp_path):
        """Fleet bring-up: a worker started before any enqueue must wait
        for chunks, not exit 0 and strand the campaign."""
        import threading

        spec = fast_spec(seeds=(0,), sizes=(6,))
        queue = make_queue(tmp_path, spec, lease_ttl_s=10)
        assert not queue.finished()            # nothing enqueued != done
        assert not queue.ever_enqueued()
        messages = []
        result = {}

        def early_worker():
            result["report"] = run_worker(
                SqliteStore(queue.store.path, campaign=spec.name),
                worker_id="early", lease_ttl_s=10, poll_s=0.02,
                progress=messages.append)

        thread = threading.Thread(target=early_worker)
        thread.start()
        time.sleep(0.2)
        assert thread.is_alive()               # waiting, not exited
        queue.enqueue(spec.cell_list(), chunk_size=100)
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert result["report"].cells_done == len(spec.cell_list())
        assert any("waiting" in m for m in messages)

    def test_error_after_success_never_enters_error_keys(self, tmp_path):
        """append_many with a warm error cache but cold completed cache
        must not list an already-succeeded cell as errored."""
        spec = fast_spec(seeds=(0,), sizes=(6,))
        cell = spec.cell_list()[0]
        store = SqliteStore(tmp_path / "e.db", campaign=spec.name)
        run_cells([cell], store, workers=1)
        # fresh instance: warm ONLY the error cache
        laggard = SqliteStore(tmp_path / "e.db", campaign=spec.name)
        assert laggard.error_keys() == set()
        laggard.append({"key": cell.key(), "config": cell.to_dict(),
                        "error": "late straggler"})
        assert laggard.error_keys() == set()   # success on disk wins
        assert SqliteStore(tmp_path / "e.db",
                           campaign=spec.name).error_keys() == set()

    def test_distributed_run_of_completed_campaign_spawns_nobody(
            self, tmp_path):
        spec = fast_spec(seeds=(0,))
        store = SqliteStore(tmp_path / "done.db", campaign=spec.name)
        run_cells(spec.cell_list(), store, workers=1)   # serial completion
        run = run_distributed(spec, store, workers=4, lease_ttl_s=10)
        assert run.workers == 0
        assert run.executed == 0
        assert run.skipped == len(spec.cell_list())

    def test_poison_chunk_parked_after_max_attempts(self, tmp_path):
        """A chunk that keeps killing its workers is parked, not re-stolen
        forever: the campaign still finishes and status shows the parking."""
        clock = FakeClock()
        spec = fast_spec(seeds=(0, 1), sizes=(6,))     # 2 cells -> 2 chunks
        queue = make_queue(tmp_path, spec, lease_ttl_s=10, clock=clock)
        queue.max_attempts = 2
        queue.enqueue(spec.cell_list(), chunk_size=1)
        poison = queue.claim("w1")                     # claimed, never done
        healthy = queue.claim("w2")
        from repro.campaigns.executor import execute_cell
        queue.complete(healthy.chunk_id, "w2",
                       [execute_cell(CellConfig.from_dict(d))
                        for d in healthy.cells])
        clock.advance(11)
        again = queue.claim("w3")                      # steal #1: attempt 2
        assert again.chunk_id == poison.chunk_id and again.attempt == 2
        clock.advance(11)
        assert queue.claim("w4") is None               # attempt cap: parked
        counts = queue.counts()
        assert counts.failed == 1 and counts.cells_failed == 1
        assert queue.finished()                        # parked is terminal
        status = fleet_status(queue.store, lease_ttl_s=10, clock=clock)
        assert "PARKED" in render_status(status, clock=clock)
        # a fresh enqueue gives the parked cells a new attempt cycle
        report = queue.enqueue(spec.cell_list(), chunk_size=1)
        assert report.enqueued_cells == 1
        assert not queue.finished()

    def test_report_falls_back_to_distributed_default_store(
            self, tmp_path, capsys, monkeypatch):
        """campaign report/resume with no --store find results/<spec>.db
        when the .jsonl default is absent (the --distributed round trip)."""
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        assert main(["campaign", "run", "--spec", "smoke", "--limit", "6",
                     "--distributed", "--workers", "1", "--lease-ttl", "10",
                     "--no-report"]) == 0
        capsys.readouterr()
        assert main(["campaign", "report", "--spec", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "results/smoke.db" in out and "runs=" in out
        assert main(["campaign", "resume", "--spec", "smoke", "--limit", "6",
                     "--no-report"]) == 0
        assert "skipped=6" in capsys.readouterr().out

    def test_enqueue_rejects_bad_chunk_size(self, tmp_path):
        spec = fast_spec(seeds=(0,), sizes=(6,))
        queue = make_queue(tmp_path, spec)
        for bad in (0, -1):
            with pytest.raises(ConfigurationError, match="chunk_size"):
                queue.enqueue(spec.cell_list(), chunk_size=bad)
        assert not queue.ever_enqueued()

    def test_pool_run_refuses_store_with_live_chunks(self, tmp_path):
        """run_cells must not write past the lease barrier while a fleet
        is draining the same campaign — that could record a cell twice."""
        spec = fast_spec()
        queue = make_queue(tmp_path, spec, lease_ttl_s=10)
        queue.enqueue(spec.cell_list(), chunk_size=2)
        with pytest.raises(ConfigurationError, match="pending or leased"):
            run_cells(spec.cell_list(), queue.store, workers=1)
        # once the fleet drains the queue, pool-mode runs are fine again
        run_worker(queue.store, worker_id="w", lease_ttl_s=10, poll_s=0.01)
        resumed = run_cells(spec.cell_list(), queue.store, workers=1)
        assert resumed.executed == 0
        assert resumed.skipped == len(spec.cell_list())

    def test_resume_accounting_does_not_double_count(self, tmp_path):
        """Cells drained from leftover chunks count as executed, not as
        skipped+executed."""
        spec = fast_spec()
        store = SqliteStore(tmp_path / "acct.db", campaign=spec.name)
        WorkQueue(store, lease_ttl_s=10).enqueue(
            spec.cell_list(), chunk_size=2)
        run = run_distributed(spec, store, workers=1, lease_ttl_s=10)
        assert run.total == len(spec.cell_list())
        assert run.executed == len(spec.cell_list())
        assert run.skipped == 0
        assert run.skipped + run.executed == run.total

    def test_enqueue_dedupes_within_the_batch(self, tmp_path):
        """Two input cells with the same content hash queue exactly once."""
        spec = fast_spec(seeds=(0,), sizes=(6,))
        cells = spec.cell_list()
        queue = make_queue(tmp_path, spec)
        report = queue.enqueue(cells + list(cells), chunk_size=100)
        assert report.enqueued_cells == len(cells)
        assert report.skipped_queued == len(cells)   # the duplicates
        assert len(queue.queued_cell_keys()) == len(cells)
        run_worker(queue.store, worker_id="w", lease_ttl_s=10, poll_s=0.01)
        assert duplicate_keys(queue.store) == []

    def test_run_distributed_raises_on_never_run_parked_cells(self, tmp_path):
        """A drained queue whose parked cells never ran must not look like
        success."""
        spec = fast_spec(seeds=(0,), sizes=(6,))
        store = SqliteStore(tmp_path / "p.db", campaign=spec.name)
        # a parked chunk whose cell has no outcome at all (the poison
        # shape: its workers died before recording anything, and it is
        # not part of the spec being re-enqueued)
        conn = store.connection()
        with conn:
            conn.execute(
                "INSERT INTO chunks (campaign_key, state, cells, cell_keys, "
                "n_cells, created_at, done_at) "
                "VALUES (?, 'failed', '[]', '[\"never-ran-key\"]', 1, 1, 1)",
                (spec.name,))
        with pytest.raises(ConfigurationError, match="never"):
            run_distributed(spec, store, workers=1, lease_ttl_s=10)
        # the healthy cells were still executed and persisted
        store.invalidate_caches()    # workers wrote from other processes
        assert store.completed_keys() == {c.key() for c in spec.cell_list()}

    def test_run_distributed_reenqueues_and_redrives_parked_cells(
            self, tmp_path):
        """Parked chunks whose cells CAN run again are re-queued by the
        next run's enqueue and complete cleanly (no false alarm)."""
        spec = fast_spec(seeds=(0, 1), sizes=(6,))
        store = SqliteStore(tmp_path / "p.db", campaign=spec.name)
        queue = WorkQueue(store, lease_ttl_s=10)
        queue.enqueue(spec.cell_list(), chunk_size=1)
        conn = store.connection()
        with conn:
            conn.execute(
                "UPDATE chunks SET state = 'failed', done_at = 1 "
                "WHERE id = (SELECT MIN(id) FROM chunks)")
        run = run_distributed(spec, store, workers=1, lease_ttl_s=10)
        assert run.executed == len(spec.cell_list())
        store.invalidate_caches()
        assert store.completed_keys() == {c.key() for c in spec.cell_list()}

    def test_status_notes_campaign_without_a_queue(self, tmp_path):
        """Watching a store that only ever saw pool-mode runs must say so
        instead of looking like a hung fleet."""
        spec = fast_spec(seeds=(0,), sizes=(6,))
        store = SqliteStore(tmp_path / "pool.db", campaign=spec.name)
        run_cells(spec.cell_list(), store, workers=1)
        status = fleet_status(store, lease_ttl_s=10)
        assert not status.ever_enqueued and not status.finished
        text = render_status(status)
        assert "no chunks have been enqueued" in text

    def test_debug_invariants_applied_at_enqueue_time(self, tmp_path):
        """The audit flag changes cell keys, so it is applied before the
        enqueue keys the cells; a second debug run is a clean resume and
        records land under the keys the queue deduped by."""
        from dataclasses import replace

        spec = fast_spec(seeds=(0,), sizes=(6,))
        store = SqliteStore(tmp_path / "dbg.db", campaign=spec.name)
        run = run_distributed(spec, store, workers=1, lease_ttl_s=10,
                              debug_invariants=True)
        assert run.executed == len(spec.cell_list())
        store.invalidate_caches()
        debug_keys = {replace(c, debug_invariants=True).key()
                      for c in spec.cell_list()}
        assert store.completed_keys() == debug_keys
        again = run_distributed(spec, store, workers=1, lease_ttl_s=10,
                                debug_invariants=True)
        assert again.executed == 0
        assert again.skipped == len(spec.cell_list())
        assert duplicate_keys(store) == []
