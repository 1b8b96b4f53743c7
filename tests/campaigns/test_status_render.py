"""``render_status`` edge cases: the telemetry the fleet shows when
things are *not* healthy — zero rates, dead workers, orphaned and
parked chunks, an empty completion window — plus the observability
additions (claim latency, chunk-rate percentiles, batch share)."""

from __future__ import annotations

import time

import pytest

from repro.campaigns import CampaignSpec, SqliteStore
from repro.campaigns.distributed import (
    WorkQueue,
    enqueue_campaign,
    fleet_status,
    render_batch_rejects,
    render_status,
    run_worker,
)
from repro.campaigns.distributed.queue import QueueCounts, WorkerInfo
from repro.campaigns.distributed.status import FleetStatus
from repro.core.batch import numpy_available


def fast_spec(name="render-test", seeds=range(2), sizes=(6,)) -> CampaignSpec:
    return CampaignSpec(
        name=name,
        base={"algorithm": "unconscious", "horizon": "100 * n",
              "stop_on_exploration": True, "placement": "offset-spread"},
        grid={"ring_size": list(sizes), "seed": list(seeds)},
    )


def counts(**overrides) -> QueueCounts:
    base = dict(pending=0, leased=0, orphaned=0, done=0, cells_pending=0,
                cells_leased=0, cells_done=0, max_attempt=1)
    base.update(overrides)
    return QueueCounts(**base)


def make_status(**overrides) -> FleetStatus:
    queue_counts = overrides.pop("counts", counts())
    base = dict(
        campaign="edge", store_uri="sqlite:/tmp/x.db", counts=queue_counts,
        workers=(), alive=0, cells_completed=0, cells_errored=0,
        rate_cells_per_s=None, eta_s=None, lease_ttl_s=30.0,
        finished=False,
    )
    base.update(overrides)
    return FleetStatus(**base)


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now


class TestRenderEdgeCases:
    def test_zero_rate_shows_no_eta(self):
        text = render_status(make_status(
            counts=counts(pending=3, cells_pending=12)))
        assert "rate n/a" in text
        assert "ETA n/a" in text
        assert "ETA 0s" not in text

    def test_finished_campaign_says_done_not_eta(self):
        text = render_status(make_status(finished=True))
        assert "done" in text
        assert "finished: yes" in text
        assert "ETA" not in text.replace("ETA n/a", "")

    def test_no_workers_alive(self):
        now = time.time()
        gone = WorkerInfo(worker_id="w-dead", host="h", pid=1,
                          started_at=now - 600, last_seen=now - 300,
                          cells_done=4, chunks_done=1)
        text = render_status(make_status(workers=(gone,), alive=0))
        assert "workers : 0 alive / 1 gone" in text
        assert "gone " in text and "w-dead" in text

    def test_no_worker_ever_polled(self):
        text = render_status(make_status())
        assert "(no worker has polled yet)" in text

    def test_orphaned_and_parked_chunks_called_out(self):
        text = render_status(make_status(counts=counts(
            pending=1, leased=2, orphaned=2, failed=1, cells_failed=4,
            done=2, cells_pending=8, max_attempt=5)))
        assert "(2 orphaned)" in text
        assert "1 PARKED (4 cells; re-enqueue" in text
        assert "worst attempt 5" in text

    def test_never_enqueued_note(self):
        text = render_status(make_status(ever_enqueued=False))
        assert "no chunks have been enqueued" in text

    def test_empty_completion_window_renders_without_chunk_rows(self):
        # chunks exist but none completed in the rate window: no recent
        # chunk rows, no rate, no crash
        text = render_status(make_status(
            counts=counts(pending=2, cells_pending=6),
            recent_chunks=()))
        assert "chunk " not in text.split("workers")[0].split("chunks  :")[1]
        assert "rate n/a" in text

    def test_errored_cells_shown_inline(self):
        text = render_status(make_status(cells_completed=5, cells_errored=2))
        assert "(2 errored)" in text


class TestObservabilityLines:
    def test_absent_without_metrics(self):
        text = render_status(make_status())
        assert "latency :" not in text
        assert "rates   :" not in text

    def test_claim_latency_and_chunk_rates_render(self):
        status = make_status(
            claim_latency={"count": 8, "p50": 0.002, "p90": 0.004,
                           "p99": 0.01},
            chunk_rate={"count": 3, "p50": 100.0, "p90": 200.0,
                        "p99": 250.0},
        )
        text = render_status(status)
        assert "latency : claim p50=2.0ms p90=4.0ms p99=10.0ms (n=8)" in text
        assert "rates   : chunk cells/s p50=100 p90=200 p99=250" in text

    def test_batch_share_appended_to_batch_line(self):
        text = render_status(make_status(
            counts=counts(done=4, batched_done=2, cells_batched=10,
                          cells_done=20),
            batch_share=0.5))
        assert "batch   : 2/4 done chunks vectorized (10 cells, 50% of "
        assert "50% of done cells)" in text

    def test_batch_reject_table_renders_most_frequent_first(self):
        text = render_status(make_status(
            batch_rejects={"adversary": 12, "faults": 4}))
        assert ("scalar  : 16 cell routing(s) fell back to the scalar "
                "path, by reason:") in text
        adv = text.index("adversary  x12")
        flt = text.index("faults     x4")
        assert adv < flt

    def test_batch_reject_table_absent_when_nothing_rejected(self):
        text = render_status(make_status())
        assert "scalar  :" not in text
        assert render_batch_rejects(None) == []
        assert render_batch_rejects({}) == []

    def test_batch_reject_counts_from_snapshot(self):
        from repro.campaigns.executor import batch_reject_counts

        snap = {
            "executor.batch_reject.adversary": {"type": "counter", "value": 3},
            "executor.batch_reject.faults": {"type": "counter", "value": 7},
            "executor.batch_reject.topology": {"type": "counter", "value": 0},
            "executor.cells": {"type": "counter", "value": 99},
            "executor.cell_s": {"type": "histogram", "count": 4},
        }
        assert batch_reject_counts(snap) == {"faults": 7, "adversary": 3}
        assert list(batch_reject_counts(snap)) == ["faults", "adversary"]
        assert batch_reject_counts(None) == {}

    def test_run_summary_includes_reject_reasons(self):
        from repro.campaigns.executor import CampaignRun

        run = CampaignRun(
            total=10, skipped=0, executed=10, failed=0, elapsed_s=1.0,
            workers=1, batched=6,
            metrics={"executor.batch_reject.adversary":
                     {"type": "counter", "value": 4}})
        assert "batched=6 scalar[adversary=4]" in run.summary()
        plain = CampaignRun(total=1, skipped=0, executed=1, failed=0,
                            elapsed_s=0.1, workers=1)
        assert "scalar[" not in plain.summary()

    def test_worker_row_average_rate(self):
        now = time.time()
        w = WorkerInfo(worker_id="w1", host="h", pid=1,
                       started_at=now - 10.0, last_seen=now,
                       cells_done=500, chunks_done=5)
        text = render_status(make_status(workers=(w,), alive=1))
        assert "~50 cells/s" in text


class TestFleetStatusFromStore:
    def test_live_queue_populates_observability_fields(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_METRICS", "1")
        from repro.obs import metrics as obs_metrics

        obs_metrics.reset()
        spec = fast_spec()
        store = SqliteStore(tmp_path / "q.db", campaign=spec.name)
        enqueue_campaign(spec, store, chunk_size=1)
        run_worker(store, campaign=spec.name, worker_id="w1")
        status = fleet_status(store)
        assert status.finished
        assert status.claim_latency is not None
        assert status.claim_latency["count"] >= 2
        assert status.claim_latency["p50"] > 0
        assert status.chunk_rate is not None and status.chunk_rate["count"] == 2
        text = render_status(status)
        assert "latency : claim p50=" in text
        obs_metrics.reset()

    def test_live_rejects_surface_in_status(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_METRICS", "1")
        from repro.obs import metrics as obs_metrics

        obs_metrics.reset()
        spec = CampaignSpec(
            name="render-reject",
            base={"algorithm": "known-bound", "horizon": "100 * n",
                  "adversary": "prevent-meetings"},
            grid={"ring_size": [6], "seed": [0, 1]},
        )
        store = SqliteStore(tmp_path / "rej.db", campaign=spec.name)
        enqueue_campaign(spec, store, chunk_size=2)
        run_worker(store, campaign=spec.name, worker_id="w1")
        status = fleet_status(store)
        # Without NumPy (CI's REPRO_NO_NUMPY lane) no cell can batch, and
        # that is the reason the executor records first.
        reason = "adversary" if numpy_available() else "no_numpy"
        assert status.batch_rejects == {reason: 2}
        assert "scalar  : 2 cell routing(s)" in render_status(status)
        obs_metrics.reset()

    def test_without_metrics_fields_stay_none(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_METRICS", raising=False)
        spec = fast_spec(name="render-plain")
        store = SqliteStore(tmp_path / "p.db", campaign=spec.name)
        enqueue_campaign(spec, store, chunk_size=1)
        run_worker(store, campaign=spec.name, worker_id="w1")
        status = fleet_status(store)
        assert status.claim_latency is None
        # chunk cells/s lives in the chunks table, not the metrics
        # registry: present regardless of --metrics
        assert status.chunk_rate is not None

    def test_straggler_hint_renders_when_set(self):
        hint = "chunk 7 (w-slow) running 9.0s vs 2.0s median chunk"
        assert f"slowest : {hint}" in render_status(
            make_status(straggler=hint))
        assert "slowest" not in render_status(make_status())

    def test_live_straggler_hint_from_queue(self, tmp_path):
        # finish one chunk (the baseline), then claim a second and let
        # the clock run past 2x the median: status names the laggard
        spec = fast_spec(name="render-straggle", seeds=range(4))
        store = SqliteStore(tmp_path / "s.db", campaign=spec.name)
        queue, _ = enqueue_campaign(spec, store, chunk_size=2)
        run_worker(store, campaign=spec.name, worker_id="w-fast",
                   max_chunks=1)
        claim = queue.claim("w-slow")
        assert claim is not None
        clock = FakeClock(time.time() + 3600.0)
        status = fleet_status(store, clock=clock)
        assert status.straggler is not None
        assert f"chunk {claim.chunk_id} (w-slow)" in status.straggler
        assert "straggler" in status.straggler
        assert "slowest :" in render_status(status, clock=clock)

    def test_active_leases_and_chunk_seconds(self, tmp_path):
        spec = fast_spec(name="render-leases", seeds=range(4))
        store = SqliteStore(tmp_path / "l.db", campaign=spec.name)
        queue, _ = enqueue_campaign(spec, store, chunk_size=2)
        assert queue.active_leases() == []
        assert queue.chunk_seconds() == []
        run_worker(store, campaign=spec.name, worker_id="w1", max_chunks=1)
        seconds = queue.chunk_seconds()
        assert len(seconds) == 1 and seconds[0] > 0
        claim = queue.claim("w2")
        leases = queue.active_leases()
        assert [(l.chunk_id, l.worker_id, l.n_cells) for l in leases] \
            == [(claim.chunk_id, "w2", 2)]
        assert leases[0].attempt == 1
        assert claim.created_at is not None
        assert leases[0].acquired_at >= claim.created_at

    def test_store_metrics_requires_sqlite(self, tmp_path):
        from repro.campaigns import JsonlStore
        from repro.campaigns.distributed import store_metrics
        from repro.core.errors import ConfigurationError

        store = JsonlStore(tmp_path / "r.jsonl", campaign="x")
        with pytest.raises(ConfigurationError, match="SQLite"):
            store_metrics(store)
