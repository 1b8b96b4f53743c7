"""The metrics registry: instruments, snapshots, merging, env gating."""

import threading

import pytest

from repro.obs import metrics
from repro.obs.metrics import (
    SAMPLE_CAP,
    MetricsRegistry,
    PhaseTimer,
    merge_snapshots,
    summarize_histogram,
)


@pytest.fixture(autouse=True)
def clean_state(monkeypatch):
    """Every test starts env-gated-off with a fresh global registry."""
    monkeypatch.delenv("REPRO_METRICS", raising=False)
    metrics.configure(enabled=None)
    metrics.reset()
    yield
    metrics.configure(enabled=None)
    metrics.reset()


class TestInstruments:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.counter("c").inc(4)
        assert reg.counter("c").value == 5
        assert reg.snapshot()["c"] == {"type": "counter", "value": 5}

    def test_gauge_last_wins(self):
        reg = MetricsRegistry()
        reg.gauge("g").set(1.0)
        reg.gauge("g").set(7.5)
        assert reg.snapshot()["g"] == {"type": "gauge", "value": 7.5}

    def test_histogram_exact_count_sum_min_max(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        for v in (3.0, 1.0, 2.0):
            h.observe(v)
        dump = h.dump()
        assert dump["count"] == 3
        assert dump["sum"] == 6.0
        assert dump["min"] == 1.0 and dump["max"] == 3.0
        assert sorted(dump["sample"]) == [1.0, 2.0, 3.0]

    def test_histogram_percentiles_interpolate(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        for v in range(1, 101):
            h.observe(float(v))
        assert h.percentile(50) == pytest.approx(50.5)
        assert h.percentile(99) == pytest.approx(99.01)
        assert h.percentile(0) == 1.0
        assert h.percentile(100) == 100.0

    def test_histogram_reservoir_bounded_count_exact(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        n = SAMPLE_CAP * 3
        for v in range(n):
            h.observe(float(v))
        dump = h.dump()
        assert dump["count"] == n
        assert len(dump["sample"]) == SAMPLE_CAP
        # the reservoir stays representative: median within 10% of truth
        assert h.percentile(50) == pytest.approx(n / 2, rel=0.10)

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError, match="already registered"):
            reg.histogram("x")

    def test_threaded_increments_do_not_lose_updates(self):
        reg = MetricsRegistry()

        def work():
            for _ in range(1000):
                reg.counter("n").inc()
                reg.histogram("h").observe(1.0)

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.counter("n").value == 4000
        assert reg.histogram("h").count == 4000


class TestMerge:
    def test_counters_sum_and_gauges_last_win(self):
        a = {"c": {"type": "counter", "value": 2},
             "g": {"type": "gauge", "value": 1.0}}
        b = {"c": {"type": "counter", "value": 3},
             "g": {"type": "gauge", "value": 9.0}}
        merged = merge_snapshots([a, b])
        assert merged["c"]["value"] == 5
        assert merged["g"]["value"] == 9.0

    def test_histograms_pool_reservoirs(self):
        def hist(values):
            return {"type": "histogram", "count": len(values),
                    "sum": sum(values), "min": min(values),
                    "max": max(values), "sample": list(values)}

        merged = merge_snapshots([
            {"h": hist([1.0, 2.0])},
            {"h": hist([10.0, 20.0])},
        ])["h"]
        assert merged["count"] == 4
        assert merged["sum"] == 33.0
        assert merged["min"] == 1.0 and merged["max"] == 20.0
        assert sorted(merged["sample"]) == [1.0, 2.0, 10.0, 20.0]
        summary = summarize_histogram(merged)
        assert summary["mean"] == pytest.approx(8.25)
        assert summary["p50"] == pytest.approx(6.0)

    def test_merged_reservoir_thinned_deterministically(self):
        big = {"type": "histogram", "count": SAMPLE_CAP * 2,
               "sum": 0.0, "min": 0.0, "max": 1.0,
               "sample": [float(i) for i in range(SAMPLE_CAP * 2)]}
        merged = merge_snapshots([{"h": big}, {"h": dict(big)}])["h"]
        assert len(merged["sample"]) == SAMPLE_CAP
        assert merged["count"] == SAMPLE_CAP * 4
        again = merge_snapshots([{"h": big}, {"h": dict(big)}])["h"]
        assert merged["sample"] == again["sample"]

    def test_empty_and_missing_snapshots_skipped(self):
        assert merge_snapshots([{}, None, {"c": {"type": "counter",
                                                 "value": 1}}])["c"]["value"] == 1

    def test_empty_reservoir_histogram_merges(self):
        # a worker can snapshot a histogram before observing anything:
        # count 0, no sample, min/max None must not poison the pool
        empty = {"type": "histogram", "count": 0, "sum": 0.0,
                 "min": None, "max": None, "sample": []}
        full = {"type": "histogram", "count": 2, "sum": 3.0,
                "min": 1.0, "max": 2.0, "sample": [1.0, 2.0]}
        for order in ([empty, full], [full, empty]):
            merged = merge_snapshots([{"h": a} for a in order])["h"]
            assert merged["count"] == 2
            assert merged["min"] == 1.0 and merged["max"] == 2.0
            assert sorted(merged["sample"]) == [1.0, 2.0]
        both = merge_snapshots([{"h": empty}, {"h": dict(empty)}])["h"]
        assert both["count"] == 0 and both["min"] is None
        summary = summarize_histogram(both)
        assert summary["mean"] is None and summary["p50"] is None

    def test_disabled_registry_snapshot_merges_cleanly(self):
        # a fleet mixes --metrics and plain workers: the disabled ones
        # persist {} (null instruments dump nothing) and must vanish
        disabled = MetricsRegistry(enabled=False)
        disabled.counter("c").inc()
        disabled.histogram("h").observe(1.0)
        assert disabled.snapshot() == {}
        enabled = MetricsRegistry()
        enabled.counter("c").inc(3)
        merged = merge_snapshots([disabled.snapshot(), enabled.snapshot(),
                                  disabled.snapshot()])
        assert merged["c"]["value"] == 3

    def test_single_sample_percentiles_collapse_to_value(self):
        reg = MetricsRegistry()
        reg.histogram("h").observe(7.0)
        merged = merge_snapshots([reg.snapshot()])
        summary = summarize_histogram(merged["h"])
        assert summary["count"] == 1
        assert summary["p50"] == summary["p90"] == summary["p99"] == 7.0
        assert summary["mean"] == 7.0
        assert summary["min"] == summary["max"] == 7.0

    def test_conflicting_types_keep_first(self):
        merged = merge_snapshots([
            {"m": {"type": "counter", "value": 2}},
            {"m": {"type": "histogram", "count": 1, "sum": 1.0,
                   "min": 1.0, "max": 1.0, "sample": [1.0]}},
            {"m": {"type": "counter", "value": 5}},
        ])
        assert merged["m"]["type"] == "counter"
        assert merged["m"]["value"] == 7


class TestGlobalGate:
    def test_disabled_by_default_and_null_registry_is_free(self):
        assert not metrics.enabled()
        reg = metrics.registry()
        # unconditional call-site pattern: never raises, records nothing
        reg.counter("x").inc()
        reg.histogram("y").observe(1.0)
        reg.gauge("z").set(2.0)
        assert metrics.snapshot() == {}

    def test_env_enables(self, monkeypatch):
        monkeypatch.setenv("REPRO_METRICS", "1")
        assert metrics.enabled()
        metrics.registry().counter("x").inc()
        assert metrics.snapshot()["x"]["value"] == 1

    def test_configure_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_METRICS", "1")
        metrics.configure(enabled=False)
        assert not metrics.enabled()
        metrics.configure(enabled=None)
        assert metrics.enabled()

    def test_reset_clears_recorded_values(self):
        metrics.configure(enabled=True)
        metrics.registry().counter("x").inc()
        metrics.reset()
        assert metrics.snapshot() == {}

    def test_phase_timing_follows_metrics(self, monkeypatch):
        assert metrics.phase_timer() is None
        monkeypatch.setenv("REPRO_METRICS", "1")
        assert isinstance(metrics.phase_timer(), PhaseTimer)


class TestPhaseTimer:
    def test_flush_records_histograms_and_zeroes(self):
        reg = MetricsRegistry()
        timer = PhaseTimer()
        timer.adversary = 0.5
        timer.look_compute = 1.0
        timer.rounds = 10
        timer.flush(reg)
        snap = reg.snapshot()
        assert snap["engine.phase.adversary_s"]["sum"] == 0.5
        assert snap["engine.phase.look_compute_s"]["sum"] == 1.0
        assert snap["engine.run_rounds"]["sum"] == 10.0
        assert snap["engine.runs"]["value"] == 1
        assert timer.adversary == 0.0 and timer.rounds == 0
