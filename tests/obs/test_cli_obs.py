"""CLI observability: logging flags, the metrics verb, diff_stores.

Satellites of the observability PR: ``--quiet/--verbose/--log-json``
replace the old ``\\r`` progress ticker, ``campaign metrics`` exposes
the persisted fleet snapshots in three formats, and
``scripts/diff_stores.py`` must keep treating the trace correlation id
(``span_id``) as telemetry, not as a result.
"""

import importlib.util
import json
import logging
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs import logs as obs_logs
from repro.obs import metrics as obs_metrics
from repro.obs import spans as obs_spans

SCRIPTS = Path(__file__).resolve().parents[2] / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(autouse=True)
def obs_isolation(monkeypatch, tmp_path):
    """Each test runs with a clean env, cwd, registry, and logger tree."""
    monkeypatch.delenv("REPRO_METRICS", raising=False)
    monkeypatch.delenv("REPRO_PHASE_METRICS", raising=False)
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    monkeypatch.delenv("REPRO_TRACE_JSONL", raising=False)
    monkeypatch.chdir(tmp_path)
    obs_metrics.configure(None)
    obs_metrics.reset()
    yield tmp_path
    obs_spans.close_recorder()
    obs_metrics.configure(None)
    obs_metrics.reset()
    root = logging.getLogger(obs_logs.ROOT)
    for handler in list(root.handlers):
        root.removeHandler(handler)
        handler.close()
    root.setLevel(logging.NOTSET)


RUN = ["campaign", "run", "--spec", "smoke", "--workers", "1", "--limit", "6"]


class TestProgressLogging:
    def test_progress_logged_at_info(self, capsys):
        assert main(RUN) == 0
        captured = capsys.readouterr()
        assert "executed=6" in captured.out
        assert "repro.cli" in captured.err
        assert "6/6 cells (100%)" in captured.err

    def test_obs_flags_do_not_outlive_the_command(self, tmp_path):
        """The flags reach worker processes through the env, but only
        while the command runs: nothing leaks into the caller."""
        import os

        def repro_env():
            return {k: v for k, v in os.environ.items()
                    if k.startswith("REPRO_")}

        before = repro_env()
        assert main([*RUN, "--no-report", "--metrics", "--trace-jsonl",
                     "spans.jsonl"]) == 0
        assert (tmp_path / "spans.jsonl").exists()
        assert repro_env() == before
        assert obs_spans.recorder() is None

    def test_quiet_suppresses_progress_keeps_results(self, capsys):
        assert main(["--quiet", *RUN]) == 0
        captured = capsys.readouterr()
        assert "executed=6" in captured.out           # results: stdout
        assert "cells (" not in captured.err          # progress: silenced

    def test_verbose_keeps_progress(self, capsys):
        assert main(["-v", *RUN]) == 0
        assert "6/6 cells (100%)" in capsys.readouterr().err

    def test_log_json_emits_parseable_lines(self, capsys):
        assert main(["--log-json", *RUN]) == 0
        lines = [json.loads(line)
                 for line in capsys.readouterr().err.splitlines() if line]
        assert lines, "expected at least one JSON log line"
        assert all(row["logger"].startswith("repro") for row in lines)
        assert any("cells (100%)" in row["msg"] for row in lines)

    def test_unknown_log_level_is_usage_error(self, capsys):
        assert main(["--log-level", "loud", "list"]) == 2
        assert "unknown log level" in capsys.readouterr().err


class TestMetricsVerb:
    STORE = "sqlite:m.db"

    def run_with_metrics(self, *extra):
        code = main([*RUN, "--limit", "4", "--metrics",
                     "--store", self.STORE, *extra])
        assert code == 0

    def test_run_prints_metrics_report(self, capsys):
        self.run_with_metrics()
        out = capsys.readouterr().out
        assert "== metrics — campaign smoke" in out
        assert "executor.cells" in out

    def test_table_format_reads_persisted_snapshot(self, capsys):
        self.run_with_metrics()
        capsys.readouterr()
        assert main(["campaign", "metrics", "--spec", "smoke",
                     "--store", self.STORE]) == 0
        out = capsys.readouterr().out
        assert "campaign smoke — metrics" in out
        assert "executor.cells" in out
        assert "metrics.snapshots" in out             # fleet section

    def test_json_format(self, capsys):
        self.run_with_metrics()
        capsys.readouterr()
        assert main(["campaign", "metrics", "--spec", "smoke",
                     "--store", self.STORE, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metrics"]["executor.cells"]["value"] == 4
        assert "sample" not in payload["metrics"].get(
            "executor.cell_s", {})

    def test_prom_format_and_out_file(self, capsys, tmp_path):
        self.run_with_metrics("--batch", "on")  # a 4-cell group: narrow
        capsys.readouterr()
        target = tmp_path / "repro.prom"
        assert main(["campaign", "metrics", "--spec", "smoke",
                     "--store", self.STORE, "--format", "prom",
                     "--out", str(target)]) == 0
        assert capsys.readouterr().out == ""          # report went to --out
        text = target.read_text()
        assert 'repro_executor_cells_total{campaign="smoke"} 4' in text
        assert "# TYPE repro_batch_width summary" in text

    def test_missing_store_fails_cleanly_trace_profile_too(self, capsys):
        for verb in ("trace", "profile"):
            code = main(["campaign", verb, "--spec", "smoke",
                         "--store", "sqlite:absent.db"])
            assert code == 1
            assert "no result store" in capsys.readouterr().err

    def test_missing_store_fails_cleanly(self, capsys):
        code = main(["campaign", "metrics", "--spec", "smoke",
                     "--store", "sqlite:absent.db"])
        captured = capsys.readouterr()
        assert code == 1
        assert "no result store" in captured.err


class TestTraceVerb:
    STORE = "sqlite:t.db"

    def seed_trace(self, *, trace=True):
        assert main(["campaign", "enqueue", "--spec", "smoke",
                     "--limit", "6", "--chunk-size", "3",
                     "--store", self.STORE]) == 0
        worker = ["campaign", "worker", "--campaign", "smoke",
                  "--store", self.STORE, "--worker-id", "w-test"]
        if trace:
            worker += ["--trace", "--trace-jsonl", "spans.jsonl"]
        assert main(worker) == 0
        obs_spans.close_recorder()

    def test_tree_is_default(self, capsys):
        self.seed_trace()
        capsys.readouterr()
        assert main(["campaign", "trace", "--spec", "smoke",
                     "--store", self.STORE]) == 0
        out = capsys.readouterr().out
        assert "campaign smoke" in out
        assert "chunk chunk[3]" in out

    def test_timeline(self, capsys):
        self.seed_trace()
        capsys.readouterr()
        assert main(["campaign", "trace", "--spec", "smoke",
                     "--store", self.STORE, "--timeline"]) == 0
        out = capsys.readouterr().out
        assert "timeline:" in out and "w-test" in out and "█" in out

    def test_critical_path_json_attribution(self, capsys):
        self.seed_trace()
        capsys.readouterr()
        assert main(["campaign", "trace", "--spec", "smoke",
                     "--store", self.STORE, "--critical-path",
                     "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        cp = data["critical_path"]
        buckets = (cp["queue_wait_s"] + cp["claim_s"]
                   + cp["execute_s"] + cp["commit_s"])
        assert buckets == pytest.approx(cp["session_s"], rel=1e-3)
        assert cp["coverage"] >= 0.9
        assert cp["path"][0]["kind"] == "campaign"

    def test_chrome_export(self, capsys, tmp_path):
        self.seed_trace()
        capsys.readouterr()
        target = tmp_path / "trace.json"
        assert main(["campaign", "trace", "--spec", "smoke",
                     "--store", self.STORE, "--format", "chrome",
                     "--out", str(target)]) == 0
        doc = json.loads(target.read_text())
        assert doc["displayTimeUnit"] == "ms"
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert events and all(e["dur"] >= 1 for e in events)

    def test_jsonl_source(self, capsys):
        self.seed_trace()
        capsys.readouterr()
        assert main(["campaign", "trace", "--spec", "smoke",
                     "--jsonl", "spans.jsonl", "--stragglers"]) == 0
        assert "stragglers over" in capsys.readouterr().out

    def test_no_spans_recorded_is_an_error(self, capsys):
        self.seed_trace(trace=False)
        capsys.readouterr()
        assert main(["campaign", "trace", "--spec", "smoke",
                     "--store", self.STORE]) == 1
        assert "no spans recorded" in capsys.readouterr().err


class TestProfileVerb:
    STORE = "sqlite:p.db"

    def seed_metrics(self, *, batch="auto"):
        assert main([*RUN, "--limit", "6", "--metrics",
                     "--batch", batch, "--store", self.STORE]) == 0

    def test_table_output(self, capsys):
        self.seed_metrics(batch="off")
        capsys.readouterr()
        assert main(["campaign", "profile", "--spec", "smoke",
                     "--store", self.STORE]) == 0
        out = capsys.readouterr().out
        assert "campaign smoke — profile" in out
        assert "engine phases" in out
        assert "scalar" in out

    def test_json_routes(self, capsys):
        self.seed_metrics()
        capsys.readouterr()
        assert main(["campaign", "profile", "--spec", "smoke",
                     "--store", self.STORE, "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["routes"], "expected at least one execution route"
        assert sum(r["cells"] for r in data["routes"]) == 6

    def test_folded_stacks_output(self, capsys, tmp_path):
        self.seed_metrics()
        capsys.readouterr()
        target = tmp_path / "profile.folded"
        assert main(["campaign", "profile", "--spec", "smoke",
                     "--store", self.STORE, "--format", "folded",
                     "--out", str(target)]) == 0
        lines = target.read_text().strip().splitlines()
        assert lines
        for line in lines:
            frames, weight = line.rsplit(" ", 1)
            assert frames.startswith("campaign;")
            assert int(weight) > 0


class TestBenchVerb:
    def bench_file(self, rps):
        path = Path("BENCH_engine.json")
        path.write_text(json.dumps(
            {"mode": "smoke",
             "headline": {"rounds_per_s": rps}}))
        return path

    def test_record_and_check_roundtrip(self, capsys):
        self.bench_file(20000.0)
        assert main(["bench", "record", "--sha", "aaa"]) == 0
        assert main(["bench", "record", "--sha", "bbb"]) == 0
        assert main(["bench", "check"]) == 0
        out = capsys.readouterr().out
        assert "recorded aaa" in out and "bench history ok" in out

    def test_check_fails_on_regression(self, capsys):
        self.bench_file(20000.0)
        assert main(["bench", "record", "--sha", "aaa"]) == 0
        assert main(["bench", "record", "--sha", "bbb"]) == 0
        self.bench_file(9000.0)
        assert main(["bench", "record", "--sha", "ccc"]) == 0
        assert main(["bench", "check"]) == 1
        assert "bench regression" in capsys.readouterr().err


class TestDiffStoresIgnoresTelemetry:
    def make_stores(self, tmp_path, mutate=None):
        from repro.campaigns.stores import open_store

        base = [
            {"key": "cell-0", "config": {"ring_size": 8, "seed": 0},
             "rounds": 41, "explored": True,
             "elapsed_s": 0.5, "span_id": "aaaa000011112222"},
            {"key": "cell-1", "config": {"ring_size": 8, "seed": 1},
             "rounds": 44, "explored": True, "elapsed_s": 0.7},
        ]
        other = [dict(r) for r in base]
        other[0].update(elapsed_s=9.9, span_id="ffff000011112222")
        del other[1]["elapsed_s"]
        if mutate:
            mutate(other)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        open_store(f"jsonl:{a}").append_many(base)
        open_store(f"jsonl:{b}").append_many(other)
        return f"jsonl:{a}", f"jsonl:{b}"

    def test_span_id_declared_telemetry(self):
        diff = load_script("diff_stores")
        assert {"elapsed_s", "span_id"} <= set(diff.IGNORED_FIELDS)

    def test_stores_equal_modulo_telemetry(self, tmp_path, capsys):
        diff = load_script("diff_stores")
        a, b = self.make_stores(tmp_path)
        assert diff.main([a, b]) == 0
        assert "stores identical: 2 records" in capsys.readouterr().out

    def test_real_result_difference_still_detected(self, tmp_path, capsys):
        diff = load_script("diff_stores")

        def corrupt(records):
            records[0]["rounds"] = 999

        a, b = self.make_stores(tmp_path, mutate=corrupt)
        assert diff.main([a, b]) == 1
        assert "record differs for cell-0" in capsys.readouterr().err
