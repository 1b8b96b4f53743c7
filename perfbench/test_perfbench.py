"""The benchmark's own tests: ``python -m pytest perfbench -q`` from the repository root."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import analyze
import run
from workloads import WORKLOADS, spec_bytes

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _cells(seed):
    sys.path.insert(0, str(ROOT / "src"))
    from repro.campaigns.spec import CampaignSpec

    return CampaignSpec.from_dict(json.loads(spec_bytes(seed))).cell_list()


def test_same_seed_gives_byte_identical_spec():
    assert spec_bytes(7) == spec_bytes(7)


def test_different_seed_gives_different_cells():
    a, b = _cells(1), _cells(2)
    assert len(a) == len(b) == 9996
    assert {c.key() for c in a} != {c.key() for c in b}


def test_metric_names_and_units_are_well_formed():
    metrics = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for m in metrics:
        assert NAME.fullmatch(m["name"]) and len(m["name"]) <= 64, m
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]), m


def test_benchmark_json_lists_what_run_reports():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(
        run.PER_LAYER_METRICS)
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_every_workload_has_a_runner_and_a_reference(tmp_path):
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    for entry in BENCHMARK["workloads"]:
        workload = WORKLOADS[entry["name"]]
        assert workload.why == entry["why"]
        assert workload.args[0] == "campaign"
        directory = tmp_path / workload.name
        directory.mkdir()
        spec_args = workload.spec_args(3, directory)
        assert spec_args[0] in ("--spec", "--spec-file")


def test_child_env_drops_repro_variables(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_JSONL", "spans.jsonl")
    env = run.child_env()
    assert not any(k.startswith("REPRO_") for k in env)
    assert env["PYTHONPATH"].split(":")[0] == str(run.SRC)


def test_report_of_starts_at_the_title():
    out = "campaign x: 2 cells\ncells=2 in 0.1s\n== campaign x\nrow 1\nrow 2"
    assert run.report_of(out) == "== campaign x\nrow 1\nrow 2"


def test_interval_helpers():
    assert analyze._union([(3, 4), (0, 2), (1, 3)]) == [(0, 4)]
    assert analyze._minus(0, 10, [(2, 3), (5, 12)]) == [(0, 2), (3, 5)]
    assert analyze._overlap([(0, 2), (3, 5)], [(1, 4)]) == 2


def _dump(tmp_path, pid, spans, layers, meta=None):
    dump = {"pid": pid, "spans": spans, "layers": layers, "counts": {},
            "widths": []}
    if meta:
        dump["meta"] = meta
    (tmp_path / f"{pid}.json").write_text(json.dumps(dump))


def test_coverage_counts_worker_spans_inside_a_waiting_frame(tmp_path):
    # main: 0-1 startup, 1-10 cli.main, 2-8 waiting in executor.run;
    # worker busy 3-7 in executor.pool_task.
    _dump(tmp_path, 1, [["1-0", None, "cli.main", 1.0, 10.0, 0.0],
                        ["1-1", "1-0", "executor.run", 2.0, 8.0, 0.0]],
          {"cli.main": [1, 3.0], "executor.run": [1, 6.0]},
          meta={"launch": 0.0, "first": 0.5, "import": [0.5, 1.0],
                "main": [1.0, 10.0], "missing": []})
    _dump(tmp_path, 2, [["2-1", "1-1", "executor.pool_task", 3.0, 7.0, 0.0]],
          {"executor.pool_task": [1, 4.0]})
    m = analyze.analyze(tmp_path, exit_t=10.5, untraced_wall=10.0)
    assert m["trace.wall_s"] == 10.5
    # startup 1.0 + exit 0.5 + worker-covered 4.0 of the wait
    assert m["trace.coverage"] == (1.0 + 0.5 + 4.0) / 10.5
    assert m["executor.pool_task_s"] == 4.0
    assert m["trace.overhead_s"] == 0.5


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-tables",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "correct" not in proc.stdout
