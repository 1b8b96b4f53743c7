"""Bench-history record/check: the perf-regression guard."""

from __future__ import annotations

import json

import pytest

from repro.cli import main as cli_main
from repro.obs.history import (
    HEADLINES,
    check,
    extract_headlines,
    load_history,
    record,
)


def main(argv):
    return cli_main(["bench", *argv])


def bench(rounds_per_s=20000.0, speedup=8.0, mode="smoke"):
    return {
        "mode": mode,
        "headline": {"rounds_per_s": rounds_per_s},
        "batch": {"headline": {"speedup": speedup,
                               "batched": {"cells_per_s": 300.0}}},
    }


def write_bench(tmp_path, name="bench.json", **kwargs):
    path = tmp_path / name
    path.write_text(json.dumps(bench(**kwargs)))
    return path


class TestExtract:
    def test_known_headlines_extracted(self):
        got = extract_headlines(bench())
        assert got["engine.rounds_per_s"] == 20000.0
        assert got["batch.speedup"] == 8.0
        assert got["batch.cells_per_s"] == 300.0
        assert set(got) < set(HEADLINES)

    def test_missing_sections_skipped(self):
        assert extract_headlines({"headline": {"rounds_per_s": 2.0}}) == {
            "engine.rounds_per_s": 2.0}
        assert extract_headlines({}) == {}

    def test_non_numeric_leaf_skipped(self):
        assert extract_headlines({"headline": {"rounds_per_s": "fast"}}) == {}


class TestRecord:
    def test_appends_entry(self, tmp_path):
        hist = tmp_path / "hist.jsonl"
        entry = record(write_bench(tmp_path), hist,
                       git_sha="abc123", now=100.0)
        assert entry["git_sha"] == "abc123"
        assert entry["mode"] == "smoke"
        assert entry["recorded_at"] == 100.0
        record(write_bench(tmp_path), hist, git_sha="def456", now=200.0)
        entries = load_history(hist)
        assert [e["git_sha"] for e in entries] == ["abc123", "def456"]

    def test_rejects_headline_free_file(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"hello": 1}))
        with pytest.raises(ValueError, match="none of the known headlines"):
            record(path, tmp_path / "hist.jsonl")


class TestCheck:
    def seed(self, tmp_path, values, name="hist.jsonl"):
        hist = tmp_path / name
        for i, rps in enumerate(values):
            record(write_bench(tmp_path, rounds_per_s=rps), hist,
                   git_sha=f"sha{i}", now=float(i))
        return hist

    def test_synthetic_2x_regression_fails(self, tmp_path):
        # the acceptance scenario: stable history, then a 2x slowdown
        hist = self.seed(tmp_path, [20000.0, 20000.0, 20000.0, 10000.0])
        problems = check(hist)
        assert len(problems) == 1
        assert "engine.rounds_per_s" in problems[0]
        assert "sha3" in problems[0]

    def test_noise_within_fraction_passes(self, tmp_path):
        hist = self.seed(tmp_path, [20000.0, 19000.0, 15000.0])
        assert check(hist) == []

    def test_short_history_always_passes(self, tmp_path):
        assert check(tmp_path / "missing.jsonl") == []
        hist = self.seed(tmp_path, [20000.0])
        assert check(hist) == []

    def test_window_limits_baseline(self, tmp_path):
        # ancient slow entries age out of the window: the recent fast
        # plateau is the baseline, so the final slow run fails
        hist = self.seed(tmp_path, [100.0, 100.0] + [20000.0] * 10 + [100.0])
        assert check(hist, window=10)
        # with a huge window the old slow entries drag the median...
        # still failing here (median of 12 entries is 20000), so pin the
        # converse: a tiny window that only sees the last slow-ish entry
        hist2 = self.seed(tmp_path, [20000.0, 90.0, 100.0], name="h2.jsonl")
        assert check(hist2, window=1) == []

    def test_fraction_validated(self, tmp_path):
        hist = self.seed(tmp_path, [1.0, 1.0])
        with pytest.raises(ValueError, match="fraction"):
            check(hist, fraction=0.0)
        with pytest.raises(ValueError, match="fraction"):
            check(hist, fraction=1.5)

    def test_headline_missing_from_baseline_ignored(self, tmp_path):
        hist = tmp_path / "hist.jsonl"
        path = tmp_path / "partial.json"
        path.write_text(json.dumps({"batch": {"headline": {"speedup": 8.0}}}))
        record(path, hist, git_sha="a", now=0.0)
        record(write_bench(tmp_path, rounds_per_s=100.0), hist,
               git_sha="b", now=1.0)
        # rounds_per_s has no trailing baseline; speedup is stable
        assert check(hist) == []


class TestCli:
    def test_record_then_check_roundtrip(self, tmp_path, capsys):
        bench_path = write_bench(tmp_path)
        hist = tmp_path / "hist.jsonl"
        assert main(["record", "--bench", str(bench_path),
                     "--history", str(hist), "--sha", "aaa"]) == 0
        assert main(["check", "--history", str(hist)]) == 0
        out = capsys.readouterr().out
        assert "recorded aaa" in out and "bench history ok" in out

    def test_check_exits_1_on_regression(self, tmp_path, capsys):
        hist = tmp_path / "hist.jsonl"
        for i, rps in enumerate([20000.0, 20000.0, 9000.0]):
            main(["record", "--bench",
                  str(write_bench(tmp_path, rounds_per_s=rps)),
                  "--history", str(hist), "--sha", f"s{i}"])
        assert main(["check", "--history", str(hist)]) == 1
        assert "bench regression" in capsys.readouterr().err

    def test_missing_files_exit_2(self, tmp_path):
        assert main(["record", "--bench", str(tmp_path / "no.json"),
                     "--history", str(tmp_path / "h.jsonl")]) == 2
        assert main(["check", "--history", str(tmp_path / "no.jsonl")]) == 2


class TestLikeForLike:
    HOST_A = {"cpu": "cpu-a", "cpus": 2, "python": "3.12.0", "numpy": "2.0"}
    HOST_B = {"cpu": "cpu-b", "cpus": 8, "python": "3.12.0", "numpy": "2.0"}

    def seed(self, tmp_path, rows):
        """``rows``: (host, mode, rounds_per_s, speedup) per entry."""
        hist = tmp_path / "hist.jsonl"
        for i, (host, mode, rps, speedup) in enumerate(rows):
            path = write_bench(tmp_path, f"b{i}.json", rounds_per_s=rps,
                               speedup=speedup, mode=mode)
            record(path, hist, git_sha=f"sha{i}", now=float(i), host=host)
        return hist

    def test_record_stamps_this_host(self, tmp_path):
        import platform

        entry = record(write_bench(tmp_path), tmp_path / "hist.jsonl")
        assert set(entry["host"]) == {"cpu", "cpus", "python", "numpy"}
        assert entry["host"]["python"] == platform.python_version()
        assert load_history(tmp_path / "hist.jsonl")[0]["host"] == \
            entry["host"]

    def test_absolute_rate_ignores_other_hosts(self, tmp_path):
        # a slower host's first row is not a regression of the faster one
        hist = self.seed(tmp_path, [(self.HOST_A, "smoke", 20000.0, 8.0)] * 3
                         + [(self.HOST_B, "smoke", 9000.0, 8.0)])
        assert check(hist) == []

    def test_absolute_rate_ignores_other_modes(self, tmp_path):
        hist = self.seed(tmp_path, [(self.HOST_A, "full", 20000.0, 8.0)] * 3
                         + [(self.HOST_A, "smoke", 9000.0, 8.0)])
        assert check(hist) == []

    def test_absolute_rate_compared_on_same_host_and_mode(self, tmp_path):
        # other hosts' rows in between do not dilute the baseline
        hist = self.seed(tmp_path, [
            (self.HOST_A, "smoke", 20000.0, 8.0),
            (self.HOST_B, "smoke", 5000.0, 8.0),
            (self.HOST_A, "smoke", 20000.0, 8.0),
            (self.HOST_A, "smoke", 9000.0, 8.0),
        ])
        problems = check(hist, window=1)
        assert len(problems) == 1
        assert problems[0].startswith("engine.rounds_per_s")

    def test_speedup_compared_across_hosts_and_modes(self, tmp_path):
        hist = self.seed(tmp_path, [(self.HOST_A, "full", 20000.0, 8.0)] * 3
                         + [(self.HOST_B, "smoke", 20000.0, 3.0)])
        problems = check(hist)
        assert len(problems) == 1
        assert problems[0].startswith("batch.speedup")

    def test_entry_without_host_has_no_rate_baseline(self, tmp_path):
        # rows recorded before fingerprints: rates are not comparable
        hist = tmp_path / "hist.jsonl"
        for i, rps in enumerate([20000.0, 20000.0, 9000.0]):
            entry = {"schema": 1, "recorded_at": float(i),
                     "git_sha": f"old{i}", "mode": "full",
                     "headlines": {"engine.rounds_per_s": rps,
                                   "engine.speedup": 8.0}}
            with hist.open("a") as fh:
                fh.write(json.dumps(entry) + "\n")
        assert check(hist) == []
