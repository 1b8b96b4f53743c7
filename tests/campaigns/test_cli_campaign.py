"""The ``python -m repro campaign`` command family."""

import json

import pytest

from repro.campaigns.presets import get_spec
from repro.cli import main


@pytest.fixture
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestCampaignCli:
    def test_list_names_every_preset(self, capsys):
        assert main(["campaign", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("smoke", "table2-fsync", "table4-ssync", "paper-tables"):
            assert name in out

    def test_run_writes_default_store_and_reports(self, in_tmp, capsys):
        code = main(["campaign", "run", "--spec", "smoke", "--workers", "1",
                     "--limit", "6"])
        out = capsys.readouterr().out
        assert code == 0
        assert (in_tmp / "results" / "smoke.jsonl").exists()
        assert "executed=6" in out
        assert "label=" in out  # the aggregate table

    def test_run_twice_resumes_from_store(self, in_tmp, capsys):
        main(["campaign", "run", "--spec", "smoke", "--workers", "1",
              "--limit", "6", "--no-report"])
        capsys.readouterr()
        code = main(["campaign", "resume", "--spec", "smoke", "--workers", "1",
                     "--limit", "6", "--no-report"])
        out = capsys.readouterr().out
        assert code == 0
        assert "skipped=6" in out and "executed=0" in out

    def test_resume_without_store_fails(self, in_tmp, capsys):
        assert main(["campaign", "resume", "--spec", "smoke"]) == 1
        assert "nothing to resume" in capsys.readouterr().err

    def test_report_without_store_fails(self, in_tmp, capsys):
        assert main(["campaign", "report", "--spec", "smoke"]) == 1

    def test_report_groups_rows(self, in_tmp, capsys):
        main(["campaign", "run", "--spec", "smoke", "--workers", "1",
              "--limit", "6", "--no-report"])
        capsys.readouterr()
        code = main(["campaign", "report", "--spec", "smoke",
                     "--by", "ring_size"])
        out = capsys.readouterr().out
        assert code == 0
        assert "ring_size=6" in out

    def test_run_spec_file(self, in_tmp, capsys):
        spec = get_spec("smoke").restricted(4)
        spec_path = in_tmp / "custom.json"
        spec_path.write_text(json.dumps(spec.to_dict()))
        store = in_tmp / "custom.jsonl"
        code = main(["campaign", "run", "--spec-file", str(spec_path),
                     "--store", str(store), "--workers", "1", "--no-report"])
        out = capsys.readouterr().out
        assert code == 0
        assert "executed=4" in out
        assert store.exists()

    @pytest.mark.parametrize("base, message", [
        ({"ring_size": 6}, "cells need 'max_rounds' (or a 'horizon')"),
        ({"ring_size": 6, "max_rounds": 50, "batch": "off"},
         "'batch' is no longer a cell field"),
        ({"ring_size": 6, "horizn": "3 * n"},
         "spec 'bad': unknown key 'horizn' (did you mean 'horizon'?)"),
    ])
    def test_bad_spec_file_exits_2_with_one_line(self, in_tmp, capsys,
                                                 base, message):
        spec_path = in_tmp / "bad.json"
        spec_path.write_text(json.dumps({
            "name": "bad", "base": {"algorithm": "known-bound", **base},
            "grid": {"seed": [0, 1]}}))
        code = main(["campaign", "run", "--spec-file", str(spec_path),
                     "--workers", "1"])
        err = capsys.readouterr().err
        assert code == 2
        assert message in err and "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_parallel_run_on_the_cli(self, in_tmp, capsys):
        code = main(["campaign", "run", "--spec", "smoke", "--workers", "2",
                     "--chunk-size", "2", "--no-report"])
        out = capsys.readouterr().out
        assert code == 0
        assert "workers=2" in out and "executed=24" in out


class TestStoreBackendCli:
    def _run(self, in_tmp, store, extra=()):
        return main(["campaign", "run", "--spec", "smoke", "--workers", "1",
                     "--limit", "6", "--store", store, "--no-report", *extra])

    def test_sqlite_uri_runs_and_resumes(self, in_tmp, capsys):
        store = f"sqlite:{in_tmp / 'smoke.db'}"
        assert self._run(in_tmp, store) == 0
        assert (in_tmp / "smoke.db").exists()
        capsys.readouterr()
        code = main(["campaign", "resume", "--spec", "smoke", "--workers", "1",
                     "--limit", "6", "--store", store, "--no-report"])
        out = capsys.readouterr().out
        assert code == 0
        assert "skipped=6" in out and "executed=0" in out

    def test_bare_db_path_selects_sqlite(self, in_tmp, capsys):
        assert self._run(in_tmp, str(in_tmp / "smoke.db")) == 0
        import sqlite3

        with sqlite3.connect(in_tmp / "smoke.db") as conn:
            (count,) = conn.execute("SELECT COUNT(*) FROM results").fetchone()
        assert count == 6

    def test_unknown_scheme_is_a_clean_error(self, in_tmp, capsys):
        assert self._run(in_tmp, "mongo:whatever") == 2
        assert "unknown store scheme" in capsys.readouterr().err

    def test_reports_identical_across_backends(self, in_tmp, capsys):
        jsonl = str(in_tmp / "smoke.jsonl")
        sqlite = f"sqlite:{in_tmp / 'smoke.db'}"
        self._run(in_tmp, jsonl)
        self._run(in_tmp, sqlite)
        capsys.readouterr()
        outputs = []
        for store in (jsonl, sqlite):
            assert main(["campaign", "report", "--spec", "smoke",
                         "--store", store, "--fit"]) == 0
            out = capsys.readouterr().out
            # drop the title line naming the store file
            outputs.append("\n".join(out.splitlines()[1:]))
        assert outputs[0] == outputs[1]

    def test_report_fit_prints_verdicts(self, in_tmp, capsys):
        """A spec with >= 3 ring sizes gets real shape verdicts."""
        spec = get_spec("table2-fsync")
        spec.grid["seed"] = [0]
        for variant in spec.variants:
            variant["grid"]["ring_size"] = variant["grid"]["ring_size"][:3]
        spec_path = in_tmp / "t2.json"
        spec_path.write_text(json.dumps(spec.to_dict()))
        store = f"sqlite:{in_tmp / 't2.db'}"
        assert main(["campaign", "run", "--spec-file", str(spec_path),
                     "--store", store, "--workers", "1", "--no-report"]) == 0
        capsys.readouterr()
        assert main(["campaign", "report", "--spec-file", str(spec_path),
                     "--store", store, "--fit"]) == 0
        out = capsys.readouterr().out
        assert "complexity-shape fits" in out
        assert "(R^2:" in out

    def test_export_csv(self, in_tmp, capsys):
        store = f"sqlite:{in_tmp / 'smoke.db'}"
        self._run(in_tmp, store)
        capsys.readouterr()
        out_path = in_tmp / "smoke.csv"
        assert main(["campaign", "export", "--spec", "smoke",
                     "--store", store, "--out", str(out_path)]) == 0
        assert "exported 6 rows" in capsys.readouterr().out
        header = out_path.read_text().splitlines()[0]
        assert header.startswith("key,elapsed_s,error,config_algorithm")

    def test_export_without_store_fails(self, in_tmp, capsys):
        assert main(["campaign", "export", "--spec", "smoke",
                     "--out", str(in_tmp / "x.csv")]) == 1
        assert "no result store" in capsys.readouterr().err


class TestReportReduceAndScatter:
    """The --reduce switch and per-seed scatter rows on campaign report."""

    def _seeded_store(self, in_tmp):
        spec = get_spec("smoke")
        spec.grid["seed"] = [0, 1, 2]
        spec.variants = spec.variants[:1]
        spec_path = in_tmp / "r.json"
        spec_path.write_text(json.dumps(spec.to_dict()))
        store = f"sqlite:{in_tmp / 'r.db'}"
        assert main(["campaign", "run", "--spec-file", str(spec_path),
                     "--store", store, "--workers", "1", "--no-report"]) == 0
        return spec_path, store

    def test_reduce_switch_changes_the_fit_series(self, in_tmp, capsys):
        spec_path, store = self._seeded_store(in_tmp)
        capsys.readouterr()
        assert main(["campaign", "report", "--spec-file", str(spec_path),
                     "--store", store, "--fit", "--reduce", "p90"]) == 0
        out = capsys.readouterr().out
        assert "p90 per size" in out

    def test_scatter_prints_per_seed_rows(self, in_tmp, capsys):
        spec_path, store = self._seeded_store(in_tmp)
        capsys.readouterr()
        assert main(["campaign", "report", "--spec-file", str(spec_path),
                     "--store", store, "--scatter"]) == 0
        out = capsys.readouterr().out
        assert "per-seed scatter" in out
        for seed in (0, 1, 2):
            assert f"seed={seed}" in out
        assert "rounds=" in out and "total_moves=" in out
