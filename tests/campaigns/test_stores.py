"""Pluggable store backends: URIs, SQLite, round-trips, concurrency, export."""

import csv
import gc
import json
import multiprocessing
import os
import sqlite3

import pytest

from repro.campaigns import (
    CampaignSpec,
    CellConfig,
    JsonlStore,
    SqliteStore,
    export_store,
    open_store,
    run_cells,
)
from repro.campaigns.stores import ResultStore, export_columns
from repro.core.errors import ConfigurationError


def rec(key, n=8, seed=0, rounds=3, **extra):
    return {
        "key": key,
        "config": {"ring_size": n, "seed": seed, "algorithm": "unconscious",
                   "label": "t", "flipped": [], "bound": None},
        "metrics": {"rounds": rounds, "explored": True, "total_moves": rounds,
                    "exploration_round": rounds, "all_terminated": False,
                    "last_termination_round": None, "mode": "unconscious"},
        **extra,
    }


def small_spec(seeds=(0, 1, 2)) -> CampaignSpec:
    return CampaignSpec(
        name="stores-test",
        base={"algorithm": "unconscious", "horizon": "100 * n",
              "stop_on_exploration": True, "placement": "offset-spread"},
        grid={"ring_size": [6, 8], "seed": list(seeds)},
    )


class TestOpenStore:
    def test_scheme_selects_backend(self, tmp_path):
        assert isinstance(open_store(f"jsonl:{tmp_path}/r.jsonl"), JsonlStore)
        assert isinstance(open_store(f"sqlite:{tmp_path}/r.db"), SqliteStore)

    def test_bare_path_sniffs_suffix(self, tmp_path):
        assert isinstance(open_store(tmp_path / "r.jsonl"), JsonlStore)
        assert isinstance(open_store(tmp_path / "r.db"), SqliteStore)
        assert isinstance(open_store(tmp_path / "r.sqlite3"), SqliteStore)
        assert isinstance(open_store(tmp_path / "no-suffix"), JsonlStore)

    def test_instance_passes_through(self, tmp_path):
        store = SqliteStore(tmp_path / "r.db")
        assert open_store(store) is store

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown store scheme"):
            open_store("mongo:results/r")

    def test_empty_path_rejected(self):
        with pytest.raises(ConfigurationError, match="missing a path"):
            open_store("sqlite:")

    def test_uri_round_trips(self, tmp_path):
        store = open_store(f"sqlite:{tmp_path}/r.db")
        assert open_store(store.uri()).path == store.path


class TestSqliteStore:
    def test_append_and_read_back(self, tmp_path):
        store = SqliteStore(tmp_path / "r.db")
        store.append(rec("a"))
        store.append(rec("b"))
        assert [r["key"] for r in store.records()] == ["a", "b"]
        assert store.completed_keys() == {"a", "b"}
        assert len(store) == 2 and "a" in store

    def test_error_records_are_not_completed(self, tmp_path):
        store = SqliteStore(tmp_path / "r.db")
        store.append(rec("ok"))
        store.append({"key": "bad", "config": {}, "error": "boom"})
        assert store.completed_keys() == {"ok"}
        assert "bad" not in store
        assert len(store) == 2  # the failure is still on record

    def test_missing_file_is_empty_and_not_created_by_reads(self, tmp_path):
        store = SqliteStore(tmp_path / "absent.db")
        assert list(store.records()) == []
        assert store.completed_keys() == set()
        assert len(store) == 0
        assert not store.path.exists()  # reads never create the database

    def test_creates_parent_directories(self, tmp_path):
        store = SqliteStore(tmp_path / "deep" / "er" / "r.db")
        store.append(rec("a"))
        assert store.path.exists()

    def test_completed_cache_tracks_appends(self, tmp_path):
        store = SqliteStore(tmp_path / "r.db")
        assert store.completed_keys() == set()
        store.append(rec("a"))
        assert store.completed_keys() == {"a"}
        store.append_many([rec("b"), {"key": "err", "config": {}, "error": "x"}])
        assert store.completed_keys() == {"a", "b"}

    def test_campaign_scoping(self, tmp_path):
        path = tmp_path / "shared.db"
        SqliteStore(path, campaign="alpha").append(rec("a"))
        SqliteStore(path, campaign="beta").append(rec("b"))
        assert SqliteStore(path, campaign="alpha").completed_keys() == {"a"}
        assert SqliteStore(path, campaign="beta").completed_keys() == {"b"}
        # no campaign tag -> the whole database
        assert SqliteStore(path).completed_keys() == {"a", "b"}

    def test_completed_keys_is_one_indexed_query(self, tmp_path):
        store = SqliteStore(tmp_path / "r.db")
        store.append_many([rec("a"), rec("b")])
        plan = store._connect().execute(
            "EXPLAIN QUERY PLAN "
            "SELECT DISTINCT cell_key FROM results WHERE ok = 1"
        ).fetchall()
        assert any("ix_results_cell_key" in row[-1] for row in plan)

    def test_completed_among_probes_cell_key_index_not_campaign_scan(
            self, tmp_path):
        """The worker's per-chunk check must look its keys up, not scan
        the campaign: with a plain ``campaign_key = ?`` the planner picks
        ix_results_campaign_key, whose cost grows with the store."""
        store = SqliteStore(tmp_path / "r.db", campaign="alpha")
        store.append_many([rec(f"k{i}") for i in range(200)])
        sql, params = store._completed_sql(["k1", "k2"])
        plan = " | ".join(row[-1] for row in store._connect().execute(
            "EXPLAIN QUERY PLAN " + sql, params))
        assert "ix_results_cell_key" in plan
        assert "ix_results_campaign_key" not in plan

    @pytest.mark.parametrize("backend", ["sqlite", "jsonl"])
    def test_completed_among_is_scoped_ok_only_and_fresh(
            self, tmp_path, backend):
        path = tmp_path / ("shared.db" if backend == "sqlite" else "r.jsonl")
        store = open_store(f"{backend}:{path}", campaign="alpha")
        store.append_many([rec("a"), rec("b"),
                           {"key": "err", "config": {}, "error": "x"}])
        if backend == "sqlite":
            SqliteStore(path, campaign="beta").append(rec("c"))
        assert store.completed_keys(among=["a", "c", "err", "zz"]) == {"a"}
        assert store.completed_keys(among=[]) == set()
        # never served from (or stored into) the cache: an out-of-band
        # writer is seen at once, and the full set still reloads whole
        assert store.completed_keys() == {"a", "b"}
        open_store(f"{backend}:{path}", campaign="alpha").append(rec("d"))
        assert store.completed_keys(among=["d"]) == {"d"}
        assert store.completed_keys() == {"a", "b"}

    def test_select_pushdown_matches_python_filter(self, tmp_path):
        store = SqliteStore(tmp_path / "r.db")
        store.append_many(
            [rec(f"k{n}-{s}", n=n, seed=s) for n in (6, 8) for s in (0, 1)]
        )
        sql_keys = [r["key"] for r in store.select({"ring_size": 8})]
        py_keys = [r["key"] for r in store.records()
                   if r["config"]["ring_size"] == 8]
        assert sql_keys == py_keys == ["k8-0", "k8-1"]
        # membership, None, bool and residual (callable) filters
        assert [r["key"] for r in store.select({"seed": [1]})] == ["k6-1", "k8-1"]
        assert len(list(store.select({"bound": None}))) == 4
        assert [r["key"] for r in
                store.select({"ring_size": lambda v: v > 6})] == ["k8-0", "k8-1"]

    def test_malformed_sql_dimension_rejected(self, tmp_path):
        store = SqliteStore(tmp_path / "r.db")
        store.append(rec("a"))
        with pytest.raises(ConfigurationError, match="bad filter dimension"):
            list(store.select({"ring_size'); DROP TABLE results; --": 1}))


def _append_worker(args):
    path, worker_id, count = args
    store = SqliteStore(path)
    for i in range(count):
        store.append(rec(f"w{worker_id}-{i}"))
    store.close()
    return worker_id


def _report_quarantine(queue):
    from repro.campaigns.stores import sqlite as sqlite_mod

    stores = list(sqlite_mod._LIVE_STORES)
    queue.put((len(sqlite_mod._QUARANTINED_CONNECTIONS),
               all(s._conn is None for s in stores)))


class TestConcurrency:
    def test_concurrent_appends_from_processes(self, tmp_path):
        """Several processes hammer one database; nothing is lost."""
        path = tmp_path / "concurrent.db"
        SqliteStore(path).append(rec("seed-record"))  # create the schema
        workers, per_worker = 4, 25
        with multiprocessing.Pool(processes=workers) as pool:
            done = pool.map(
                _append_worker,
                [(str(path), w, per_worker) for w in range(workers)],
            )
        assert sorted(done) == list(range(workers))
        store = SqliteStore(path)
        assert len(store) == workers * per_worker + 1
        expected = {f"w{w}-{i}" for w in range(workers) for i in range(per_worker)}
        assert expected <= store.completed_keys()

    def test_fork_children_quarantine_inherited_connections(self, tmp_path):
        """A child must never finalize (close) a connection it inherited:
        SQLite's close path can drop POSIX locks / reset the WAL under a
        sibling's healthy connection, losing committed records.  The
        after-fork hook pins inherited connections instead."""
        parent = SqliteStore(tmp_path / "q.db")
        parent.append(rec("parent"))          # parent now holds a connection
        ctx = multiprocessing.get_context("fork")
        queue = ctx.SimpleQueue()
        proc = ctx.Process(target=_report_quarantine, args=(queue,))
        proc.start()
        quarantined, conn_is_none = queue.get()
        proc.join(timeout=30)
        assert quarantined >= 1                # the inherited conn is pinned
        assert conn_is_none                    # ...and detached from the store
        parent.append(rec("parent-2"))         # the parent conn is untouched
        assert SqliteStore(tmp_path / "q.db").completed_keys() == {
            "parent", "parent-2"}

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="needs /proc to list open files")
    def test_dropped_store_closes_its_connection(self, tmp_path):
        """sqlite3 connections are freed only by the cyclic GC; a store
        must not leave its file open for a later fork() to inherit."""
        path = tmp_path / "dropped.db"

        def open_files():
            names = []
            for fd in os.listdir("/proc/self/fd"):
                try:
                    names.append(os.readlink(f"/proc/self/fd/{fd}"))
                except OSError:             # the listing's own descriptor
                    pass
            return [name for name in names if name.startswith(str(path))]

        gc.disable()
        try:
            SqliteStore(path).append(rec("a"))
            assert open_files() == []
        finally:
            gc.enable()

    def test_connection_not_shared_across_fork(self, tmp_path):
        """A store instance created pre-fork reopens in the child."""
        path = tmp_path / "fork.db"
        parent = SqliteStore(path)
        parent.append(rec("parent"))
        ctx = multiprocessing.get_context()
        with ctx.Pool(processes=1) as pool:
            pool.map(_append_worker, [(str(path), 9, 1)])
        parent.append(rec("parent-2"))  # parent connection still healthy
        assert SqliteStore(path).completed_keys() == {
            "parent", "parent-2", "w9-0"}


class TestBackendEquivalence:
    def test_same_campaign_same_records(self, tmp_path):
        """Byte-identical records and aggregates out of both backends."""
        jsonl = JsonlStore(tmp_path / "r.jsonl")
        sqlite = SqliteStore(tmp_path / "r.db")
        cells = small_spec().cell_list()
        run_cells(cells, jsonl, workers=1)
        run_cells(cells, sqlite, workers=1)
        def comparable(store):
            # identical up to wall-clock timing, which is not data
            return {r["key"]: {k: v for k, v in r.items() if k != "elapsed_s"}
                    for r in store.records()}

        assert comparable(jsonl) == comparable(sqlite)
        assert ([str(r) for r in jsonl.query().table()]
                == [str(r) for r in sqlite.query().table()])

    def test_jsonl_to_sqlite_round_trip(self, tmp_path):
        jsonl = JsonlStore(tmp_path / "r.jsonl")
        run_cells(small_spec().cell_list(), jsonl, workers=1)
        sqlite = SqliteStore(tmp_path / "copy.db")
        sqlite.append_many(list(jsonl.records()))
        back = JsonlStore(tmp_path / "back.jsonl")
        back.append_many(list(sqlite.records()))
        assert list(back.records()) == list(jsonl.records())

    def test_resume_after_kill(self, tmp_path):
        """Partial sqlite store + torn write artifact: resume recomputes
        only what is missing, exactly like the JSONL backend."""
        path = tmp_path / "r.db"
        cells = small_spec().cell_list()
        run_cells(cells[:3], SqliteStore(path), workers=1)
        # a kill mid-transaction leaves no partial rows (transactions are
        # atomic); simulate the failed-cell case instead
        SqliteStore(path).append(
            {"key": cells[3].key(), "config": cells[3].to_dict(),
             "error": "KilledMidRun"})
        resumed = run_cells(cells, SqliteStore(path), workers=1,
                            retry_failed=True)
        assert resumed.skipped == 3          # completed cells stay done
        assert resumed.executed == 3         # the failed one is re-driven
        assert SqliteStore(path).completed_keys() == {c.key() for c in cells}
        # without the flag the error record counts as attempted
        plain = run_cells(cells, SqliteStore(path), workers=1)
        assert plain.executed == 0 and plain.skipped == len(cells)

    def test_run_cells_accepts_any_backend(self, tmp_path):
        run = run_cells(small_spec(seeds=(0,)).cells(),
                        open_store(f"sqlite:{tmp_path}/r.db"), workers=1)
        assert run.executed == 2 and run.failed == 0


class TestExport:
    def _seeded_store(self, tmp_path) -> ResultStore:
        store = SqliteStore(tmp_path / "r.db")
        run_cells(small_spec(seeds=(0,)).cells(), store, workers=1)
        store.append({"key": "bad", "config": {"ring_size": 6}, "error": "boom"})
        return store

    def test_csv_schema_and_rows(self, tmp_path):
        store = self._seeded_store(tmp_path)
        result = export_store(store, tmp_path / "out.csv")
        assert result.format == "csv" and result.rows == 3
        with result.path.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        header = list(rows[0])
        assert header == list(result.columns)
        assert header[:3] == ["key", "elapsed_s", "error"]
        assert "config_ring_size" in header and "metric_rounds" in header
        # config columns appear in CellConfig declaration order
        assert header.index("config_algorithm") < header.index("config_ring_size")
        # list-valued config fields are JSON-encoded
        assert json.loads(rows[0]["config_flipped"]) == []
        # error records keep their row, with metrics empty
        error_row = next(r for r in rows if r["key"] == "bad")
        assert error_row["error"] == "boom" and error_row["metric_rounds"] == ""

    def test_export_columns_is_the_declared_schema(self, tmp_path):
        store = self._seeded_store(tmp_path)
        records = list(store.records())
        result = export_store(store, tmp_path / "out.csv")
        assert list(result.columns) == export_columns(records)

    def test_where_filter_applies(self, tmp_path):
        store = self._seeded_store(tmp_path)
        result = export_store(store, tmp_path / "six.csv",
                              where={"ring_size": 8})
        assert result.rows == 1

    def test_parquet_without_pyarrow_fails_loudly(self, tmp_path):
        from repro.campaigns.stores import parquet_available

        store = self._seeded_store(tmp_path)
        if parquet_available():
            result = export_store(store, tmp_path / "out.parquet")
            assert result.format == "parquet" and result.rows == 3
        else:
            with pytest.raises(ConfigurationError, match="pyarrow"):
                export_store(store, tmp_path / "out.parquet")

    def test_unknown_format_rejected(self, tmp_path):
        store = self._seeded_store(tmp_path)
        with pytest.raises(ConfigurationError, match="unknown export format"):
            export_store(store, tmp_path / "out.xyz", format="xyz")


class TestDurability:
    def test_sqlite_is_wal_mode(self, tmp_path):
        store = SqliteStore(tmp_path / "r.db")
        store.append(rec("a"))
        (mode,) = store._connect().execute("PRAGMA journal_mode").fetchone()
        assert mode == "wal"

    def test_raw_rows_carry_indexed_columns(self, tmp_path):
        store = SqliteStore(tmp_path / "r.db", campaign="camp")
        store.append(rec("good"))
        store.append({"key": "bad", "config": {}, "error": "x"})
        with sqlite3.connect(store.path) as conn:
            rows = conn.execute(
                "SELECT cell_key, campaign_key, ok FROM results ORDER BY id"
            ).fetchall()
        assert rows == [("good", "camp", 1), ("bad", "camp", 0)]


class TestSchemaEvolution:
    def test_default_topology_keeps_pre_split_keys(self):
        """Cells with defaulted new fields hash exactly as the original
        schema did, so stores written before the split keep resuming."""
        import hashlib

        cell = CellConfig(algorithm="unconscious", ring_size=8, max_rounds=100,
                          seed=3, placement="offset-spread",
                          stop_on_exploration=True)
        legacy_fields = {  # the PR-1 field set, defaults filled in
            "algorithm": "unconscious", "ring_size": 8, "max_rounds": 100,
            "agents": 2, "seed": 3, "adversary": "random",
            "scheduler": "auto", "transport": "ns", "landmark": None,
            "chirality": True, "flipped": [], "placement": "offset-spread",
            "positions": None, "bound": None, "edge": 0,
            "stop_on_exploration": True,
        }
        legacy_key = hashlib.sha256(
            json.dumps(legacy_fields, sort_keys=True,
                       separators=(",", ":")).encode()
        ).hexdigest()[:24]
        assert cell.key() == legacy_key

    def test_non_default_new_fields_change_the_key(self):
        base = CellConfig(algorithm="random-walk", ring_size=9, max_rounds=100)
        assert (CellConfig(algorithm="random-walk", ring_size=9,
                           max_rounds=100, topology="path").key()
                != base.key())
        assert (CellConfig(algorithm="random-walk", ring_size=9,
                           max_rounds=100, adversary_arg=4).key()
                != base.key())


class TestWrongBackendFile:
    def test_sqlite_refuses_a_jsonl_file(self, tmp_path):
        path = tmp_path / "masquerade.db"
        JsonlStore(path).append(rec("a"))  # a JSONL file under a .db name
        store = SqliteStore(path)
        with pytest.raises(ConfigurationError, match="not a SQLite database"):
            list(store.records())
        with pytest.raises(ConfigurationError, match="jsonl:"):
            store.append(rec("b"))
        # and the original file is untouched
        assert JsonlStore(path).completed_keys() == {"a"}


class TestCampaignAdoption:
    def test_open_store_adopts_campaign_onto_untagged_instance(self, tmp_path):
        """Results written through an API-constructed store must be
        visible to the CLI's campaign-scoped reads (and vice versa)."""
        from repro.campaigns import run_campaign, get_spec

        path = tmp_path / "x.db"
        run = run_campaign(get_spec("smoke"), SqliteStore(path), workers=1)
        assert run.executed == 24
        scoped = SqliteStore(path, campaign="smoke")
        assert len(scoped.completed_keys()) == 24
        # and the same instance now resumes instead of re-running
        rerun = run_campaign(get_spec("smoke"), SqliteStore(path), workers=1)
        assert rerun.skipped == 24 and rerun.executed == 0

    def test_explicitly_tagged_instance_wins(self, tmp_path):
        store = SqliteStore(tmp_path / "x.db", campaign="mine")
        assert open_store(store, campaign="other").campaign == "mine"
