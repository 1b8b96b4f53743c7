"""JSONL result store: durability, resume keys, corruption tolerance."""

import json

from repro.campaigns.stores import JsonlStore


def rec(key, **extra):
    return {"key": key, "config": {"x": 1}, "metrics": {"rounds": 3}, **extra}


class TestResultStore:
    def test_append_and_read_back(self, tmp_path):
        store = JsonlStore(tmp_path / "r.jsonl")
        store.append(rec("a"))
        store.append(rec("b"))
        assert [r["key"] for r in store.records()] == ["a", "b"]
        assert store.completed_keys() == {"a", "b"}

    def test_append_many_single_flush(self, tmp_path):
        store = JsonlStore(tmp_path / "r.jsonl")
        store.append_many([rec("a"), rec("b"), rec("c")])
        assert len(store) == 3

    def test_missing_file_is_empty(self, tmp_path):
        store = JsonlStore(tmp_path / "absent.jsonl")
        assert list(store.records()) == []
        assert store.completed_keys() == set()
        assert len(store) == 0

    def test_creates_parent_directories(self, tmp_path):
        store = JsonlStore(tmp_path / "deep" / "er" / "r.jsonl")
        store.append(rec("a"))
        assert store.path.exists()

    def test_error_records_are_not_completed(self, tmp_path):
        store = JsonlStore(tmp_path / "r.jsonl")
        store.append(rec("ok"))
        store.append({"key": "bad", "config": {}, "error": "boom"})
        assert store.completed_keys() == {"ok"}
        assert "ok" in store and "bad" not in store
        assert len(store) == 2  # the failure is still on record

    def test_truncated_final_line_is_skipped(self, tmp_path):
        path = tmp_path / "r.jsonl"
        store = JsonlStore(path)
        store.append(rec("a"))
        with path.open("a") as fh:
            fh.write(json.dumps(rec("half"))[:20])  # killed mid-write
        fresh = JsonlStore(path)
        assert fresh.completed_keys() == {"a"}

    def test_completed_cache_tracks_appends(self, tmp_path):
        store = JsonlStore(tmp_path / "r.jsonl")
        assert store.completed_keys() == set()
        store.append(rec("a"))
        assert store.completed_keys() == {"a"}
        store.append_many([rec("b"), {"key": "err", "error": "x"}])
        assert store.completed_keys() == {"a", "b"}

    def test_two_stores_share_the_file(self, tmp_path):
        path = tmp_path / "r.jsonl"
        JsonlStore(path).append(rec("a"))
        assert JsonlStore(path).completed_keys() == {"a"}
