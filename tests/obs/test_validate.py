"""Span-trace validation rules (the importable check_spans logic)."""

from __future__ import annotations

import json

from repro.obs.spans import SPAN_SCHEMA
from repro.obs.validate import check_span_records, check_spans, main


def span(span_id="s1", *, kind="campaign", parent=None, **overrides):
    base = {
        "schema": SPAN_SCHEMA, "span_id": span_id, "parent_id": parent,
        "kind": kind, "name": "x", "start_s": 100.0, "elapsed_s": 1.0,
        "status": "ok", "attrs": {},
    }
    base.update(overrides)
    return base


def valid_trace():
    return [
        span("a", kind="campaign"),
        span("b", kind="chunk", parent="a"),
        span("c", kind="cell", parent="b"),
    ]


class TestRecords:
    def test_valid_trace_passes(self):
        assert check_span_records(
            valid_trace(), require_kinds=("campaign", "chunk", "cell")) == []

    def test_missing_keys(self):
        bad = span("a")
        del bad["attrs"]
        problems = check_span_records([bad])
        assert problems == ["span 1: missing keys ['attrs']"]

    def test_vocabulary_and_value_checks(self):
        problems = check_span_records([
            span("a", schema=99),
            span("b", kind="galaxy"),
            span("c", status="meh"),
            span("d", elapsed_s=-1.0),
            span("e", start_s=0),
            span("f", attrs=[]),
        ])
        assert len(problems) == 6
        assert any("schema" in p for p in problems)
        assert any("unknown kind 'galaxy'" in p for p in problems)
        assert any("unknown status 'meh'" in p for p in problems)
        assert any("bad elapsed_s" in p for p in problems)
        assert any("bad start_s" in p for p in problems)
        assert any("attrs is not an object" in p for p in problems)

    def test_duplicate_span_id(self):
        problems = check_span_records([span("a"), span("a")])
        assert any("duplicate span_id 'a'" in p for p in problems)

    def test_parent_kind_hierarchy(self):
        # a cell hanging directly off a campaign is a broken tree
        problems = check_span_records([
            span("a", kind="campaign"),
            span("c", kind="cell", parent="a"),
        ])
        assert any("expected chunk" in p for p in problems)

    def test_dangling_parent_is_not_an_error(self):
        # fleets split traces across sinks: an absent parent is fine
        assert check_span_records(
            [span("b", kind="chunk", parent="elsewhere")]) == []

    def test_require_kinds(self):
        problems = check_span_records(
            [span("a")], require_kinds=("campaign", "cell"))
        assert problems == ["no 'cell' span in the trace"]

    def test_labelled_records(self):
        problems = check_span_records([("line 7", span("a", schema=0))])
        assert problems[0].startswith("span line 7:")


class TestFile:
    def test_valid_file(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        path.write_text(
            "\n".join(json.dumps(s) for s in valid_trace()) + "\n\n")
        assert check_spans(path, require_kinds=("campaign",)) == []

    def test_line_numbers_in_problems(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        path.write_text("not json\n" + json.dumps(span("a", schema=0)) + "\n")
        problems = check_spans(path)
        assert any(p.startswith("line 1: not JSON") for p in problems)
        assert any(p.startswith("line 2: schema") for p in problems)


class TestScript:
    """``python -m repro.obs.validate`` — the CI observability lane's check."""

    def test_valid_trace_exits_0(self, tmp_path, capsys):
        path = tmp_path / "spans.jsonl"
        path.write_text("\n".join(json.dumps(s) for s in valid_trace()))
        assert main([str(path), "--require-kinds", "campaign,chunk,cell"]) == 0
        assert "trace valid: 3 spans" in capsys.readouterr().out

    def test_problems_exit_1_on_stderr(self, tmp_path, capsys):
        path = tmp_path / "spans.jsonl"
        path.write_text(json.dumps(span("a", kind="campaign")) + "\n")
        assert main([str(path), "--require-kinds", "cell"]) == 1
        assert "no 'cell' span" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path):
        assert main([str(tmp_path / "absent.jsonl")]) == 2
