"""Span-trace validation: schema, vocabularies, hierarchy, duplicates.

Every check the CI observability lane runs over a ``REPRO_TRACE_JSONL``
file, available to library callers too — ``campaign trace`` validates
the spans it is about to analyse, and the unit tests exercise each rule
directly.  As a script::

    python -m repro.obs.validate spans.jsonl [--require-kinds campaign,chunk,cell]

exits 1 on any problem (printed to stderr), 2 when the file is missing.

Two entry points:

* :func:`check_span_records` — validate an in-memory sequence of span
  dicts (whatever :meth:`SqliteStore.spans` or a parsed JSONL file
  yields);
* :func:`check_spans` — parse and validate a JSONL trace file (the
  historical script behaviour, including per-line JSON errors).

Both return a list of human-readable problem strings; an empty list
means the trace is valid.  Parent-kind checks apply only when the
referenced parent appears in the same span set: a multi-process fleet
may split one trace across sinks, so a dangling ``parent_id`` is not by
itself an error.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .spans import SPAN_KINDS, SPAN_SCHEMA

__all__ = [
    "PARENT_KIND",
    "REQUIRED_KEYS",
    "STATUSES",
    "check_span_records",
    "check_spans",
]

REQUIRED_KEYS = frozenset({
    "schema", "span_id", "parent_id", "kind", "name",
    "start_s", "elapsed_s", "status", "attrs",
})
STATUSES = frozenset({"ok", "error"})
#: Which parent kind each child kind must hang off (None = root allowed).
PARENT_KIND = {"campaign": None, "chunk": "campaign", "cell": "chunk"}


def check_span_records(
    records: Iterable[tuple[object, Mapping]] | Iterable[Mapping],
    require_kinds: Sequence[str] = (),
) -> list[str]:
    """Every problem found in a span set (empty list = valid).

    ``records`` is either a sequence of span dicts or of ``(label,
    span)`` pairs; the label (a line number, an index) prefixes each
    problem so a file-based caller can point at the offending line.
    """
    problems: list[str] = []
    spans: dict[str, Mapping] = {}
    rows: list[tuple[object, Mapping]] = []
    for item in records:
        if isinstance(item, tuple):
            label, span = item
        else:
            label, span = len(rows) + 1, item
        missing = REQUIRED_KEYS - span.keys()
        if missing:
            problems.append(
                f"span {label}: missing keys {sorted(missing)}")
            continue
        if span["schema"] != SPAN_SCHEMA:
            problems.append(
                f"span {label}: schema {span['schema']!r} != {SPAN_SCHEMA}")
        if span["kind"] not in SPAN_KINDS:
            problems.append(
                f"span {label}: unknown kind {span['kind']!r}")
        if span["status"] not in STATUSES:
            problems.append(
                f"span {label}: unknown status {span['status']!r}")
        if not isinstance(span["elapsed_s"], (int, float)) \
                or span["elapsed_s"] < 0:
            problems.append(
                f"span {label}: bad elapsed_s {span['elapsed_s']!r}")
        if not isinstance(span["start_s"], (int, float)) \
                or span["start_s"] <= 0:
            problems.append(
                f"span {label}: bad start_s {span['start_s']!r}")
        if not isinstance(span["attrs"], dict):
            problems.append(
                f"span {label}: attrs is not an object")
        if span["span_id"] in spans:
            problems.append(
                f"span {label}: duplicate span_id {span['span_id']!r}")
        spans[span["span_id"]] = span
        rows.append((label, span))

    for label, span in rows:
        parent = spans.get(span["parent_id"] or "")
        if parent is not None:
            want = PARENT_KIND.get(span["kind"])
            if want is not None and parent["kind"] != want:
                problems.append(
                    f"span {label}: {span['kind']} span "
                    f"{span['span_id']} hangs off a {parent['kind']} "
                    f"span (expected {want})")

    kinds = Counter(span["kind"] for _, span in rows)
    for kind in require_kinds:
        if not kinds.get(kind):
            problems.append(f"no {kind!r} span in the trace")
    return problems


def check_spans(path: Path, require_kinds: Sequence[str] = ()) -> list[str]:
    """Parse and validate a span JSONL file (empty list = valid trace)."""
    records: list[tuple[object, Mapping]] = []
    problems: list[str] = []
    for lineno, line in enumerate(
            Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            span = json.loads(line)
        except json.JSONDecodeError as exc:
            problems.append(f"line {lineno}: not JSON ({exc})")
            continue
        records.append((f"line {lineno}", span))
    problems.extend(check_span_records(records, require_kinds))
    # File callers historically read "line N: ..." with no extra prefix.
    return [p.replace("span line ", "line ") for p in problems]


def main(argv: Sequence[str] | None = None) -> int:
    """Validate one trace file; the exit status is the verdict."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.validate",
        description="Validate a span trace JSONL file.")
    parser.add_argument("trace", type=Path, help="span JSONL file")
    parser.add_argument("--require-kinds", default="", metavar="K1,K2",
                        help="comma-separated span kinds that must appear "
                             "at least once (e.g. campaign,chunk,cell)")
    args = parser.parse_args(argv)
    if not args.trace.exists():
        print(f"no trace file at {args.trace}", file=sys.stderr)
        return 2
    require = [k.strip() for k in args.require_kinds.split(",") if k.strip()]
    problems = check_spans(args.trace, require)
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        return 1
    spans = sum(1 for line in args.trace.read_text().splitlines()
                if line.strip())
    print(f"trace valid: {spans} spans"
          + (f" (kinds required: {', '.join(require)})" if require else ""))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
