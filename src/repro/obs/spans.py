"""Structured span tracing: the fleet-level sibling of ``core/trace.py``.

Where :mod:`repro.core.trace` records *model* events (one simulated
agent looking or moving inside one engine), spans record *system*
events: a campaign session on a worker, a claimed chunk, one executed
cell — each with an id, a parent id, wall-clock timings, and the
worker/host/route context needed to correlate a record in the result
store with the process that produced it.

Hierarchy (``kind`` vocabulary)::

    campaign            one run/worker session of a campaign
      └─ chunk          one claimed chunk: claim → execute → commit
                        (every mode runs the same loop)
           └─ cell      one executed cell (route=batch|scalar)

Spans are emitted to one or more sinks when they close:

* :class:`JsonlSpanSink` — one JSON object per line, appended with a
  single ``write`` on a line-buffered append-mode handle so concurrent
  pool workers can share one file.
* :class:`StoreSpanSink` — buffers spans and flushes them into the
  SQLite store's ``spans`` table (see ``stores/sqlite.py``); the
  distributed worker flushes after every chunk completion.

Like metrics, tracing is environment-gated so forked workers inherit
it: ``REPRO_TRACE_JSONL=<path>`` adds a JSONL sink and ``REPRO_TRACE=1``
adds a store sink (when the store supports it).  The ``campaign
--trace/--trace-jsonl`` flags set these before any worker starts.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
import uuid
from contextlib import contextmanager
from typing import Callable, Iterator

__all__ = [
    "SPAN_KINDS",
    "SPAN_SCHEMA",
    "JsonlSpanSink",
    "SpanHandle",
    "SpanRecorder",
    "StoreSpanSink",
    "close_recorder",
    "ensure_recorder",
    "flush",
    "install",
    "new_span_id",
    "recorder",
    "tracing_requested",
]

SPAN_SCHEMA = 1
SPAN_KINDS = ("campaign", "chunk", "cell")


def new_span_id() -> str:
    return uuid.uuid4().hex[:16]


class SpanHandle:
    """Mutable view of an open span, yielded by :meth:`SpanRecorder.span`."""

    __slots__ = ("span_id", "attrs", "status")

    def __init__(self, span_id: str) -> None:
        self.span_id = span_id
        self.attrs: dict = {}
        self.status = "ok"


class SpanRecorder:
    """Builds the span tree for one process and emits closed spans.

    The parent of a new span defaults to the innermost open span in
    this recorder (an explicit ``parent_id`` attr wins; :meth:`within`
    is how a pool child's cells link to the chunk span the parent
    process emits).  The stack is per-recorder and the recorder is used
    from one thread, matching how the execution loop runs.
    """

    def __init__(self, sinks: list[Callable[[dict], None]], *,
                 campaign: str = "", worker: str = "",
                 host: str | None = None) -> None:
        self._sinks = list(sinks)
        self.campaign = campaign
        self.worker = worker
        self.host = host if host is not None else socket.gethostname()
        self._stack: list[str] = []
        self._lock = threading.Lock()

    @contextmanager
    def span(self, kind: str, name: str,
             **attrs) -> Iterator[SpanHandle]:
        parent_id = attrs.pop("parent_id", None)
        if parent_id is None and self._stack:
            parent_id = self._stack[-1]
        handle = SpanHandle(new_span_id())
        handle.attrs.update(attrs)
        start_s = time.time()
        t0 = time.perf_counter()
        self._stack.append(handle.span_id)
        try:
            yield handle
        except BaseException as exc:
            handle.status = "error"
            handle.attrs.setdefault("error", type(exc).__name__)
            raise
        finally:
            self._stack.pop()
            self.emit(kind, name, span_id=handle.span_id,
                      parent_id=parent_id, start_s=start_s,
                      elapsed_s=time.perf_counter() - t0,
                      status=handle.status, attrs=handle.attrs)

    @contextmanager
    def within(self, span_id: str) -> Iterator[None]:
        """Parent the spans opened inside to ``span_id``: a span its
        owner emits once it closes (the execution loop's chunk span,
        which must also cover the commit after its cells ran)."""
        self._stack.append(span_id)
        try:
            yield
        finally:
            self._stack.pop()

    def emit(self, kind: str, name: str, *, span_id: str | None = None,
             parent_id: str | None = None, start_s: float | None = None,
             elapsed_s: float | None = None, status: str = "ok",
             attrs: dict | None = None) -> str:
        """Emit a closed span directly (used for batched cells, whose
        per-cell timings are reconstructed after the vector run)."""
        if parent_id is None and self._stack:
            parent_id = self._stack[-1]
        span = {
            "schema": SPAN_SCHEMA,
            "span_id": span_id or new_span_id(),
            "parent_id": parent_id,
            "kind": kind,
            "name": name,
            "campaign": self.campaign,
            "worker": self.worker,
            "host": self.host,
            "start_s": start_s if start_s is not None else time.time(),
            "elapsed_s": elapsed_s,
            "status": status,
            "attrs": attrs or {},
        }
        with self._lock:
            for sink in self._sinks:
                sink(span)
        return span["span_id"]

    def flush(self) -> None:
        with self._lock:
            for sink in self._sinks:
                flush_fn = getattr(sink, "flush", None)
                if flush_fn is not None:
                    flush_fn()

    def close(self) -> None:
        self.flush()
        with self._lock:
            for sink in self._sinks:
                close_fn = getattr(sink, "close", None)
                if close_fn is not None:
                    close_fn()


class JsonlSpanSink:
    """Append spans to a JSONL file, one atomic ``write`` per span."""

    def __init__(self, path: str) -> None:
        self.path = path
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        self._fh = open(path, "a", encoding="utf-8")

    def __call__(self, span: dict) -> None:
        self._fh.write(json.dumps(span, sort_keys=True,
                                  separators=(",", ":")) + "\n")
        self._fh.flush()

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()


class StoreSpanSink:
    """Buffer spans and flush them into a store's ``spans`` table.

    The buffer keeps store writes off the per-cell path; the worker
    flushes after each chunk (and the sink self-flushes past
    ``max_buffer`` so unbounded chunks cannot hoard memory).
    """

    def __init__(self, store, *, max_buffer: int = 256) -> None:
        if not hasattr(store, "append_spans"):
            raise TypeError(
                f"store {type(store).__name__} cannot persist spans "
                "(no append_spans); use the SQLite backend or a JSONL sink")
        self.store = store
        self.max_buffer = max_buffer
        self._buffer: list[dict] = []

    def __call__(self, span: dict) -> None:
        self._buffer.append(span)
        if len(self._buffer) >= self.max_buffer:
            self.flush()

    def flush(self) -> None:
        if self._buffer:
            buffered, self._buffer = self._buffer, []
            self.store.append_spans(buffered)

    def close(self) -> None:
        self.flush()


# --------------------------------------------------------------------------
# Process-global recorder
# --------------------------------------------------------------------------

_RECORDER: SpanRecorder | None = None
_LOCK = threading.Lock()


def recorder() -> SpanRecorder | None:
    return _RECORDER


def install(rec: SpanRecorder | None) -> None:
    global _RECORDER
    with _LOCK:
        _RECORDER = rec


def tracing_requested() -> bool:
    return bool(os.environ.get("REPRO_TRACE_JSONL")) or \
        os.environ.get("REPRO_TRACE") == "1"


def ensure_recorder(store=None, *, campaign: str = "",
                    worker: str = "") -> SpanRecorder | None:
    """Install (or return) the process recorder per the environment.

    Returns None when tracing is not requested, or when the only
    requested sink is the store and this ``store`` cannot persist spans.
    """
    global _RECORDER
    with _LOCK:
        if _RECORDER is not None:
            if campaign and not _RECORDER.campaign:
                _RECORDER.campaign = campaign
            if worker and not _RECORDER.worker:
                _RECORDER.worker = worker
            return _RECORDER
        sinks: list[Callable[[dict], None]] = []
        jsonl_path = os.environ.get("REPRO_TRACE_JSONL")
        if jsonl_path:
            sinks.append(JsonlSpanSink(jsonl_path))
        if os.environ.get("REPRO_TRACE") == "1" and store is not None \
                and hasattr(store, "append_spans"):
            sinks.append(StoreSpanSink(store))
        if not sinks:
            return None
        _RECORDER = SpanRecorder(sinks, campaign=campaign, worker=worker)
        return _RECORDER


def flush() -> None:
    if _RECORDER is not None:
        _RECORDER.flush()


def close_recorder() -> None:
    global _RECORDER
    with _LOCK:
        if _RECORDER is not None:
            _RECORDER.close()
            _RECORDER = None
