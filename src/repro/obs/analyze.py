"""Trace analytics: the read side of the span hierarchy.

PR 7 made fleets *emit* campaign → chunk → cell spans (into the SQLite
``spans`` table, or a ``REPRO_TRACE_JSONL`` file); this module answers
the questions operators actually have about a finished (or running)
campaign — surfaced by ``python -m repro campaign trace``:

* :func:`render_tree` — the span hierarchy as an indented text tree;
* :func:`render_timeline` — a per-worker ASCII Gantt of chunk
  execution over the campaign's wall clock;
* :func:`critical_path` — wall-clock attribution (queue-wait vs claim
  vs execute vs commit, per worker session and fleet-wide) plus the
  longest chain: the latest-ending worker session, its dominant chunk,
  that chunk's dominant cell;
* :func:`stragglers` — chunks and workers ranked by deviation from the
  fleet median (steal victims and skewed hosts flagged);
* :func:`chrome_trace` — the whole tree as Chrome trace-event JSON
  (``ui.perfetto.dev`` / ``chrome://tracing`` open it directly).

Attribution model.  The execution loop
(:func:`repro.campaigns.executor.drain`) owns each chunk span end to end
(claim → execute → commit) and stamps ``claim_s`` / ``commit_s`` attrs
on it (distributed workers add ``queue_wait_s``), so for one worker
session (a ``campaign`` span):

* ``claim``   = Σ chunk ``claim_s`` (queue transaction time),
* ``commit``  = Σ chunk ``commit_s`` (the exactly-once completion txn),
* ``execute`` = Σ (chunk elapsed − claim − commit),
* ``queue-wait`` = session elapsed − Σ chunk elapsed (idle polling,
  waiting for claimable work), clamped at 0.

Summed, the four buckets reproduce each session's elapsed time exactly,
so ``coverage`` (attributed seconds / Σ session seconds) is ~1.0 on a
clean trace and drops only when sessions are missing (a crashed worker
never closes its span) — the CI lane asserts ≥ 0.9.  Pool-mode
campaigns overlap chunks freely inside one session (their claim is a
list pop, their commit the parent's append), so the summary reports the
parallelism factor as well.

The small helpers at the bottom (:func:`median`,
:func:`straggler_hint`) are shared with ``campaign status --watch``,
which renders a live one-line version of the straggler ranking.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from ..core.errors import ConfigurationError

__all__ = [
    "SpanNode",
    "build_tree",
    "chrome_trace",
    "critical_path",
    "load_spans",
    "median",
    "render_timeline",
    "render_tree",
    "straggler_hint",
    "stragglers",
]


# --------------------------------------------------------------------------
# Loading and tree building
# --------------------------------------------------------------------------

def load_spans(source: Any, *, campaign: str | None = None) -> list[dict]:
    """Spans from a store (``spans()`` method), a JSONL path, or a list.

    Returns normalized span dicts sorted by ``start_s`` — the shape
    :meth:`SqliteStore.spans` already produces; JSONL lines carry the
    same keys by construction (:class:`~repro.obs.spans.JsonlSpanSink`).
    """
    if isinstance(source, (str, Path)):
        path = Path(source)
        if not path.exists():
            raise ConfigurationError(f"no span trace at {path}")
        spans = []
        for line in path.read_text().splitlines():
            if line.strip():
                spans.append(json.loads(line))
    elif hasattr(source, "spans"):
        spans = source.spans()
    else:
        spans = list(source)
    if campaign:
        spans = [s for s in spans if s.get("campaign", campaign) == campaign]
    return sorted(spans, key=lambda s: (s.get("start_s") or 0.0,
                                        s.get("span_id") or ""))


@dataclass
class SpanNode:
    """One span plus its children (the in-memory trace tree)."""

    span: dict
    children: list["SpanNode"] = field(default_factory=list)

    @property
    def kind(self) -> str:
        return self.span.get("kind", "?")

    @property
    def start(self) -> float:
        return float(self.span.get("start_s") or 0.0)

    @property
    def elapsed(self) -> float:
        return float(self.span.get("elapsed_s") or 0.0)

    @property
    def end(self) -> float:
        return self.start + self.elapsed

    @property
    def attrs(self) -> dict:
        return self.span.get("attrs") or {}

    def walk(self) -> Iterable["SpanNode"]:
        yield self
        for child in self.children:
            yield from child.walk()


def build_tree(spans: Sequence[Mapping]) -> list[SpanNode]:
    """Root nodes of the span forest (campaign sessions, plus orphans).

    A span whose ``parent_id`` is absent *from the set* roots its own
    subtree: fleets may split one trace across sinks, so orphans are
    normal, not an error (``repro.obs.validate`` agrees).
    """
    nodes = {s["span_id"]: SpanNode(dict(s)) for s in spans}
    roots: list[SpanNode] = []
    for node in nodes.values():
        parent = nodes.get(node.span.get("parent_id") or "")
        if parent is not None and parent is not node:
            parent.children.append(node)
        else:
            roots.append(node)
    for node in nodes.values():
        node.children.sort(key=lambda n: (n.start, n.span.get("span_id", "")))
    roots.sort(key=lambda n: (n.start, n.span.get("span_id", "")))
    return roots


def _wall_clock(spans: Sequence[Mapping]) -> float:
    """Union wall clock: latest span end minus earliest span start."""
    starts = [float(s.get("start_s") or 0.0) for s in spans]
    ends = [float(s.get("start_s") or 0.0) + float(s.get("elapsed_s") or 0.0)
            for s in spans]
    return (max(ends) - min(starts)) if spans else 0.0


# --------------------------------------------------------------------------
# Text tree
# --------------------------------------------------------------------------

def render_tree(spans: Sequence[Mapping], *, max_cells: int = 4) -> str:
    """The span forest as an indented tree, one line per span.

    ``cell`` children beyond ``max_cells`` per chunk collapse into one
    summary line — a 10^5-cell campaign must not print 10^5 lines.
    """
    lines: list[str] = []

    def describe(node: SpanNode) -> str:
        s = node.span
        who = s.get("worker") or s.get("attrs", {}).get("worker_id") or ""
        who = f" worker={who}" if who else ""
        status = "" if s.get("status", "ok") == "ok" else " STATUS=error"
        return (f"{node.kind} {s.get('name', '?')}  "
                f"{node.elapsed:.3f}s{who}{status}")

    def emit(node: SpanNode, depth: int) -> None:
        lines.append("  " * depth + describe(node))
        cells = [c for c in node.children if c.kind == "cell"]
        others = [c for c in node.children if c.kind != "cell"]
        for child in others:
            emit(child, depth + 1)
        for child in cells[:max_cells]:
            emit(child, depth + 1)
        if len(cells) > max_cells:
            hidden = cells[max_cells:]
            routes: dict[str, int] = {}
            for c in hidden:
                route = c.attrs.get("route", "?")
                routes[route] = routes.get(route, 0) + 1
            by_route = ", ".join(f"{n} {r}" for r, n in sorted(routes.items()))
            lines.append("  " * (depth + 1)
                         + f"... {len(hidden)} more cells ({by_route}), "
                         f"{sum(c.elapsed for c in hidden):.3f}s total")

    for root in build_tree(spans):
        emit(root, 0)
    return "\n".join(lines) if lines else "(no spans)"


# --------------------------------------------------------------------------
# Timeline (per-worker ASCII Gantt)
# --------------------------------------------------------------------------

def render_timeline(spans: Sequence[Mapping], *, width: int = 72) -> str:
    """Per-worker Gantt over the campaign wall clock.

    One row per worker session (pool runs get one row); ``█`` marks
    time bins covered by chunk execution, ``·`` idle time inside the
    session — the visual twin of the queue-wait bucket.
    """
    if not spans:
        return "(no spans)"
    roots = build_tree(spans)
    sessions = [r for r in roots if r.kind == "campaign"] or roots
    t0 = min(float(s.get("start_s") or 0.0) for s in spans)
    wall = _wall_clock(spans)
    if wall <= 0:
        wall = 1e-9
    width = max(10, width)

    def row_for(node: SpanNode) -> str:
        cells = [" "] * width
        lo = int((node.start - t0) / wall * width)
        hi = int((node.end - t0) / wall * width)
        for i in range(max(0, lo), min(width, max(hi, lo + 1))):
            cells[i] = "·"
        for chunk in node.children:
            if chunk.kind != "chunk":
                continue
            lo = int((chunk.start - t0) / wall * width)
            hi = int((chunk.end - t0) / wall * width)
            for i in range(max(0, lo), min(width, max(hi, lo + 1))):
                cells[i] = "█"
        return "".join(cells)

    def label_for(node: SpanNode) -> str:
        s = node.span
        return (s.get("worker") or s.get("attrs", {}).get("worker_id")
                or s.get("name") or "?")

    label_w = min(24, max(len(label_for(n)) for n in sessions))
    lines = [f"timeline: {wall:.3f}s wall clock, {len(sessions)} lane(s) "
             f"(█ chunk execution, · idle)"]
    for node in sessions:
        chunks = sum(1 for c in node.children if c.kind == "chunk")
        lines.append(f"{label_for(node)[:label_w]:<{label_w}} |{row_for(node)}|"
                     f" {chunks} chunk(s), {node.elapsed:.3f}s")
    return "\n".join(lines)


# --------------------------------------------------------------------------
# Critical path + wall-clock attribution
# --------------------------------------------------------------------------

def _chunk_phases(chunk: SpanNode) -> dict[str, float]:
    """claim/execute/commit seconds of one chunk span (attrs-driven)."""
    claim = float(chunk.attrs.get("claim_s") or 0.0)
    commit = float(chunk.attrs.get("commit_s") or 0.0)
    execute = max(0.0, chunk.elapsed - claim - commit)
    return {"claim_s": claim, "execute_s": execute, "commit_s": commit}


def critical_path(spans: Sequence[Mapping]) -> dict:
    """Wall-clock attribution and the longest chain of the trace.

    Returns a JSON-safe dict: ``wall_clock_s``, per-phase totals
    (``queue_wait_s``/``claim_s``/``execute_s``/``commit_s``),
    ``attributed_s``, ``session_s`` (Σ worker-session elapsed),
    ``coverage`` (attributed/session — the CI lane asserts ≥ 0.9),
    ``parallelism`` (busy chunk seconds / wall clock), per-session
    rows, and ``path`` — the latest-ending session, its dominant chunk
    and that chunk's dominant cell, each with its share.
    """
    roots = build_tree(spans)
    sessions = [r for r in roots if r.kind == "campaign"]
    # Chunks orphaned from their session (split sinks) still attribute.
    stray_chunks = [n for r in roots for n in ([r] if r.kind == "chunk" else [])]
    totals = {"queue_wait_s": 0.0, "claim_s": 0.0,
              "execute_s": 0.0, "commit_s": 0.0}
    per_session: list[dict] = []
    session_s = 0.0
    busy_s = 0.0
    for node in sessions:
        chunks = [c for c in node.children if c.kind == "chunk"]
        phases = {"claim_s": 0.0, "execute_s": 0.0, "commit_s": 0.0}
        for chunk in chunks:
            for key, value in _chunk_phases(chunk).items():
                phases[key] += value
        chunk_elapsed = sum(c.elapsed for c in chunks)
        queue_wait = max(0.0, node.elapsed - chunk_elapsed)
        session_s += node.elapsed
        busy_s += chunk_elapsed
        for key in phases:
            totals[key] += phases[key]
        totals["queue_wait_s"] += queue_wait
        per_session.append({
            "worker": (node.span.get("worker")
                       or node.attrs.get("worker_id") or node.span.get("name")),
            "host": node.span.get("host"),
            "elapsed_s": round(node.elapsed, 6),
            "chunks": len(chunks),
            "queue_wait_s": round(queue_wait, 6),
            **{k: round(v, 6) for k, v in phases.items()},
        })
    for chunk in stray_chunks:
        for key, value in _chunk_phases(chunk).items():
            totals[key] += value
        busy_s += chunk.elapsed

    wall = _wall_clock(spans)
    attributed = sum(totals.values())
    coverage = (attributed / session_s) if session_s > 0 else None

    # The longest chain: latest-ending session -> dominant chunk -> cell.
    path: list[dict] = []
    candidates = sessions or stray_chunks
    if candidates:
        tail = max(candidates, key=lambda n: n.end)
        node = tail
        while node is not None:
            share = (node.elapsed / tail.elapsed) if tail.elapsed > 0 else None
            entry = {
                "kind": node.kind,
                "name": node.span.get("name"),
                "elapsed_s": round(node.elapsed, 6),
                "share": round(share, 4) if share is not None else None,
            }
            if node.kind == "chunk":
                entry["chunk_id"] = node.attrs.get("chunk_id")
                if node.attrs.get("stolen_from"):
                    entry["stolen_from"] = node.attrs["stolen_from"]
            path.append(entry)
            children = node.children
            node = (max(children, key=lambda n: n.elapsed)
                    if children else None)

    return {
        "spans": len(spans),
        "sessions": len(sessions),
        "wall_clock_s": round(wall, 6),
        "session_s": round(session_s, 6),
        "attributed_s": round(attributed, 6),
        "coverage": round(coverage, 4) if coverage is not None else None,
        "parallelism": round(busy_s / wall, 3) if wall > 0 else None,
        **{k: round(v, 6) for k, v in totals.items()},
        "per_session": per_session,
        "path": path,
    }


def render_critical_path(analysis: Mapping) -> str:
    """Human rendering of a :func:`critical_path` result."""
    lines = [
        f"critical path over {analysis['spans']} spans "
        f"({analysis['sessions']} worker session(s)):",
        f"wall clock : {analysis['wall_clock_s']:.3f}s"
        + (f"  parallelism x{analysis['parallelism']:.2f}"
           if analysis.get("parallelism") else ""),
    ]
    session_s = analysis["session_s"]
    lines.append("attribution (all worker sessions):")
    for key, label in (("queue_wait_s", "queue-wait"), ("claim_s", "claim"),
                       ("execute_s", "execute"), ("commit_s", "commit")):
        value = analysis[key]
        share = f" ({value / session_s:5.1%})" if session_s > 0 else ""
        lines.append(f"  {label:<10} {value:9.3f}s{share}")
    if analysis.get("coverage") is not None:
        lines.append(
            f"  attributed {analysis['attributed_s']:9.3f}s of "
            f"{session_s:.3f}s session time "
            f"(coverage {analysis['coverage']:.1%})")
    if analysis["path"]:
        lines.append("longest chain (latest-ending lane, dominant child):")
        for depth, hop in enumerate(analysis["path"]):
            extra = ""
            if hop.get("chunk_id") is not None:
                extra += f" chunk_id={hop['chunk_id']}"
            if hop.get("stolen_from"):
                extra += f" stolen_from={hop['stolen_from']}"
            share = (f" ({hop['share']:.0%} of lane)"
                     if hop.get("share") is not None else "")
            lines.append("  " * (depth + 1)
                         + f"{hop['kind']} {hop['name']}  "
                         f"{hop['elapsed_s']:.3f}s{share}{extra}")
    return "\n".join(lines)


# --------------------------------------------------------------------------
# Stragglers
# --------------------------------------------------------------------------

def stragglers(spans: Sequence[Mapping], *, top: int = 5,
               threshold: float = 2.0) -> dict:
    """Chunks and workers ranked by deviation from the fleet median.

    A chunk is flagged when its elapsed exceeds ``threshold`` x the
    median chunk elapsed; a worker when its *mean* chunk elapsed does.
    Steal victims (``stolen_from`` attr) and the host are carried so a
    skewed machine shows up as a pattern, not five separate mysteries.
    """
    roots = build_tree(spans)
    chunks: list[SpanNode] = []
    for root in roots:
        chunks.extend(n for n in root.walk() if n.kind == "chunk")
    elapsed = sorted(c.elapsed for c in chunks)
    med = median(elapsed)
    chunk_rows = []
    for chunk in chunks:
        ratio = (chunk.elapsed / med) if med else None
        chunk_rows.append({
            "chunk_id": chunk.attrs.get("chunk_id"),
            "name": chunk.span.get("name"),
            "worker": chunk.span.get("worker"),
            "host": chunk.span.get("host"),
            "elapsed_s": round(chunk.elapsed, 6),
            "vs_median": round(ratio, 2) if ratio is not None else None,
            "stolen_from": chunk.attrs.get("stolen_from"),
            "straggler": bool(med and chunk.elapsed > threshold * med),
        })
    chunk_rows.sort(key=lambda r: -r["elapsed_s"])

    by_worker: dict[str, list[SpanNode]] = {}
    for chunk in chunks:
        by_worker.setdefault(chunk.span.get("worker") or "?", []).append(chunk)
    worker_rows = []
    for worker, had in sorted(by_worker.items()):
        mean = sum(c.elapsed for c in had) / len(had)
        ratio = (mean / med) if med else None
        worker_rows.append({
            "worker": worker,
            "host": had[0].span.get("host"),
            "chunks": len(had),
            "mean_chunk_s": round(mean, 6),
            "vs_median": round(ratio, 2) if ratio is not None else None,
            "stolen": sum(1 for c in had if c.attrs.get("stolen_from")),
            "straggler": bool(med and mean > threshold * med),
        })
    worker_rows.sort(key=lambda r: -(r["vs_median"] or 0.0))
    return {
        "chunks": len(chunks),
        "median_chunk_s": round(med, 6) if med is not None else None,
        "threshold": threshold,
        "top_chunks": chunk_rows[:top],
        "workers": worker_rows,
    }


def render_stragglers(ranking: Mapping) -> str:
    """Human rendering of a :func:`stragglers` result."""
    med = ranking.get("median_chunk_s")
    lines = [f"stragglers over {ranking['chunks']} chunk span(s), "
             f"median {med:.3f}s/chunk"
             if med is not None else
             f"stragglers: no timed chunk spans ({ranking['chunks']} seen)"]
    for row in ranking["top_chunks"]:
        flags = []
        if row["straggler"]:
            flags.append(f">={ranking['threshold']:g}x median")
        if row["stolen_from"]:
            flags.append(f"stolen from {row['stolen_from']}")
        flag = f"  [{', '.join(flags)}]" if flags else ""
        vs = (f" ({row['vs_median']:.1f}x median)"
              if row["vs_median"] is not None else "")
        ident = (f"chunk {row['chunk_id']}" if row["chunk_id"] is not None
                 else row["name"])
        lines.append(f"  {ident:<12} {row['elapsed_s']:8.3f}s{vs}  "
                     f"worker={row['worker']}{flag}")
    for row in ranking["workers"]:
        if not row["straggler"]:
            continue
        lines.append(
            f"  worker {row['worker']} averages {row['mean_chunk_s']:.3f}s"
            f"/chunk ({row['vs_median']:.1f}x fleet median) on "
            f"host {row['host']} — skewed host?")
    return "\n".join(lines)


# --------------------------------------------------------------------------
# Chrome trace-event export
# --------------------------------------------------------------------------

def chrome_trace(spans: Sequence[Mapping]) -> dict:
    """The span set as Chrome trace-event JSON (Perfetto-compatible).

    Complete (``ph: "X"``) events with microsecond ``ts``/``dur``
    offset to the earliest span; one pid per host, one tid per worker,
    named via ``M``-phase metadata events so Perfetto's track labels
    read ``host`` / ``worker`` instead of bare integers.
    """
    spans = [s for s in spans if s.get("elapsed_s") is not None]
    if not spans:
        return {"traceEvents": [], "displayTimeUnit": "ms"}
    t0 = min(float(s.get("start_s") or 0.0) for s in spans)
    pids: dict[str, int] = {}
    tids: dict[tuple[str, str], int] = {}
    events: list[dict] = []
    for span in spans:
        host = span.get("host") or "host"
        worker = span.get("worker") or "main"
        pid = pids.setdefault(host, len(pids) + 1)
        tid = tids.setdefault((host, worker), len(tids) + 1)
        events.append({
            "name": span.get("name", "?"),
            "cat": span.get("kind", "span"),
            "ph": "X",
            "ts": int((float(span.get("start_s") or 0.0) - t0) * 1e6),
            "dur": max(1, int(float(span.get("elapsed_s") or 0.0) * 1e6)),
            "pid": pid,
            "tid": tid,
            "args": {
                "span_id": span.get("span_id"),
                "status": span.get("status", "ok"),
                **(span.get("attrs") or {}),
            },
        })
    meta: list[dict] = []
    for host, pid in pids.items():
        meta.append({"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                     "args": {"name": host}})
    for (host, worker), tid in tids.items():
        meta.append({"name": "thread_name", "ph": "M", "pid": pids[host],
                     "tid": tid, "args": {"name": worker}})
    return {"traceEvents": meta + events, "displayTimeUnit": "ms"}


# --------------------------------------------------------------------------
# Shared fleet-skew helpers (campaign status --watch imports these)
# --------------------------------------------------------------------------

def median(values: Sequence[float]) -> float | None:
    """Plain median (None on empty input) — no numpy dependency."""
    if not values:
        return None
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def straggler_hint(leases: Sequence, chunk_seconds: Sequence[float], *,
                   now: float, threshold: float = 2.0) -> str | None:
    """One-line skew hint for live status: slowest active lease vs the
    fleet's median chunk time.

    ``leases`` are :class:`~repro.campaigns.distributed.queue.LeaseInfo`
    rows (``acquired_at``/``worker_id``/``chunk_id`` are what's read);
    ``chunk_seconds`` the per-chunk wall seconds of retired chunks.
    Returns None when there is nothing active, no baseline yet, or no
    lease has outlived ``threshold`` x the median — the quiet common
    case, so the hint only appears when something is actually skewed.
    """
    med = median(chunk_seconds)
    if med is None or not leases:
        return None
    slowest = max(leases, key=lambda l: now - l.acquired_at)
    age = now - slowest.acquired_at
    if age <= threshold * med:
        return None
    return (f"chunk {slowest.chunk_id} ({slowest.worker_id}) running "
            f"{age:.1f}s vs {med:.1f}s median chunk — straggler "
            f"(x{age / med:.1f})")
