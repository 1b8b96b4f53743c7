"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``atlas``    — print the paper's feasibility map (Tables 1-4);
* ``run``      — run one algorithm on a dynamic ring and print the outcome;
* ``watch``    — like ``run`` but renders the configuration every round;
* ``list``     — list available algorithms, adversaries and schedulers;
* ``campaign`` — parallel experiment campaigns:

  * ``campaign run``    — expand a sweep spec and execute it (resumable;
    ``--distributed`` drains it through the lease-based work queue with
    N local worker processes instead of a multiprocessing pool);
  * ``campaign resume`` — continue an interrupted campaign
    (``--retry-failed`` also re-drives cells whose only outcome so far
    is an error record);
  * ``campaign enqueue`` — persist a spec's pending cells as claimable
    chunks in a shared SQLite store (the multi-host entry point);
  * ``campaign worker`` — claim/run/heartbeat chunks from a shared
    store until the campaign's queue drains; run it on as many machines
    as can reach the store;
  * ``campaign status`` — live fleet telemetry (workers alive, chunk
    lease states, cells/s, ETA) read straight from the store;
    ``--watch`` re-renders until the queue finishes;
  * ``campaign report`` — aggregate a result store into table rows
    (``--fit`` adds complexity-shape verdicts straight from the store,
    ``--reduce p90`` fits a tail percentile instead of the mean,
    ``--scatter`` drills down to per-seed rows, and ``--errors`` lists
    the cells whose only outcome is an error record);
  * ``campaign export`` — dump a store as a columnar file (CSV/Parquet);
  * ``campaign metrics`` — merged fleet metrics from the store's
    persisted worker snapshots (``--format table|json|prom``; ``prom``
    emits a Prometheus textfile);
  * ``campaign trace``  — trace analytics over the recorded spans:
    span tree (default), ``--timeline`` per-worker Gantt,
    ``--critical-path`` wall-clock attribution, ``--stragglers``
    skew ranking, ``--format chrome`` Perfetto-compatible export;
  * ``campaign profile`` — phase-attribution profile from the fleet's
    metrics snapshots (``--format table|json|folded``; ``folded``
    emits speedscope/flamegraph collapsed stacks);
  * ``campaign list``   — list the named campaign specs.

* ``bench`` — bench-history regression guard: ``bench record`` appends
  a ``BENCH_engine.json``'s headlines to ``BENCH_history.jsonl``;
  ``bench check`` exits 1 when the latest entry drops below a fraction
  (default 0.7) of the trailing median for any headline.

Observability (see :mod:`repro.obs` and ARCHITECTURE.md):
``--metrics`` / ``--trace`` / ``--trace-jsonl PATH`` (on
``run``/``resume``/``worker``) switch on the metrics registry and the
campaign→chunk→cell span trace — both off by default and free when off.
The flags are exported as ``REPRO_METRICS`` / ``REPRO_TRACE`` /
``REPRO_TRACE_JSONL`` so spawned worker processes inherit them.  The
top-level ``--log-level/--log-json/-q/--verbose`` flags configure the
stdlib-``logging`` backbone every progress line now flows through.

``--batch {auto,on,off}`` (on ``run``/``resume``/``worker``) routes
eligible cells — ring/NS/FSYNC under an oblivious adversary — through
the vectorized batch executor (:mod:`repro.core.batch`); it is pure
execution routing, never cell identity: store keys, records and reports
are byte-identical to the scalar path.

``--store`` accepts a backend URI everywhere: ``sqlite:results/t2.db``
selects the concurrent, indexed SQLite backend, ``jsonl:`` (or a bare
path) the append-only JSONL default.  The distributed verbs need the
SQLite backend (the queue's lease transactions live in the same
database) and default to ``sqlite:results/<spec>.db``.

Single runs and campaign cells share one registry
(:mod:`repro.campaigns.registry`): every algorithm/adversary name below
is also a valid name in a campaign spec.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Sequence

from .analysis.render import watch
from .campaigns.aggregate import aggregate_records, render_rows
from .campaigns.distributed.queue import DEFAULT_LEASE_TTL_S, DEFAULT_MAX_ATTEMPTS
from .campaigns.executor import prepare_cells, run_cells
from .campaigns.presets import DEFAULT_SPEC, SPECS, get_spec, load_spec
from .campaigns.registry import (
    ADVERSARIES,
    ALGORITHMS,
    SCHEDULERS,
    build_cell_engine,
    default_horizon,
)
from .campaigns.spec import CellConfig
from .campaigns.stores import (
    ResultStore,
    export_store,
    fit_rows,
    open_store,
    render_error_rows,
    render_fit_rows,
    render_scatter,
)
from .core.errors import ConfigurationError
from .obs import expo as obs_expo
from .obs import logs as obs_logs
from .obs import spans as obs_spans
from .obs.history import add_bench_parsers, bench_main
from .theory.tables import render_map

_log = obs_logs.get_logger(__name__)


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Live Exploration of Dynamic Rings - reproduction CLI",
    )
    parser.add_argument("--log-level", default=None, metavar="LEVEL",
                        help="logging threshold for repro.* loggers "
                             "(DEBUG/INFO/WARNING/ERROR; default INFO)")
    parser.add_argument("--log-json", action="store_true",
                        help="emit log lines as JSON objects on stderr "
                             "(machine-ingestable)")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="warnings and errors only (silences progress "
                             "lines; results still print on stdout)")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="debug logging (per-chunk detail)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("atlas", help="print the paper's feasibility map")
    sub.add_parser("list", help="list algorithms and adversaries")

    for name in ("run", "watch"):
        p = sub.add_parser(name, help=f"{name} an exploration")
        p.add_argument("algorithm", choices=sorted(ALGORITHMS))
        p.add_argument("-n", type=int, default=8, help="ring size (default 8)")
        p.add_argument("--bound", type=int, default=None,
                       help="known upper bound N (defaults to n)")
        p.add_argument("--agents", type=int, default=None,
                       help="number of agents (defaults per algorithm)")
        p.add_argument("--adversary", choices=sorted(ADVERSARIES), default="random")
        p.add_argument("--edge", type=int, default=0,
                       help="edge index for fixed/periodic adversaries")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--no-chirality", action="store_true",
                       help="flip agent 1's orientation")
        p.add_argument("--rounds", type=int, default=None,
                       help="horizon (default: generous per algorithm)")
        p.add_argument("--faults", default="", metavar="PLAN",
                       help="fault plan: comma-separated crash:A@R (agent A "
                            "crashes at round R), lost:A or lost:* (lost when "
                            "waiting on a removed edge), rate:P (per-round "
                            "crash probability); default: fault-free")

    campaign = sub.add_parser(
        "campaign", help="parallel, resumable experiment campaigns")
    csub = campaign.add_subparsers(dest="campaign_command", required=True)

    for verb, help_text in (
        ("run", "expand a sweep spec and execute every pending cell"),
        ("resume", "continue an interrupted campaign from its store"),
        ("enqueue", "persist a spec's pending cells as claimable chunks "
                    "(multi-host)"),
    ):
        p = csub.add_parser(verb, help=help_text)
        enqueue = verb == "enqueue"
        _add_store_args(p, sqlite=enqueue)
        p.add_argument("--chunk-size", type=int, default=None,
                       help="cells per work unit (default: auto)")
        p.add_argument("--limit", type=int, default=None,
                       help="only use the first LIMIT cells of the expansion")
        p.add_argument("--debug-invariants", action="store_true",
                       help="run every cell with the per-round engine audit "
                            "on (campaigns default it off for throughput; "
                            "applied at keying time)")
        p.add_argument("--retry-failed", action="store_true",
                       help="also re-run cells whose only stored outcome is "
                            "an error record (default: failures are skipped "
                            "like completed cells)")
        if enqueue:
            continue
        p.add_argument("--workers", type=int, default=None,
                       help="worker processes (default: all CPUs; 1 = serial)")
        p.add_argument("--no-report", action="store_true",
                       help="skip the aggregate table after the run")
        p.add_argument("--distributed", action="store_true",
                       help="execute through the lease-based work queue: "
                            "enqueue pending cells in the SQLite store "
                            "(default: results/<spec>.db), "
                            "spawn --workers local worker processes, and let "
                            "any extra 'campaign worker' processes on other "
                            "hosts join the same queue")
        _add_fleet_args(p)

    p = csub.add_parser(
        "worker",
        help="claim and run chunks from a shared store until the queue drains")
    p.add_argument("--store", default=None, metavar="URI",
                   help="SQLite result store hosting the queue "
                        "(default: sqlite:results/<campaign>.db)")
    p.add_argument("--campaign", required=True, metavar="NAME",
                   help="campaign tag the chunks were enqueued under "
                        "(the spec name)")
    p.add_argument("--poll", type=float, default=0.5, metavar="S",
                   help="seconds between claim attempts when empty-handed")
    p.add_argument("--max-chunks", type=int, default=None,
                   help="exit after completing this many chunks")
    p.add_argument("--max-attempts", type=int, default=DEFAULT_MAX_ATTEMPTS,
                   help="park a chunk as failed after this many claim "
                        "attempts instead of stealing it again "
                        "(default: %(default)s; poison-chunk protection)")
    p.add_argument("--worker-id", default=None,
                   help="fleet-unique identity (default: <host>-<pid>)")
    _add_fleet_args(p)

    p = csub.add_parser(
        "status", help="live fleet telemetry for a distributed campaign")
    _add_store_args(p, sqlite=True, campaign=True)
    p.add_argument("--watch", action="store_true",
                   help="re-render every --interval seconds until the queue "
                        "finishes")
    p.add_argument("--interval", type=float, default=2.0, metavar="S",
                   help="refresh period for --watch (default: 2)")
    p.add_argument("--lease-ttl", type=float, default=DEFAULT_LEASE_TTL_S,
                   metavar="S",
                   help="lease time-to-live used to classify workers/leases "
                        "as dead (default: %(default)s); must match the "
                        "fleet's")

    p = csub.add_parser("report", help="aggregate a result store into table rows")
    _add_store_args(p)
    p.add_argument("--by", default="label,algorithm,ring_size",
                   help="comma-separated config dimensions to group by")
    p.add_argument("--fit", action="store_true",
                   help="also shape-fit rounds/moves vs ring size per label "
                        "(linear vs n log n vs quadratic; needs numpy)")
    p.add_argument("--reduce", choices=("mean", "p50", "p90", "p99"),
                   default="mean",
                   help="per-sweep-point reducer for the --fit series "
                        "(default: mean; percentiles fit the tails instead)")
    p.add_argument("--scatter", action="store_true",
                   help="also print per-seed (unreduced) scatter rows, one "
                        "line per stored record, grouped like the table")
    p.add_argument("--errors", action="store_true",
                   help="also list errored cells (cells whose only stored "
                        "outcome is an error record; re-drive them with "
                        "'campaign resume --retry-failed')")

    p = csub.add_parser(
        "metrics",
        help="merged fleet metrics from the store's worker snapshots")
    _add_store_args(p, sqlite=True, campaign=True, out=True)
    p.add_argument("--format", choices=("table", "json", "prom"),
                   default="table",
                   help="table: aligned human report; json: summarised "
                        "snapshot; prom: Prometheus textfile exposition "
                        "(default: table)")

    p = csub.add_parser(
        "trace",
        help="trace analytics over recorded campaign→chunk→cell spans")
    _add_store_args(p, sqlite=True, campaign=True, out=True)
    p.add_argument("--jsonl", default=None, metavar="PATH",
                   help="read spans from a REPRO_TRACE_JSONL file instead "
                        "of the store (works with any backend)")
    p.add_argument("--timeline", action="store_true",
                   help="per-worker ASCII Gantt of chunk execution over "
                        "the campaign wall clock")
    p.add_argument("--critical-path", action="store_true",
                   help="wall-clock attribution (queue-wait/claim/execute/"
                        "commit) and the longest span chain")
    p.add_argument("--stragglers", action="store_true",
                   help="chunks and workers ranked vs the fleet median")
    p.add_argument("--format", choices=("text", "json", "chrome"),
                   default="text",
                   help="text: human report; json: the requested analyses "
                        "as one JSON object; chrome: Chrome trace-event "
                        "JSON for ui.perfetto.dev (default: text)")

    p = csub.add_parser(
        "profile",
        help="phase-attribution profile from the fleet's metrics snapshots")
    _add_store_args(p, sqlite=True, campaign=True, out=True)
    p.add_argument("--format", choices=("table", "json", "folded"),
                   default="table",
                   help="table: aligned human report; json: phase/route "
                        "rows; folded: collapsed stacks for speedscope/"
                        "flamegraph tools (default: table)")

    p = csub.add_parser(
        "fsck",
        help="validate a result store's integrity (torn lines, orphaned "
             "leases, duplicate keys, chunk/span consistency)")
    _add_store_args(p)
    p.add_argument("--quarantine", action="store_true",
                   help="repair what can be repaired: move torn JSONL lines "
                        "to a .quarantine sidecar, drop orphaned leases, "
                        "return leaseless chunks to pending")

    p = csub.add_parser(
        "export", help="export a result store as a columnar file")
    _add_store_args(p)
    p.add_argument("--out", required=True, metavar="PATH",
                   help="destination file (.csv, or .parquet with pyarrow)")
    p.add_argument("--format", choices=("csv", "parquet"), default=None,
                   help="output format (default: from the --out suffix)")

    csub.add_parser("list", help="list the named campaign specs")

    bench = sub.add_parser(
        "bench",
        help="bench-history regression guard (record/check headlines)")
    bsub = bench.add_subparsers(dest="bench_command", required=True)
    add_bench_parsers(bsub)
    return parser


def _add_store_args(p: argparse.ArgumentParser, *, sqlite: bool = False,
                    campaign: bool = False, out: bool = False) -> None:
    """``--spec``/``--spec-file``/``--store`` (the store defaults to one
    named after the spec), plus ``--campaign`` and ``--out`` on request."""
    p.add_argument("--spec", default=DEFAULT_SPEC, metavar="NAME",
                   help=f"named spec (default: {DEFAULT_SPEC}; see "
                        "'campaign list'); also names the default store")
    p.add_argument("--spec-file", default=None, metavar="PATH",
                   help="JSON/YAML spec file (overrides --spec)")
    p.add_argument("--store", default=None, metavar="URI", help=(
        "SQLite result store (default: sqlite:results/<campaign>.db)"
        if sqlite else
        "result store: a path, jsonl:PATH or sqlite:PATH (default: "
        "results/<spec>.jsonl, or results/<spec>.db when only that "
        "exists)"))
    if campaign:
        p.add_argument("--campaign", default=None, metavar="NAME",
                       help="campaign tag (default: the spec's name)")
    if out:
        p.add_argument("--out", default=None, metavar="PATH",
                       help="write the report to PATH instead of stdout")


def _add_fleet_args(p: argparse.ArgumentParser) -> None:
    """Lease, routing and observability flags of the verbs that execute
    cells (``run``/``resume``/``worker``)."""
    p.add_argument("--lease-ttl", type=float, default=DEFAULT_LEASE_TTL_S,
                   metavar="S",
                   help="distributed lease time-to-live in seconds: a "
                        "worker silent this long is presumed dead and its "
                        "chunk is stolen (default: %(default)s; must match "
                        "the fleet's)")
    p.add_argument("--batch", choices=("auto", "on", "off"), default=None,
                   help="vectorized batch execution: auto routes "
                        "eligible cells through the lockstep NumPy core "
                        "(scalar fallback otherwise), on requires it, "
                        "off forces the scalar path; never changes "
                        "results or store keys, so a mixed fleet is fine "
                        "(default: auto)")
    p.add_argument("--metrics", action="store_true",
                   help="record counters/histograms (queue claim latency, "
                        "engine phase timings, batch share) and print a "
                        "metrics report after the summary; exported as "
                        "REPRO_METRICS=1 so worker processes inherit it")
    p.add_argument("--trace", action="store_true",
                   help="record campaign→chunk→cell spans into the SQLite "
                        "store's spans table (REPRO_TRACE=1)")
    p.add_argument("--trace-jsonl", default=None, metavar="PATH",
                   help="also append spans as JSON lines to PATH "
                        "(REPRO_TRACE_JSONL; works with any store backend)")


def build_from_args(args) -> tuple:
    """Translate single-run CLI flags into a campaign cell and build it."""
    entry = ALGORITHMS[args.algorithm]
    agents = args.agents or entry.default_agents
    no_chirality = args.no_chirality
    unconscious = "unconscious" in args.algorithm
    cell = CellConfig(
        algorithm=args.algorithm,
        ring_size=args.n,
        max_rounds=args.rounds or default_horizon(entry.transport, args.n),
        agents=agents,
        seed=args.seed,
        adversary=args.adversary,
        transport=entry.transport.value,
        chirality=not no_chirality,
        flipped=(1,) if no_chirality and agents >= 2 else (),
        bound=args.bound,
        edge=args.edge,
        stop_on_exploration=unconscious,
        faults=getattr(args, "faults", ""),
    )
    return build_cell_engine(cell), cell.max_rounds, unconscious


def _campaign_spec(args):
    if args.spec_file:
        return load_spec(args.spec_file)
    return get_spec(args.spec)


class _NoStore(Exception):
    """The verb's store does not exist (logged; the command exits 1)."""


def _store(args, spec, *, sqlite: bool = False) -> ResultStore:
    """The verb's store: ``--store``, else the default under ``results/``.

    Verbs that need SQLite (the lease queue and telemetry tables live in
    the results database) default to ``results/<campaign>.db``; the rest
    to ``results/<spec>.jsonl``, falling back to an existing ``.db`` so
    ``campaign report`` finds a ``--distributed`` run's results without
    repeating the URI.
    """
    campaign = getattr(args, "campaign", None) or spec.name
    if args.store:
        return open_store(args.store, campaign=campaign)
    target = Path("results") / f"{campaign}.db"
    jsonl = target.with_suffix(".jsonl")
    if not sqlite and (jsonl.exists() or not target.exists()):
        target = jsonl
    return open_store(target, campaign=campaign)


def _existing_store(args, spec, *, sqlite: bool = False) -> ResultStore:
    """:func:`_store`, refusing (:class:`_NoStore`) one that does not exist."""
    store = _store(args, spec, sqlite=sqlite)
    if not store.exists():
        raise _NoStore(f"no result store at {store.path}")
    return store


def _write_or_print(args, text: str, what: str) -> int:
    """Write a report to ``--out`` (logging it) or print it to stdout."""
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
        _log.info("wrote %s to %s", what, args.out)
    else:
        print(text)
    return 0


@contextmanager
def _obs_env(args):
    """Export the observability flags as environment variables while one
    command runs.

    The env — not in-process state — is the contract: pool children and
    spawned local workers inherit it, and multi-host workers accept the
    same variables directly.  On the way out the previous values come
    back and the span recorder these variables installed is closed, so
    an in-process caller (tests, embedding) sees nothing leak.
    """
    wanted = {name: value for name, value in (
        ("REPRO_METRICS", "1" if getattr(args, "metrics", False) else None),
        ("REPRO_TRACE", "1" if getattr(args, "trace", False) else None),
        ("REPRO_TRACE_JSONL", getattr(args, "trace_jsonl", None)),
    ) if value}
    saved = dict(os.environ)
    os.environ.update(wanted)
    try:
        yield
    finally:
        if wanted.keys() & {"REPRO_TRACE", "REPRO_TRACE_JSONL"}:
            obs_spans.close_recorder()
        os.environ.clear()
        os.environ.update(saved)


class _Milestones:
    """Log campaign progress at ~10% steps (replaces the ``\\r`` ticker —
    log lines must stay one-per-event for ``--log-json`` consumers)."""

    def __init__(self, step: float = 0.1) -> None:
        self._step = step
        self._next = step
        self._last = -1

    def __call__(self, done: int, total: int) -> None:
        if not total or done == self._last:
            return
        frac = done / total
        if frac >= self._next or done == total:
            self._last = done
            _log.info("%d/%d cells (%.0f%%)", done, total, frac * 100)
            while self._next <= frac:
                self._next += self._step


def _print_metrics(snapshot, title: str) -> None:
    if snapshot:
        print(obs_expo.render_table(snapshot, title=title))


# -- campaign verbs: one function each, dispatched by _CAMPAIGN_VERBS ------

def _campaign_list(args, spec) -> int:
    for name in sorted(SPECS):
        named = SPECS[name]()
        print(f"{name:<16} {named.size():>4} cells  {named.description}")
    return 0


def _campaign_run(args, spec) -> int:
    """``run`` and ``resume``: the pool/serial or ``--distributed`` path."""
    store = _store(args, spec, sqlite=args.distributed)
    if args.campaign_command == "resume" and not store.exists():
        raise _NoStore(f"nothing to resume: no store at {store.path}")
    cells = spec.cell_list()[:args.limit]
    mode = " [distributed]" if args.distributed else ""
    print(f"campaign {spec.name}: {len(cells)} cells -> {store.uri()}{mode}")
    options = dict(
        workers=args.workers, chunk_size=args.chunk_size,
        progress=_Milestones(), retry_failed=args.retry_failed,
        debug_invariants=True if args.debug_invariants else None,
        batch=args.batch)
    if args.distributed:
        from .campaigns.distributed import run_distributed

        run = run_distributed(spec, store, cells=cells,
                              lease_ttl_s=args.lease_ttl, **options)
    else:
        run = run_cells(cells, store, **options)
    print(run.summary())
    _print_metrics(run.metrics, title=f"metrics — campaign {spec.name}")
    if not args.no_report:
        print(render_rows(store.query().table(), title=f"campaign {spec.name}"))
    return 1 if run.failed else 0


def _campaign_worker(args, spec) -> int:
    # Workers need no spec: chunks carry fully serialised cells.
    from .campaigns.distributed import run_worker

    try:
        report = run_worker(
            _store(args, spec, sqlite=True),
            campaign=args.campaign,
            worker_id=args.worker_id,
            lease_ttl_s=args.lease_ttl,
            poll_s=args.poll,
            max_chunks=args.max_chunks,
            max_attempts=args.max_attempts,
            progress=_log.info,
            batch=args.batch,
        )
    except KeyboardInterrupt:
        # run_worker released any held chunk on the way out.
        _log.warning("worker interrupted; held lease released")
        return 130
    print(report.summary())
    _print_metrics(report.metrics, title=f"metrics — worker {report.worker_id}")
    return 0


def _campaign_enqueue(args, spec) -> int:
    from .campaigns.distributed import enqueue_campaign

    store = _store(args, spec, sqlite=True)
    cells = prepare_cells(
        spec.cell_list()[:args.limit],
        debug_invariants=True if args.debug_invariants else None)
    _, report = enqueue_campaign(
        spec, store, cells=cells,
        chunk_size=args.chunk_size, retry_failed=args.retry_failed,
    )
    print(f"campaign {spec.name}: {report.summary()} -> {store.uri()}")
    return 0


def _campaign_status(args, spec) -> int:
    from .campaigns.distributed import fleet_status, render_status, watch_status

    store = _existing_store(args, spec, sqlite=True)
    if not args.watch:
        print(render_status(fleet_status(store, lease_ttl_s=args.lease_ttl)))
        return 0
    try:
        watch_status(store, lease_ttl_s=args.lease_ttl,
                     interval_s=args.interval)
    except KeyboardInterrupt:
        # the promised UX: Ctrl-C stops the watch, not the fleet
        _log.warning("watch stopped (the fleet keeps running)")
        return 130
    return 0


def _campaign_metrics(args, spec) -> int:
    """``metrics`` and ``profile``: views of the merged fleet snapshots."""
    from .campaigns.distributed import store_metrics
    from .obs import profile as obs_profile

    store = _existing_store(args, spec, sqlite=True)
    merged, fleet = store_metrics(store)
    verb = args.campaign_command
    title = f"campaign {store.campaign} — {verb} ({store.uri()})"
    if args.format == "json":
        text = json.dumps(obs_expo.to_json(merged, fleet) if verb == "metrics"
                          else obs_profile.profile_data(merged),
                          indent=2, sort_keys=True)
    elif args.format == "prom":
        text = obs_expo.prometheus_text(
            merged, labels={"campaign": store.campaign})
    elif args.format == "folded":
        text = obs_profile.folded_stacks(merged)
    elif verb == "metrics":
        text = obs_expo.render_table(merged, fleet=fleet, title=title)
    else:
        text = obs_profile.render_profile(merged, title=title)
    return _write_or_print(args, text, f"{args.format} {verb}")


def _campaign_trace(args, spec) -> int:
    from .obs import analyze as obs_analyze

    if args.jsonl:
        spans = obs_analyze.load_spans(args.jsonl, campaign=args.campaign)
    else:
        store = _existing_store(args, spec, sqlite=True)
        if not hasattr(store, "spans"):
            raise ConfigurationError(
                f"store backend {type(store).__name__} ({store.uri()}) "
                "has no spans table — use a SQLite store "
                "(--store sqlite:PATH) or --jsonl PATH")
        spans = obs_analyze.load_spans(store)
    if not spans:
        _log.error("no spans recorded for campaign %r — run the fleet "
                   "with --trace (or --trace-jsonl)",
                   args.campaign or spec.name)
        return 1
    if args.format == "chrome":
        text = json.dumps(obs_analyze.chrome_trace(spans))
    elif args.format == "json":
        views: dict = {"spans": len(spans)}
        if args.critical_path or not args.stragglers:
            views["critical_path"] = obs_analyze.critical_path(spans)
        if args.stragglers:
            views["stragglers"] = obs_analyze.stragglers(spans)
        text = json.dumps(views, indent=2, sort_keys=True)
    else:
        sections = []
        if args.timeline:
            sections.append(obs_analyze.render_timeline(spans))
        if args.critical_path:
            sections.append(obs_analyze.render_critical_path(
                obs_analyze.critical_path(spans)))
        if args.stragglers:
            sections.append(obs_analyze.render_stragglers(
                obs_analyze.stragglers(spans)))
        if not sections:
            sections.append(obs_analyze.render_tree(spans))
        text = "\n\n".join(sections)
    return _write_or_print(args, text, f"{args.format} trace report")


def _campaign_fsck(args, spec) -> int:
    from .resilience import fsck_store

    report = fsck_store(_existing_store(args, spec),
                        quarantine=args.quarantine)
    print(report.render())
    return 0 if report.ok else 1


def _campaign_report(args, spec) -> int:
    store = _existing_store(args, spec)
    by = tuple(d.strip() for d in args.by.split(",") if d.strip())
    query = store.query()
    if args.fit or args.scatter:
        # one store scan feeds the aggregate table, fits and scatter
        records = list(query.records())
        rows = aggregate_records(records, by=by)
    else:
        records = None
        rows = query.table(by=by)
    print(render_rows(rows, title=f"campaign {spec.name} ({store.uri()})"))
    if args.fit:
        print()
        print(render_fit_rows(
            fit_rows(query, records=records, reduce=args.reduce),
            title="complexity-shape fits over ring_size "
                  f"({args.reduce} per size; best of "
                  "linear/nlogn/quadratic)"))
    if args.scatter:
        print()
        print(render_scatter(
            records, by=by,
            title="per-seed scatter (one row per stored record)"))
    if args.errors:
        print()
        print(render_error_rows(
            query.errors(),
            title="errored cells (only outcome is an error record; "
                  "re-drive with 'campaign resume --retry-failed')"))
    return 0


def _campaign_export(args, spec) -> int:
    print(export_store(_existing_store(args, spec), args.out,
                       format=args.format).summary())
    return 0


_CAMPAIGN_VERBS = {
    "list": _campaign_list,
    "run": _campaign_run,
    "resume": _campaign_run,
    "worker": _campaign_worker,
    "enqueue": _campaign_enqueue,
    "status": _campaign_status,
    "metrics": _campaign_metrics,
    "trace": _campaign_trace,
    "profile": _campaign_metrics,
    "fsck": _campaign_fsck,
    "report": _campaign_report,
    "export": _campaign_export,
}


def campaign_main(args) -> int:
    # `list` and `worker` take no spec (chunks carry serialised cells).
    spec = _campaign_spec(args) if hasattr(args, "spec") else None
    try:
        with _obs_env(args):
            return _CAMPAIGN_VERBS[args.campaign_command](args, spec)
    except _NoStore as exc:
        _log.error("%s", exc)
        return 1


def main(argv: Sequence[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        obs_logs.configure(
            obs_logs.resolve_level(
                args.log_level, quiet=args.quiet, verbose=args.verbose),
            json_lines=args.log_json)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return _dispatch(args)
    except ConfigurationError as exc:
        _log.error("%s", exc)
        return 2
    except BrokenPipeError:
        # stdout went away (e.g. piped into `head`); exit quietly.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


def _dispatch(args) -> int:
    if args.command == "atlas":
        print("Feasibility map (Tables 1-4):")
        print(render_map())
        return 0

    if args.command == "list":
        print("algorithms :", ", ".join(sorted(ALGORITHMS)))
        print("adversaries:", ", ".join(sorted(ADVERSARIES)))
        print("schedulers :", ", ".join(sorted(SCHEDULERS)))
        print("campaigns  :", ", ".join(sorted(SPECS)))
        return 0

    if args.command == "campaign":
        return campaign_main(args)

    if args.command == "bench":
        return bench_main(args)

    engine, horizon, unconscious = build_from_args(args)
    if args.command == "watch":
        watch(engine, horizon)
        return 0

    result = engine.run(horizon, stop_on_exploration=unconscious)
    print(result.summary())
    return 0 if result.explored else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
