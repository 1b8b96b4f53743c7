"""Run the repro CLI in-process with timers around each layer's public entry points.

    python perfbench/traced_cli.py TRACE_DIR LAUNCH_T -- CLI_ARGS...

``LAUNCH_T`` is the parent's ``time.perf_counter()`` just before it
started this process (CLOCK_MONOTONIC is system-wide on Linux, so the
difference to this script's first statement is the interpreter start).
The script then times ``import repro.cli``, wraps the entry points listed
in :func:`install` and calls ``repro.cli.main(CLI_ARGS)``, exactly what
``python -m repro`` does.

Each wrapper pushes a frame on a per-process stack.  On exit it adds
the call's *self* time (duration minus the wrapped calls it made) to
its layer.  "Span" entry points also keep a span record with its parent
id, start and end; "light" ones (called once per cell or more) keep
only their layer totals.  Forked pool and queue workers inherit the
wrappers; their spans point at the parent process's open span.  Every
process keeps its spans in memory and writes ``TRACE_DIR/<pid>.json``
when its work is done: the main process at exit, a pool worker after
each task, a queue worker when it leaves.

Nothing here changes what the CLI computes: the benchmark checks the
traced run's store and report against the reference like any other run.
"""

import time

T_FIRST = time.perf_counter()

import functools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

#: Reject reasons reported one by one; any other reason counts as "other".
REJECT_KEYS = ("adversary", "faults", "scheduler", "transport", "algorithm",
               "topology")


class Tracer:
    """Per-process span stack, span records and layer totals."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = out_dir
        self.main_thread = threading.get_ident()
        self.stack: list[list] = []   # [t0, child_s, light_s, span_id]
        self.missing: list[str] = []
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        # In a forked child the inherited stack stays: its top is the
        # parent's open span, which becomes the parent id of the child's
        # spans.  Records and totals start empty.
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self.layers: dict[str, list] = {}   # name -> [calls, self_s]
        self.counts: dict[str, float] = {}
        self.widths: list[int] = []
        self.serial = 0

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, owner, attr: str, name: str, *, span: bool = True,
             after=None, flush: bool = False) -> None:
        """Replace ``owner.attr`` with a timed wrapper (skipped if absent).

        ``after(tracer, args, result)`` records counts once the call has
        returned; ``flush`` writes this process's trace after the call.
        """
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != tracer.main_thread:
                return fn(*args, **kwargs)
            stack = tracer.stack
            span_id = None
            if span:
                tracer.serial += 1
                span_id = f"{tracer.pid}-{tracer.serial}"
            parent_id = stack[-1][3] if stack else None
            frame = [time.perf_counter(), 0.0, 0.0, span_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                duration = t1 - frame[0]
                totals = tracer.layers.setdefault(name, [0, 0.0])
                totals[0] += 1
                totals[1] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                    if not span:
                        stack[-1][2] += duration
                if span:
                    tracer.spans.append(
                        (span_id, parent_id, name, frame[0], t1, frame[2]))
                if flush:
                    tracer.flush()
            if after is not None:
                after(tracer, args, result)
            return result

        setattr(owner, attr, traced)

    def flush(self, meta: dict | None = None) -> None:
        dump = {"pid": self.pid, "spans": self.spans, "layers": self.layers,
                "counts": self.counts, "widths": self.widths}
        if meta is not None:
            dump["meta"] = meta
        path = self.out_dir / f"{self.pid}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(dump))
        os.replace(tmp, path)


def _count_len(name):
    return lambda t, args, result: t.count(name, len(result))


def _after_append(t, args, result):
    t.count("stores.commit_calls")
    t.count("stores.commit_records", len(args[1]))


def _after_chunk(t, args, result):
    from repro.core.batch import batch_ineligible_key

    records, batched = result
    t.count("executor.cells_batched", batched)
    t.count("executor.cells_scalar", len(records) - batched)
    if len(records) == batched:
        return
    rejected = 0
    for cell in args[0]:
        key = batch_ineligible_key(cell)
        if key is not None:
            rejected += 1
            t.count("executor.batch_reject."
                    + (key if key in REJECT_KEYS else "other"))
    # Eligible cells the executor still ran on the scalar path.
    t.count("executor.batch_reject.routed",
            len(records) - batched - rejected)


def _after_execute(t, args, result):
    t.count("core.sim.rounds", result.get("metrics", {}).get("rounds", 0))


def _after_batch(t, args, result):
    t.count("core.batch.cell_rounds", sum(r.rounds for r in result))


def _after_core(t, args, result):
    t.widths.append(len(result))


def _after_enqueue(t, args, result):
    t.count("distributed.enqueue_chunks", result.chunks)


def _after_claim(t, args, result):
    if result is not None:
        t.count("distributed.claims")


def _count_only(tracer: Tracer, owner, attr: str, after) -> None:
    """Wrap ``owner.attr`` to record counts without a timing frame."""
    fn = getattr(owner, attr, None)
    if fn is None:
        tracer.missing.append(f"{owner.__name__}.{attr}")
        return

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        result = fn(*args, **kwargs)
        if threading.get_ident() == tracer.main_thread:
            after(tracer, args, result)
        return result

    setattr(owner, attr, counted)


def install(tracer: Tracer) -> None:
    """Wrap each layer's public entry points, in the CLI's call order."""
    import repro.campaigns.distributed as distributed
    from repro import cli
    from repro.campaigns import executor, spec
    from repro.campaigns.distributed import queue, status, worker
    from repro.campaigns.stores import base, query
    from repro.core import batch

    wrap = tracer.wrap
    # spec: expansion and keying; registry: validation
    wrap(cli, "get_spec", "spec.expand")
    wrap(cli, "load_spec", "spec.expand")
    wrap(spec.CampaignSpec, "cell_list", "spec.expand",
         after=_count_len("spec.cells"))
    wrap(spec.CellConfig, "key", "spec.key", span=False)
    wrap(executor, "validate_cell", "registry.validate", span=False)
    wrap(queue, "validate_cell", "registry.validate", span=False)
    # stores: open, dedupe, commit, report reads
    for module in (cli, status, queue):
        wrap(module, "open_store", "stores.open")
    wrap(base.ResultStore, "completed_keys", "stores.dedupe",
         after=_count_len("stores.dedupe_keys"))
    wrap(base.ResultStore, "error_keys", "stores.dedupe",
         after=_count_len("stores.dedupe_keys"))
    wrap(base.ResultStore, "append_many", "stores.commit",
         after=_after_append)
    wrap(query.Query, "table", "stores.report")
    # aggregate: per-cell metric dicts and the printed table
    wrap(cli, "render_rows", "aggregate.render")
    wrap(executor, "metrics_from_result", "aggregate.metrics", span=False)
    # executor: the run loop, pool tasks, chunk routing
    wrap(cli, "run_cells", "executor.run")
    wrap(executor, "_run_chunk", "executor.pool_task", flush=True)
    wrap(executor, "run_chunk", "executor.chunk", after=_after_chunk)
    wrap(executor, "batch_eligible", "executor.route", span=False)
    # core: the vector path and the scalar engine
    wrap(executor, "run_batch_cells", "core.batch.run", after=_after_batch)
    _count_only(tracer, batch.BatchCore, "run", _after_core)
    wrap(executor, "execute_cell", "core.sim.run", span=False,
         after=_after_execute)
    # distributed: coordinator, workers, queue operations
    wrap(distributed, "run_distributed", "distributed.run")
    wrap(status, "_local_worker_main", "distributed.worker", flush=True)
    wrap(worker, "run_chunk", "executor.chunk", after=_after_chunk)
    wrap(queue.WorkQueue, "enqueue", "distributed.enqueue",
         after=_after_enqueue)
    wrap(queue.WorkQueue, "claim", "distributed.claim", after=_after_claim)
    wrap(queue.WorkQueue, "complete", "distributed.complete")


def main(argv: list[str]) -> int:
    out_dir, launch = Path(argv[0]), float(argv[1])
    if argv[2] != "--":
        raise SystemExit("usage: traced_cli.py TRACE_DIR LAUNCH_T -- CLI_ARGS...")
    t_import = time.perf_counter()
    import repro.cli
    t_install = time.perf_counter()
    tracer = Tracer(out_dir)
    install(tracer)
    t_main = time.perf_counter()
    tracer.stack.append([t_main, 0.0, 0.0, f"{tracer.pid}-0"])
    try:
        code = repro.cli.main(argv[3:])
    finally:
        t_end = time.perf_counter()
        frame = tracer.stack.pop()
        tracer.spans.append(
            (frame[3], None, "cli.main", t_main, t_end, frame[2]))
        tracer.layers["cli.main"] = [1, t_end - t_main - frame[1]]
        sys.stdout.flush()
        tracer.flush(meta={
            "launch": launch, "first": T_FIRST, "import": [t_import, t_install],
            "install": [t_install, t_main], "main": [t_main, t_end],
            "missing": tracer.missing,
        })
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
