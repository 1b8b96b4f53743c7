"""Unified observability: metrics, span tracing, logging, exposition.

One subsystem shared by every layer of the reproduction — the engine
round loop, the batch kernels, the chunk executor, and the distributed
fleet.  See ARCHITECTURE.md "Observability" for the design and the
overhead contract (<2% on the engine headline with instrumentation
disabled, CI-guarded by ``benchmarks/bench_engine_hotpath.py``).

Submodules:

* :mod:`repro.obs.metrics` — thread-safe registry (counters, gauges,
  reservoir-sampled histograms) with mergeable snapshots; env-gated via
  ``REPRO_METRICS=1`` / the ``campaign --metrics`` flag.
* :mod:`repro.obs.spans` — campaign → chunk → cell span hierarchy,
  emitted as JSONL and/or persisted to the SQLite ``spans`` table;
  env-gated via ``REPRO_TRACE``/``REPRO_TRACE_JSONL``.
* :mod:`repro.obs.logs` — ``repro.*`` stdlib-logging backbone
  (``--log-level``/``--log-json``/``--quiet``/``--verbose``).
* :mod:`repro.obs.expo` — human table / Prometheus textfile / JSON
  rendering of snapshots (``campaign metrics``).
* :mod:`repro.obs.analyze` — trace analytics over recorded spans:
  span tree, per-worker timeline, critical-path wall-clock attribution,
  straggler ranking, Chrome trace-event export (``campaign trace``).
* :mod:`repro.obs.profile` — phase-attribution profiles and speedscope
  folded stacks from metrics snapshots (``campaign profile``).
* :mod:`repro.obs.validate` — span-trace schema/hierarchy validation
  (``python -m repro.obs.validate TRACE.jsonl`` as a script).
* :mod:`repro.obs.history` — bench-history time series and regression
  guard (``python -m repro bench record|check``).

``analyze``/``profile``/``validate``/``history`` are read-side tools
and import lazily where it matters; this package import stays cheap
because the hot emit paths only need ``metrics``/``spans``/``logs``.
"""

from . import expo, logs, metrics, spans

__all__ = ["analyze", "expo", "history", "logs", "metrics", "profile",
           "spans", "validate"]


def __getattr__(name: str):
    # Lazy submodule access (repro.obs.analyze etc.) without importing
    # the read-side tooling on every engine run.
    if name in __all__:
        import importlib

        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
