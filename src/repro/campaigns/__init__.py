"""Parallel experiment campaigns: declarative sweeps, resumable runs, table reports.

The paper's results are *sweep-shaped* — claims over families of
(algorithm × adversary × scheduler × ring size × agent count)
configurations.  This package turns such a family into a first-class
object and runs it at scale:

* :mod:`~repro.campaigns.spec` — :class:`CampaignSpec` (declarative
  grid/variants) expanding into content-hashed :class:`CellConfig` cells;
* :mod:`~repro.campaigns.registry` — name → algorithm/adversary/scheduler
  factories and :func:`build_cell_engine` (shared with the CLI); topology
  is one more cell dimension (``ring``/``path``/``torus``/``cactus``),
  and every cell — ring or graph — builds on the same unified
  :class:`~repro.core.sim.SimulationCore`;
* :mod:`~repro.campaigns.executor` — chunked multiprocessing execution
  with per-worker warm state, streaming results into the store;
* :mod:`~repro.campaigns.stores` — pluggable result-store backends
  (append-only JSONL, WAL-mode SQLite with indexed resume, columnar
  export) behind one :class:`ResultStore` contract, selected by URI
  (``sqlite:results/t2.db``), plus the :class:`Query` layer backing
  filtered reports and complexity-shape fits;
* :mod:`~repro.campaigns.aggregate` — reduce raw records into the
  paper's table rows;
* :mod:`~repro.campaigns.distributed` — fleet-scale execution: a
  lease-based work queue living *in* the SQLite store (no coordinator
  process), ``campaign worker`` processes on any number of hosts with
  heartbeat/steal crash recovery, and live fleet telemetry
  (``campaign status --watch``);
* :mod:`~repro.campaigns.presets` — named specs (``table2-fsync``,
  ``table4-ssync``, ``paper-tables``, ``impossibility``,
  ``impossibility-path``, ``topologies``, ``smoke``) and JSON/YAML
  loading.

Quick start::

    from repro.campaigns import get_spec, run_campaign, open_store, fit_rows

    run = run_campaign(get_spec("smoke"), "sqlite:results/smoke.db", workers=4)
    store = open_store("sqlite:results/smoke.db", campaign="smoke")
    for row in store.query().table():
        print(row)
    for fit in fit_rows(store.query()):
        print(fit)          # shape verdicts straight from the store
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".aggregate": (
        "DEFAULT_GROUP_BY", "GroupStats", "TableRow", "aggregate_records",
        "aggregate_store", "metrics_from_result", "render_rows",
        "summarize_metrics"),
    ".distributed": (
        "WorkQueue", "enqueue_campaign", "fleet_status", "render_status",
        "run_distributed", "run_worker"),
    ".executor": (
        "CampaignRun", "chunk_cells", "default_chunk_size", "execute_cell",
        "plan_chunks", "run_campaign", "run_cells"),
    ".leases": ("LeaseLost",),
    ".presets": ("DEFAULT_SPEC", "SPECS", "get_spec", "load_spec"),
    ".registry": (
        "ADVERSARIES", "ALGORITHMS", "AUTO_SCHEDULER", "COMBINED_ADVERSARIES",
        "GRAPH_ADVERSARIES", "GRAPH_EXPLORERS", "SCHEDULERS", "TOPOLOGIES",
        "AlgorithmEntry", "build_cell_engine", "build_graph_cell_engine",
        "default_horizon", "is_graph_cell", "validate_cell"),
    ".spec": (
        "CampaignSpec", "CellConfig", "resolve_horizon", "resolve_positions"),
    ".stores": (
        "ExportResult", "FitRow", "JsonlStore", "Query", "ResultStore",
        "SqliteStore", "export_store", "fit_rows", "open_store",
        "render_fit_rows"),
})
