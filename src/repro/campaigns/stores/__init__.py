"""Pluggable result-store backends with an indexed query/report layer.

* :mod:`~repro.campaigns.stores.base` — the abstract :class:`ResultStore`
  contract (records, completed keys, durable appends) and
  :func:`open_store`, the URI/path -> backend resolver;
* :mod:`~repro.campaigns.stores.jsonl` — :class:`JsonlStore`, the
  append-only one-line-per-record default;
* :mod:`~repro.campaigns.stores.sqlite` — :class:`SqliteStore`, WAL-mode
  SQLite with concurrent appends and indexed resume/filter queries;
* :mod:`~repro.campaigns.stores.query` — :class:`Query`, the
  filter/group/aggregate/shape-fit layer every backend exposes via
  ``store.query()``;
* :mod:`~repro.campaigns.stores.export` — columnar export (Parquet via
  pyarrow when available, CSV with the identical schema otherwise).

Everywhere a store is accepted — ``python -m repro campaign ... --store``,
:func:`repro.api.run_campaign`, the executor — a URI selects the
backend: ``sqlite:results/t2.db``, ``jsonl:results/t2.jsonl``, or a bare
path (suffix-sniffed, JSONL by default).
"""

from ..._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".base": (
        "LIST_FIELDS", "SCHEMA_VERSION", "SQLITE_SUFFIXES", "ResultStore",
        "open_store", "record_matches", "store_backends"),
    ".export": (
        "ExportResult", "export_columns", "export_store", "flatten_record",
        "parquet_available"),
    ".jsonl": ("JsonlStore",),
    ".query": (
        "FitRow", "Query", "fit_rows", "render_error_rows",
        "render_fit_rows", "render_scatter"),
    ".sqlite": ("SqliteStore",),
})
