"""The abstract result store: a campaign's durable, queryable memory.

A *record* is one JSON-able dict per executed cell::

    {"schema": 1, "key": "<sha256 prefix>", "config": {...},
     "metrics": {...}, "elapsed_s": 0.0123}

The key is :meth:`~repro.campaigns.spec.CellConfig.key` — a hash over the
*configuration*, not the run identity — so re-expanding the same spec
after an interrupt (or on another machine pointed at the same store)
recognises completed cells and skips them.  Failed cells are recorded
with an ``"error"`` field and are *not* treated as completed — but they
do count as *attempted*: a resume skips them by default (a fleet of
workers must not re-drive a deterministically crashing cell forever) and
re-runs them only when asked (``--retry-failed`` /
``run_cells(retry_failed=True)``).  :meth:`error_keys` lists the cells
in that state; :meth:`~repro.campaigns.stores.query.Query.errors` shows
their error records.

Backends subclass :class:`ResultStore` and implement :meth:`records` and
:meth:`_write_many`; everything else (completed-key caching, filtering,
querying) is shared.  :func:`open_store` turns a URI or path into the
right backend::

    open_store("results/smoke.jsonl")        # JSONL (the default)
    open_store("jsonl:results/smoke.jsonl")  # explicit scheme
    open_store("sqlite:results/smoke.db")    # SQLite backend
    open_store("results/smoke.db")           # suffix-sniffed SQLite
"""

from __future__ import annotations

import importlib
import os
import re
from pathlib import Path
from typing import (
    TYPE_CHECKING, Any, Callable, ClassVar, Collection, Iterator, Mapping,
)

from ...core.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover
    from .query import Query

#: Version stamped into every record (bump on incompatible record shape).
SCHEMA_VERSION = 1

#: Config fields whose values are lists; a filter value that is itself a
#: list/tuple means *equality* for these, not membership.
LIST_FIELDS = frozenset({"flipped", "positions"})

_DIM_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def _check_dimension(dim: str) -> str:
    """Reject filter keys that are not plain identifiers (SQL-safe)."""
    if not _DIM_RE.match(dim):
        raise ConfigurationError(f"bad filter dimension name {dim!r}")
    return dim


def record_matches(record: Mapping[str, Any], where: Mapping[str, Any]) -> bool:
    """Does a record's ``config`` satisfy every filter in ``where``?

    Filter values may be a scalar (equality), a list/tuple/set
    (membership — except for :data:`LIST_FIELDS`, where a list means
    equality against the list-valued field), or a callable predicate.
    """
    config = record.get("config", {})
    for dim, expected in where.items():
        actual = config.get(dim)
        if callable(expected):
            if not expected(actual):
                return False
        elif dim in LIST_FIELDS:
            if isinstance(expected, tuple):
                expected = list(expected)
            if actual != expected:
                return False
        elif isinstance(expected, (list, tuple, set, frozenset)):
            if actual not in expected:
                return False
        elif actual != expected:
            return False
    return True


class ResultStore:
    """Abstract base for campaign result stores.

    Subclasses own the bytes (a JSONL file, a SQLite database, ...) and
    implement:

    * :meth:`records` — yield every well-formed record, oldest first;
    * :meth:`_write_many` — durably append a chunk of records;

    and may override :meth:`_load_completed_keys` / :meth:`select` when
    the backend can answer those questions faster than a full scan
    (SQLite answers both from indexes).
    """

    #: URI scheme naming this backend (``jsonl``, ``sqlite``, ...).
    scheme: ClassVar[str] = ""

    #: Can this backend host the distributed lease queue
    #: (:mod:`repro.campaigns.distributed`)?  Requires atomic multi-writer
    #: claim/complete transactions, which only the SQLite backend gives;
    #: the queue refuses other backends with a clear error.
    supports_leases: ClassVar[bool] = False

    def __init__(self, path: str | os.PathLike[str], *,
                 campaign: str | None = None) -> None:
        self.path = Path(path)
        #: Optional campaign tag: backends that store several campaigns
        #: in one file (SQLite) scope reads and writes to it.
        self.campaign = campaign
        self._completed: set[str] | None = None
        self._errored: set[str] | None = None

    # -- reading -------------------------------------------------------

    def records(self) -> Iterator[dict[str, Any]]:
        """Yield every well-formed record (malformed data skipped)."""
        raise NotImplementedError

    def _load_completed_keys(
            self, among: Collection[str] | None = None) -> set[str]:
        """The scan behind :meth:`completed_keys` (override me)."""
        done = {r["key"] for r in self.records() if "error" not in r}
        return done if among is None else done.intersection(among)

    def completed_keys(self, among: Collection[str] | None = None) -> set[str]:
        """Keys of cells that finished successfully (cached after first read).

        ``among`` asks only about those keys, and reads the backend fresh
        every time instead of the cache: the distributed worker's
        per-chunk "already recorded by a racing run?" check, whose cost
        must follow the chunk, not the store.
        """
        if among is not None:
            return self._load_completed_keys(among)
        if self._completed is None:
            self._completed = self._load_completed_keys()
        return self._completed

    def _load_error_keys(self) -> set[str]:
        """One-time scan behind :meth:`error_keys` (override me)."""
        succeeded: set[str] = set()
        errored: set[str] = set()
        for r in self.records():
            (errored if "error" in r else succeeded).add(r["key"])
        return errored - succeeded

    def error_keys(self) -> set[str]:
        """Keys of cells whose *only* outcome so far is an error record.

        A cell that errored and later succeeded (e.g. a transient failure
        re-driven with ``retry_failed``) does not appear here.
        """
        if self._errored is None:
            self._errored = self._load_error_keys()
        return self._errored

    def invalidate_caches(self) -> None:
        """Drop the cached key sets (records were written out of band).

        The distributed work queue appends result rows inside its own
        lease-completion transaction rather than through
        :meth:`append_many`; it calls this so a long-lived store instance
        re-reads the truth on its next :meth:`completed_keys`.
        """
        self._completed = None
        self._errored = None

    def select(
        self, where: Mapping[str, Any] | None = None
    ) -> Iterator[dict[str, Any]]:
        """Records whose config matches ``where`` (see :func:`record_matches`)."""
        if not where:
            yield from self.records()
            return
        for dim in where:
            _check_dimension(dim)
        for record in self.records():
            if record_matches(record, where):
                yield record

    def query(self) -> "Query":
        """A fluent filter/group/aggregate view over this store."""
        from .query import Query  # late: query builds on us

        return Query(self)

    def exists(self) -> bool:
        """Is there anything on disk to read?"""
        return self.path.exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.records())

    def __contains__(self, key: str) -> bool:
        return key in self.completed_keys()

    # -- writing -------------------------------------------------------

    def _write_many(self, records: list[dict[str, Any]]) -> None:
        """Durably persist a chunk of schema-stamped records (override me)."""
        raise NotImplementedError

    def append(self, record: dict[str, Any]) -> None:
        """Durably append one record."""
        self.append_many([record])

    def append_many(self, records: list[dict[str, Any]]) -> None:
        """Append a chunk of records with a single durability barrier."""
        if not records:
            return
        stamped = [dict(r, schema=SCHEMA_VERSION) for r in records]
        self._write_many(stamped)
        if self._completed is not None:
            self._completed.update(
                r["key"] for r in stamped if "error" not in r
            )
        if self._errored is not None:
            # completed_keys() (loaded if needed) — not a bare
            # ``self._completed or set()`` — so an error appended for a
            # cell that already succeeded on disk never enters the
            # errored set (the contract: error_keys() lists cells whose
            # ONLY outcome is an error).
            known_done = self.completed_keys()
            self._errored |= {
                r["key"] for r in stamped
                if "error" in r and r["key"] not in known_done
            }
            self._errored -= {r["key"] for r in stamped if "error" not in r}

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Release backend resources (no-op for file-per-write backends)."""

    def uri(self) -> str:
        return f"{self.scheme}:{self.path}" if self.scheme else str(self.path)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({str(self.path)!r})"


#: Path suffixes that imply the SQLite backend when no scheme is given.
SQLITE_SUFFIXES = frozenset({".db", ".sqlite", ".sqlite3"})


#: URI scheme -> (module, class) of each backend.  :func:`open_store`
#: imports only the backend it opens (late imports also avoid cycles).
_BACKENDS = {"jsonl": (".jsonl", "JsonlStore"),
             "sqlite": (".sqlite", "SqliteStore")}


def _backend(scheme: str) -> Callable[..., ResultStore]:
    module, name = _BACKENDS[scheme]
    return getattr(importlib.import_module(module, __package__), name)


def store_backends() -> dict[str, Callable[..., ResultStore]]:
    """scheme -> backend class (imports every backend)."""
    return {scheme: _backend(scheme) for scheme in _BACKENDS}


def open_store(
    target: "str | os.PathLike[str] | ResultStore",
    *,
    campaign: str | None = None,
) -> ResultStore:
    """Resolve a store URI, path, or instance to a :class:`ResultStore`.

    ``scheme:path`` selects a backend explicitly (``jsonl:``/``sqlite:``);
    a bare path picks SQLite for :data:`SQLITE_SUFFIXES` and JSONL
    otherwise.  An existing instance passes through — adopting
    ``campaign`` if it has none, so results written through an
    API-constructed store carry the same tag the CLI later scopes its
    reads by (an explicitly tagged instance always wins).
    """
    if isinstance(target, ResultStore):
        if campaign is not None and target.campaign is None:
            target.campaign = campaign
            target._completed = None  # the caches were read unscoped
            target._errored = None
        return target
    text = os.fspath(target)
    scheme, sep, rest = text.partition(":")
    if sep and scheme in _BACKENDS:
        if not rest:
            raise ConfigurationError(f"store URI {text!r} is missing a path")
        return _backend(scheme)(rest, campaign=campaign)
    if sep and _DIM_RE.match(scheme) and len(scheme) > 1:
        # looks like a scheme (not a Windows drive letter), but unknown
        raise ConfigurationError(
            f"unknown store scheme {scheme!r} (choose from {sorted(_BACKENDS)})")
    path = Path(text)
    cls = _backend("sqlite" if path.suffix in SQLITE_SUFFIXES else "jsonl")
    return cls(path, campaign=campaign)
