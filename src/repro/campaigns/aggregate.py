"""Reduce raw campaign records into the paper's table rows.

Two levels of reduction:

* :func:`metrics_from_result` flattens one :class:`~repro.core.results.RunResult`
  into the JSON-able metric dict the store keeps per cell;
* :func:`aggregate_records` groups stored records by configuration
  dimensions (default: variant label × ring size) and reduces each group
  to a :class:`TableRow` — the mean/max rounds and moves, exploration and
  termination statistics that Tables 1–4 report.

:func:`summarize_metrics` is the single-group reducer behind every row.
"""

from __future__ import annotations

import statistics
from collections import Counter
from dataclasses import dataclass, field
from dataclasses import fields as dataclass_fields
from typing import Any, Iterable, Mapping, Sequence

from ..core.errors import ConfigurationError
from ..core.results import RunResult


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) with linear interpolation.

    Matches numpy's default ("linear") method so report numbers agree
    with any offline analysis of the exported columnar data; implemented
    here (the lowest aggregation layer, no store dependencies) so both
    the table reducer below and the query layer's ``p50``/``p90``/``p99``
    series reducers share one definition.
    """
    if not values:
        raise ValueError("percentile of an empty group")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    frac = rank - low
    if frac == 0.0:
        return float(ordered[low])
    return ordered[low] * (1.0 - frac) + ordered[low + 1] * frac


def metrics_from_result(result: RunResult) -> dict[str, Any]:
    """Flatten a run outcome into the metric dict stored per cell."""
    out = {
        "rounds": result.rounds,
        "explored": result.explored,
        "exploration_round": result.exploration_round,
        "total_moves": result.total_moves,
        "terminated_count": result.terminated_count,
        "all_terminated": result.all_terminated,
        "last_termination_round": result.last_termination_round,
        "all_terminated_or_waiting": all(
            a.terminated or a.waiting_on_port for a in result.agents
        ),
        "halted_reason": result.halted_reason,
        "mode": result.termination_mode().value,
    }
    # The crash census only exists under a fault plan: fault-free
    # records keep the pre-resilience shape byte for byte (golden
    # stores, batch-vs-scalar diffs and store resume all rely on it).
    if result.crashed_count is not None:
        out["crashed_count"] = result.crashed_count
    return out


@dataclass(frozen=True)
class GroupStats:
    """Reduction of one group of metric dicts (one table cell family).

    ``p50``/``p90`` report the tails next to the mean: a sweep whose mean
    looks linear can still hide quadratic stragglers, and the percentile
    columns are where they show up.  (Defaults keep older call sites that
    construct :class:`GroupStats` positionally/partially working.)
    """

    runs: int
    mean_rounds: float
    max_rounds: int
    mean_moves: float
    max_moves: int
    mean_exploration_round: float | None
    all_explored: bool
    all_terminated: bool
    mean_last_termination_round: float | None
    max_last_termination_round: int | None
    modes: dict[str, int]
    p50_rounds: float = 0.0
    p90_rounds: float = 0.0
    p50_moves: float = 0.0
    p90_moves: float = 0.0


def summarize_metrics(metrics: Sequence[Mapping[str, Any]]) -> GroupStats:
    """Reduce metric dicts for one group; mean exploration round is only
    reported when *every* run explored (matching the paper's accounting)."""
    if not metrics:
        raise ValueError("cannot summarise an empty group")
    exploration = [
        m["exploration_round"] for m in metrics
        if m.get("exploration_round") is not None
    ]
    terminations = [
        m["last_termination_round"] for m in metrics
        if m.get("last_termination_round") is not None
    ]
    rounds = [m["rounds"] for m in metrics]
    moves = [m["total_moves"] for m in metrics]
    return GroupStats(
        runs=len(metrics),
        mean_rounds=statistics.fmean(rounds),
        max_rounds=max(rounds),
        mean_moves=statistics.fmean(moves),
        max_moves=max(moves),
        p50_rounds=percentile(rounds, 50),
        p90_rounds=percentile(rounds, 90),
        p50_moves=percentile(moves, 50),
        p90_moves=percentile(moves, 90),
        mean_exploration_round=(
            statistics.fmean(exploration)
            if len(exploration) == len(metrics) else None
        ),
        all_explored=all(m["explored"] for m in metrics),
        all_terminated=all(m.get("all_terminated", False) for m in metrics),
        mean_last_termination_round=(
            statistics.fmean(terminations) if terminations else None
        ),
        max_last_termination_round=(max(terminations) if terminations else None),
        # Sorted so rendering is independent of record arrival order
        # (parallel runs land records in nondeterministic order).
        modes=dict(sorted(Counter(m.get("mode", "?") for m in metrics).items())),
    )


@dataclass(frozen=True)
class TableRow:
    """One aggregated row: a group key plus its reduced statistics."""

    group: tuple[tuple[str, Any], ...]
    stats: GroupStats
    cells: tuple[str, ...] = field(default=(), repr=False)

    @property
    def label(self) -> str:
        return " ".join(f"{k}={v}" for k, v in self.group)

    def __str__(self) -> str:
        s = self.stats
        explored = (
            f"explored@~{s.mean_exploration_round:.1f}"
            if s.mean_exploration_round is not None
            else ("explored" if s.all_explored else "NOT always explored")
        )
        return (
            f"{self.label:<40} runs={s.runs:<3} rounds~{s.mean_rounds:.1f} "
            f"(p50 {s.p50_rounds:.0f}, p90 {s.p90_rounds:.0f}, max {s.max_rounds}) "
            f"moves~{s.mean_moves:.1f} "
            f"(p90 {s.p90_moves:.0f}, max {s.max_moves}) "
            f"{explored} modes={s.modes}"
        )


DEFAULT_GROUP_BY = ("label", "algorithm", "ring_size")


def _dimension_order(value: Any) -> tuple:
    """Sort key for one group-dimension value: numbers numerically first,
    then everything else lexically, ``None`` last."""
    if value is None:
        return (2, "", 0)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return (0, "", value)
    return (1, str(value), 0)


def aggregate_records(
    records: Iterable[Mapping[str, Any]],
    *,
    by: Sequence[str] = DEFAULT_GROUP_BY,
) -> list[TableRow]:
    """Group successful records by config dimensions and reduce each group.

    Records carrying an ``"error"`` field are excluded — they have no
    metrics.  Groups are ordered by their key values (numeric dimensions
    like ``ring_size`` numerically, so growth tables read top to bottom).
    """
    from .spec import CellConfig  # local import: spec does not import us

    valid = {f.name for f in dataclass_fields(CellConfig)}
    unknown = [dim for dim in by if dim not in valid]
    if unknown:
        raise ConfigurationError(
            f"unknown group-by dimension(s) {unknown} (choose from {sorted(valid)})")

    groups: dict[tuple, list[Mapping[str, Any]]] = {}
    keys: dict[tuple, list[str]] = {}
    for record in records:
        if "error" in record:
            continue
        config = record.get("config", {})
        gkey = tuple(
            (dim, tuple(v) if isinstance(v, list) else v)
            for dim, v in ((d, config.get(d)) for d in by)
        )
        groups.setdefault(gkey, []).append(record["metrics"])
        keys.setdefault(gkey, []).append(record["key"])
    return [
        TableRow(group=gkey, stats=summarize_metrics(groups[gkey]),
                 cells=tuple(keys[gkey]))
        for gkey in sorted(
            groups, key=lambda g: tuple(_dimension_order(v) for _, v in g))
    ]


def aggregate_store(
    store,
    *,
    by: Sequence[str] = DEFAULT_GROUP_BY,
    where: Mapping[str, Any] | None = None,
) -> list[TableRow]:
    """Aggregate a result store through its query layer.

    The store-aware twin of :func:`aggregate_records`: filters go through
    :meth:`~repro.campaigns.stores.Query.where`, so backends that can
    (SQLite) evaluate them with indexed SQL instead of a full scan.
    """
    query = store.query()
    if where:
        query = query.where(**where)
    return query.table(by=by)


def render_rows(rows: Sequence[TableRow], *, title: str = "") -> str:
    """Aligned text report for a list of table rows."""
    lines = []
    if title:
        lines.append(f"== {title}")
    lines.extend(str(row) for row in rows)
    if not rows:
        lines.append("(no completed cells)")
    return "\n".join(lines)
