"""Declarative sweep specifications for experiment campaigns.

A *campaign* is a family of simulation configurations — the cross product
of algorithms × adversaries × schedulers × ring sizes × agent counts ×
seeds — exactly the shape of the paper's Tables 1–4.  This module defines
the two value types everything else consumes:

* :class:`CellConfig` — one fully-resolved simulation configuration (one
  "cell" of a table).  Cells are frozen, hashable, JSON-serialisable, and
  carry a stable content hash (:meth:`CellConfig.key`) used by the result
  store to recognise work that is already done.
* :class:`CampaignSpec` — the declarative sweep: a ``base`` configuration,
  a ``grid`` of dimensions to take the product over, and a list of
  ``variants`` (e.g. one per table row) that may override fields and pin
  or extend grid dimensions.  :meth:`CampaignSpec.cells` expands the spec
  into concrete :class:`CellConfig` objects.

Horizons are declarative too: ``horizon`` may be an integer or a string
expression over ``n`` (ring size), ``N`` (the known bound), ``k`` (agent
count) and the paper's closed-form bounds (``known_bound_time(n)``,
``no_chirality_timeout(n)``, …), so a spec written as JSON/YAML can still
say "run Theorem 8 to its O(n log n) deadline".
"""

from __future__ import annotations

import ast
import functools
import hashlib
import itertools
import json
import math
from dataclasses import MISSING, dataclass, field, fields, replace
from operator import attrgetter
from typing import Any, Iterator, Mapping, Sequence

from ..core.errors import ConfigurationError
from ..theory import bounds as _bounds

#: Functions callable inside a ``horizon`` expression.
_HORIZON_FUNCS = {
    "log2": math.log2,
    "ceil": math.ceil,
    "floor": math.floor,
    "min": min,
    "max": max,
    "known_bound_time": _bounds.fsync_known_bound_time,
    "no_chirality_timeout": _bounds.no_chirality_timeout,
}

_HORIZON_OPS = {
    ast.Add: lambda a, b: a + b,
    ast.Sub: lambda a, b: a - b,
    ast.Mult: lambda a, b: a * b,
    ast.Div: lambda a, b: a / b,
    ast.FloorDiv: lambda a, b: a // b,
    ast.Mod: lambda a, b: a % b,
    ast.Pow: lambda a, b: a ** b,
}

#: How initial agent positions are derived from (ring_size, agents).
PLACEMENTS = ("spread", "offset-spread", "thirds", "origin", "explicit")


def _eval_horizon_node(node: ast.AST, variables: Mapping[str, int]):
    """Evaluate one node of a horizon expression's AST.

    Spec files are data, possibly from untrusted sources, so this is a
    closed arithmetic interpreter — numbers, ``n``/``N``/``k``, the
    whitelisted functions, and basic operators — never ``eval``.
    """
    if isinstance(node, ast.Expression):
        return _eval_horizon_node(node.body, variables)
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)) \
            and not isinstance(node.value, bool):
        return node.value
    if isinstance(node, ast.Name):
        if node.id in variables:
            return variables[node.id]
        raise ConfigurationError(f"unknown horizon variable {node.id!r}")
    if isinstance(node, ast.BinOp) and type(node.op) in _HORIZON_OPS:
        return _HORIZON_OPS[type(node.op)](
            _eval_horizon_node(node.left, variables),
            _eval_horizon_node(node.right, variables),
        )
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        value = _eval_horizon_node(node.operand, variables)
        return -value if isinstance(node.op, ast.USub) else value
    if isinstance(node, ast.Call):
        if (not isinstance(node.func, ast.Name)
                or node.func.id not in _HORIZON_FUNCS
                or node.keywords):
            raise ConfigurationError("only the whitelisted horizon functions are callable")
        args = [_eval_horizon_node(a, variables) for a in node.args]
        return _HORIZON_FUNCS[node.func.id](*args)
    raise ConfigurationError(
        f"unsupported syntax in horizon expression: {ast.dump(node)[:80]}")


def resolve_horizon(horizon: int | str, *, n: int, bound: int | None, agents: int) -> int:
    """Evaluate a horizon spec to a round count for one cell.

    Integers pass through; strings are arithmetic expressions over
    ``n``/``N``/``k`` and the closed-form bound helpers, evaluated by a
    restricted AST interpreter (specs may come from untrusted files).
    """
    if isinstance(horizon, bool) or not isinstance(horizon, (int, str)):
        raise ConfigurationError(f"horizon must be int or str, got {horizon!r}")
    if isinstance(horizon, str):
        return _expression_rounds(horizon, n, bound, agents)
    return _positive_rounds(horizon, horizon)


@functools.lru_cache(maxsize=1024, typed=True)
def _expression_rounds(expression: str, n: int, bound: int | None,
                       agents: int) -> int:
    """:func:`resolve_horizon` of an expression, memoised.

    A sweep asks for a handful of distinct ``(expression, n, bound, k)``
    over thousands of cells, and parsing dominates.  ``typed`` keeps
    ``True`` and ``1`` apart; a refusal raises (so is not cached) on
    every call.
    """
    variables = {"n": n, "N": bound if bound is not None else n, "k": agents}
    try:
        tree = ast.parse(expression, mode="eval")
    except SyntaxError as exc:
        raise ConfigurationError(f"bad horizon expression {expression!r}: {exc}") from exc
    try:
        value = _eval_horizon_node(tree, variables)
    except Exception as exc:
        raise ConfigurationError(f"bad horizon expression {expression!r}: {exc}") from exc
    return _positive_rounds(expression, value)


def _positive_rounds(horizon: int | str, value) -> int:
    value = int(value)
    if value <= 0:
        raise ConfigurationError(f"horizon {horizon!r} resolved to {value} <= 0")
    return value


def resolve_positions(
    placement: str,
    *,
    ring_size: int,
    agents: int,
    positions: Sequence[int] | None = None,
) -> tuple[int, ...]:
    """Turn a placement policy into concrete starting nodes."""
    if placement == "explicit":
        if positions is None:
            raise ConfigurationError("placement 'explicit' requires positions")
        return tuple(int(p) % ring_size for p in positions)
    if positions is not None:
        raise ConfigurationError(f"positions given but placement is {placement!r}")
    if placement == "spread":
        return tuple((i * ring_size) // agents for i in range(agents))
    if placement == "offset-spread":
        return tuple(1 + (i * ring_size) // agents for i in range(agents))
    if placement == "thirds":
        return tuple(1 + (i * ring_size) // 3 for i in range(agents))
    if placement == "origin":
        return (0,) * agents
    raise ConfigurationError(f"unknown placement {placement!r} (choose from {PLACEMENTS})")


@dataclass(frozen=True)
class CellConfig:
    """One fully-resolved simulation configuration.

    Everything needed to rebuild the engine deterministically lives here,
    as plain JSON-able values — names into the campaign registry, never
    live objects — so cells can cross process boundaries and be hashed
    into stable result-store keys.
    """

    algorithm: str
    ring_size: int
    max_rounds: int
    agents: int = 2
    seed: int = 0
    adversary: str = "random"
    scheduler: str = "auto"
    transport: str = "ns"
    topology: str = "ring"
    landmark: int | None = None
    chirality: bool = True
    flipped: tuple[int, ...] = ()
    placement: str = "spread"
    positions: tuple[int, ...] | None = None
    bound: int | None = None
    edge: int = 0
    adversary_arg: int | None = None
    stop_on_exploration: bool = False
    debug_invariants: bool = False
    #: Fault plan spec (``repro.resilience.faults.FaultPlan.parse``
    #: grammar, e.g. ``"crash:1@4"``/``"lost:*"``/``"rate:0.01"``) —
    #: empty string = fault-free.  A simulation-affecting dimension, so
    #: it participates in :meth:`key` (excluded only at its default, so
    #: pre-resilience stores keep resuming).
    faults: str = ""
    label: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "flipped", tuple(self.flipped or ()))
        if self.positions is not None:
            object.__setattr__(self, "positions", tuple(self.positions))
        if self.ring_size < 3:
            raise ConfigurationError(f"ring_size must be >= 3, got {self.ring_size}")
        if self.agents < 1:
            raise ConfigurationError(f"agents must be >= 1, got {self.agents}")
        if self.max_rounds < 1:
            raise ConfigurationError(f"max_rounds must be >= 1, got {self.max_rounds}")

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form (JSON-able, round-trips via :meth:`from_dict`).

        Keys follow the field order.  ``flipped`` and ``positions`` are
        the tuple fields (``__post_init__`` makes them tuples); they
        become lists, as JSON decodes them.
        """
        out = dict(zip(_FIELD_NAMES, _field_values(self)))
        out["flipped"] = list(self.flipped)
        if self.positions is not None:
            out["positions"] = list(self.positions)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CellConfig":
        # Records and queued chunks from before routing was a run-level
        # setting carry a ``batch`` field; it never entered the key.
        kwargs = dict(data)
        kwargs.pop("batch", None)
        unknown = kwargs.keys() - _FIELD_SET
        if unknown:
            raise ConfigurationError(f"unknown cell fields: {sorted(unknown)}")
        return cls(**kwargs)

    @classmethod
    def from_payload(
            cls, data: dict[str, Any]) -> tuple["CellConfig", dict[str, Any]]:
        """:meth:`from_dict` plus the cell's :meth:`to_dict` form.

        A queued chunk's payload holds each cell's ``to_dict()`` decoded
        from JSON, which is that form already, so ``data`` itself is
        returned; a payload with other keys (an old queue's ``batch``
        field) is encoded afresh.
        """
        cell = cls.from_dict(data)
        return cell, data if data.keys() == _FIELD_SET else cell.to_dict()

    def key(self) -> str:
        """Stable content hash identifying this cell in a result store.

        The hash covers every *simulation-affecting* field via canonical
        JSON — any change to the cell (a new seed, a different horizon)
        yields a fresh key, while re-expanding the same spec reproduces
        the same keys across runs and processes.  ``label`` is excluded
        (an aggregation tag: renaming a variant must not invalidate its
        cached results).  Fields grown after the first release
        (:data:`_KEY_EXCLUDED_DEFAULTS`) are excluded while at their
        default, so stores written by older versions still resume.
        """
        return self.key_from_dict(self.to_dict())

    @staticmethod
    def key_from_dict(data: Mapping[str, Any]) -> str:
        """:meth:`key` of the cell whose :meth:`to_dict` form (or its JSON
        round trip) is ``data``: a caller that encodes the cell anyway
        hashes the same dict instead of building a second one."""
        fields_for_hash = dict(data)
        fields_for_hash.pop("label", None)
        for name, default in _KEY_EXCLUDED_DEFAULTS.items():
            if name in fields_for_hash and fields_for_hash[name] == default:
                del fields_for_hash[name]
        canonical = canonical_json(fields_for_hash)
        return hashlib.sha256(canonical.encode()).hexdigest()[:24]

    def resolved_positions(self) -> tuple[int, ...]:
        return resolve_positions(
            self.placement,
            ring_size=self.ring_size,
            agents=self.agents,
            positions=self.positions,
        )


#: CellConfig's field names, in order (:meth:`CellConfig.to_dict`'s keys).
_FIELD_NAMES = tuple(f.name for f in fields(CellConfig))
_FIELD_SET = frozenset(_FIELD_NAMES)
_field_values = attrgetter(*_FIELD_NAMES)

#: JSON with sorted keys and no whitespace: the bytes store keys hash
#: and queue payloads carry (``json.dumps(..., sort_keys=True,
#: separators=(",", ":"))`` without building an encoder per call).
canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

#: Spec/variant keys that are control syntax, not CellConfig fields.
_SPEC_CONTROL_KEYS = {"grid", "label", "horizon"}

#: CellConfig fields without a default: every spec variant must set them
#: (``max_rounds`` directly or through a ``horizon``).
_REQUIRED_FIELDS = frozenset(
    f.name for f in fields(CellConfig) if f.default is MISSING)

#: Fields added after the first release, excluded from the content hash
#: while they sit at their default: a defaulted new field describes the
#: *same simulation* the old schema described, so pre-existing result
#: stores keep resuming instead of silently re-running every cell.
_KEY_EXCLUDED_DEFAULTS = {
    "topology": "ring",
    "adversary_arg": None,
    "debug_invariants": False,
    "faults": "",
}


@dataclass
class CampaignSpec:
    """A declarative sweep over cell configurations.

    ``base`` holds field defaults shared by every cell; ``grid`` maps
    field names to lists of values to take the cross product over;
    each entry of ``variants`` describes one sub-family (a table row):
    its scalar keys override ``base``, its optional ``"grid"`` entry
    overrides/extends the top-level grid, and its ``"label"`` tags the
    resulting cells for aggregation.  ``horizon`` (in ``base`` or a
    variant) is resolved per cell via :func:`resolve_horizon`.
    """

    name: str
    base: dict[str, Any] = field(default_factory=dict)
    grid: dict[str, Sequence[Any]] = field(default_factory=dict)
    variants: list[dict[str, Any]] = field(default_factory=lambda: [{}])
    description: str = ""

    def resolved_variants(self) -> list[dict[str, Any]]:
        """Flatten each variant into a self-contained description.

        Each entry carries everything expansion needs — merged scalars,
        the effective grid (variant scalars pin top-level dimensions),
        the horizon and the label — independent of this spec's ``base``
        and ``grid``.  :meth:`cells` expands these; :meth:`merged` reuses
        them to combine several specs into one campaign.
        """
        resolved = []
        for variant in self.variants or [{}]:
            merged = {**self.base, **variant}
            scalars = {k: v for k, v in merged.items() if k not in _SPEC_CONTROL_KEYS}
            variant_grid = variant.get("grid", {})
            grid = {**self.grid, **variant_grid}
            # A scalar set by the variant pins a dimension the top-level
            # grid sweeps (unless the variant re-sweeps it in its own grid).
            pinned = {k for k in variant if k not in _SPEC_CONTROL_KEYS}
            grid = {k: v for k, v in grid.items() if k in variant_grid or k not in pinned}
            entry = dict(scalars)
            entry["label"] = variant.get("label", "")
            entry["grid"] = grid
            if merged.get("horizon") is not None:
                entry["horizon"] = merged["horizon"]
            resolved.append(entry)
        return resolved

    def cells(self) -> Iterator[CellConfig]:
        """Expand the spec into concrete cells, deterministically ordered.

        Every variant is checked before the first cell is built, so a
        bad key fails the whole spec by name instead of surfacing per
        cell.
        """
        variants = self.resolved_variants()
        for variant in variants:
            self._check_variant(variant)
        from .registry import ALGORITHMS  # late: registry imports us

        for variant in variants:
            scalars = {
                k: v for k, v in variant.items() if k not in _SPEC_CONTROL_KEYS
            }
            grid = variant["grid"]
            horizon = variant.get("horizon")
            # Sorted keys make expansion order canonical: a spec serialised
            # through JSON/YAML (which may reorder dict keys) expands to the
            # same cell sequence as the original.
            keys = sorted(grid)
            for combo in itertools.product(*(grid[k] for k in keys)):
                cell_fields = dict(scalars, **dict(zip(keys, combo)))
                cell_fields.setdefault("label", variant["label"])
                if "agents" not in cell_fields:
                    # Respect the registry's per-algorithm default (e.g.
                    # et-exact is a 3-agent protocol) instead of the
                    # generic CellConfig default of 2.
                    entry = ALGORITHMS.get(cell_fields.get("algorithm"))
                    if entry is not None:
                        cell_fields["agents"] = entry.default_agents
                if horizon is not None and "max_rounds" not in cell_fields:
                    cell_fields["max_rounds"] = resolve_horizon(
                        horizon,
                        n=cell_fields["ring_size"],
                        bound=cell_fields.get("bound"),
                        agents=cell_fields.get("agents", 2),
                    )
                yield CellConfig(**cell_fields)

    def _check_variant(self, variant: Mapping[str, Any]) -> None:
        """Refuse a resolved variant whose keys cannot make cells."""
        given = variant.keys() - _SPEC_CONTROL_KEYS | variant["grid"].keys()
        if "batch" in given:
            # Cells dropped the field when routing became a run
            # setting; from_dict still drops it from stored records.
            raise ConfigurationError(
                f"spec {self.name!r}: 'batch' is no longer a cell "
                "field; choose the route per run with "
                "--batch auto|on|off")
        unknown = sorted(given - _FIELD_SET, key=str)
        if unknown:
            import difflib

            hints = []
            for key in unknown:
                close = difflib.get_close_matches(
                    str(key), [*_FIELD_NAMES, "horizon"], n=1)
                hints.append(repr(key) + (f" (did you mean {close[0]!r}?)"
                                          if close else ""))
            where = f"spec {self.name!r}" + (
                f", variant {variant['label']!r}" if variant["label"] else "")
            raise ConfigurationError(
                f"{where}: unknown key{'s' if len(unknown) > 1 else ''} "
                + ", ".join(hints))
        if variant.get("horizon") is not None:
            given |= {"max_rounds"}
        missing = sorted(_REQUIRED_FIELDS - given)
        if missing:
            raise ConfigurationError(
                f"spec {self.name!r}: cells need "
                + ", ".join(map(repr, missing))
                + (" (or a 'horizon')" if "max_rounds" in missing else ""))

    @classmethod
    def merged(
        cls, name: str, specs: Sequence["CampaignSpec"], *, description: str = ""
    ) -> "CampaignSpec":
        """Combine several specs into one campaign with all their variants."""
        variants: list[dict[str, Any]] = []
        for spec in specs:
            for variant in spec.resolved_variants():
                variant = dict(variant)
                if not variant["label"]:
                    variant["label"] = spec.name
                variants.append(variant)
        return cls(name=name, variants=variants, description=description)

    def cell_list(self) -> list[CellConfig]:
        return list(self.cells())

    def size(self) -> int:
        return sum(1 for _ in self.cells())

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "description": self.description,
            "base": dict(self.base),
            "grid": {k: list(v) for k, v in self.grid.items()},
            "variants": [dict(v) for v in self.variants],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignSpec":
        if "name" not in data:
            raise ConfigurationError("campaign spec needs a 'name'")
        return cls(
            name=data["name"],
            base=dict(data.get("base", {})),
            grid={k: list(v) for k, v in data.get("grid", {}).items()},
            variants=[dict(v) for v in data.get("variants", [{}])],
            description=data.get("description", ""),
        )

    def restricted(self, limit: int) -> "CampaignSpec":
        """A copy whose expansion yields at most ``limit`` cells (debugging aid)."""
        spec = replace(self)
        cells = self.cell_list()[:limit]
        spec.base, spec.grid = {}, {}
        spec.variants = [c.to_dict() for c in cells]
        return spec
