"""Named factories turning a :class:`CellConfig` into a live engine.

Campaign cells (and CLI invocations) refer to algorithms, adversaries and
schedulers *by name* so they stay picklable and serialisable; this module
owns the name → constructor mapping and the one function that matters:
:func:`build_cell_engine`, which assembles a ready-to-run
:class:`~repro.core.engine.Engine` from a cell.

The tables here are the single source of truth — ``repro.cli`` routes its
``run``/``watch``/``list`` commands through them too, so a name accepted
on the command line is exactly a name accepted in a campaign spec.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from ..adversary.simple import (
    FixedMissingEdge,
    NoRemoval,
    PeriodicMissingEdge,
    RandomMissingEdge,
)
from ..algorithms import (
    ETExactSizeNoChirality,
    ETUnconscious,
    KnownUpperBound,
    LandmarkNoChirality,
    LandmarkWithChirality,
    PTBoundNoChirality,
    PTBoundWithChirality,
    PTLandmarkNoChirality,
    PTLandmarkWithChirality,
    StartFromLandmarkNoChirality,
    UnconsciousExploration,
)
from ..core.engine import TransportModel
from ..core.errors import ConfigurationError
from ..core.interfaces import ActivationScheduler, Algorithm, EdgeAdversary
from ..schedulers import (
    ETFairScheduler,
    FsyncScheduler,
    RandomFairScheduler,
    RoundRobinScheduler,
)
from .spec import CellConfig, resolve_positions

if TYPE_CHECKING:  # pragma: no cover
    from ..adversary.impossibility import Theorem19Adversary
    from ..core.engine import Engine


def _bound(cell: CellConfig) -> int:
    return cell.bound if cell.bound is not None else cell.ring_size


@dataclass(frozen=True)
class AlgorithmEntry:
    """Everything the CLI and executor need to instantiate one algorithm."""

    factory: Callable[[CellConfig], Algorithm]
    needs_landmark: bool
    default_agents: int
    transport: TransportModel
    placement_override: str | None = None


#: name -> how to build it (same names as ``python -m repro run``).
ALGORITHMS: dict[str, AlgorithmEntry] = {
    "known-bound": AlgorithmEntry(
        lambda c: KnownUpperBound(bound=_bound(c)), False, 2, TransportModel.NS),
    "unconscious": AlgorithmEntry(
        lambda c: UnconsciousExploration(), False, 2, TransportModel.NS),
    "landmark-chirality": AlgorithmEntry(
        lambda c: LandmarkWithChirality(), True, 2, TransportModel.NS),
    "landmark-no-chirality": AlgorithmEntry(
        lambda c: LandmarkNoChirality(), True, 2, TransportModel.NS),
    "start-from-landmark": AlgorithmEntry(
        lambda c: StartFromLandmarkNoChirality(), True, 2, TransportModel.NS,
        placement_override="origin"),
    "pt-bound": AlgorithmEntry(
        lambda c: PTBoundWithChirality(bound=_bound(c)), False, 2, TransportModel.PT),
    "pt-landmark": AlgorithmEntry(
        lambda c: PTLandmarkWithChirality(), True, 2, TransportModel.PT),
    "pt-bound-3": AlgorithmEntry(
        lambda c: PTBoundNoChirality(bound=_bound(c)), False, 3, TransportModel.PT),
    "pt-landmark-3": AlgorithmEntry(
        lambda c: PTLandmarkNoChirality(), True, 3, TransportModel.PT),
    "et-unconscious": AlgorithmEntry(
        lambda c: ETUnconscious(), False, 2, TransportModel.ET),
    # ``bound`` lets the algorithm believe a ring size other than the
    # host's (the Theorem 19 indistinguishability construction).
    "et-exact": AlgorithmEntry(
        lambda c: ETExactSizeNoChirality(ring_size=_bound(c)), False, 3,
        TransportModel.ET),
}

def _construction(module: str, name: str) -> Any:
    """A proof construction's class from ``repro.adversary.<module>``,
    imported when a cell first builds one: most runs never do."""
    return getattr(importlib.import_module(f"..adversary.{module}",
                                           __package__), name)


def _theorem19(cell: CellConfig) -> "Theorem19Adversary":
    if cell.bound is None:
        raise ConfigurationError(
            "adversary 'theorem19' needs bound=n1 (the small ring size the "
            "algorithm believes in); the cell's ring_size is the host ring")
    return _construction("impossibility", "Theorem19Adversary")(
        small_size=cell.bound)


#: name -> adversary factory.  The last four are the impossibility /
#: lower-bound constructions of Tables 1/3 and Figure 2; those listed in
#: COMBINED_ADVERSARIES also control the activation schedule, and
#: ``scheduler="auto"`` resolves to the same instance for them.
#: ``adversary_arg`` parameterises constructions that need a knob
#: (zig-zag excursion cap; defaults follow the benches).
ADVERSARIES: dict[str, Callable[[CellConfig], EdgeAdversary]] = {
    "none": lambda c: NoRemoval(),
    "random": lambda c: RandomMissingEdge(seed=c.seed),
    "fixed": lambda c: FixedMissingEdge(c.edge),
    "periodic": lambda c: PeriodicMissingEdge(c.edge, period=4, duty=2),
    "block-agent": lambda c: _construction("blocking", "BlockAgentAdversary")(0),
    "prevent-meetings": lambda c: _construction(
        "blocking", "MeetingPreventionAdversary")(),
    "ns-starvation": lambda c: _construction(
        "impossibility", "NSStarvationAdversary")(),
    "figure2": lambda c: _construction(
        "worst_case", "Figure2Schedule")(anchor=c.edge),
    "theorem19": _theorem19,
    "zigzag": lambda c: _construction("worst_case", "ZigZagForcingAdversary")(
        cap=c.adversary_arg if c.adversary_arg is not None
        else max(1, c.ring_size // 3)),
}

#: Adversaries that are also the scheduler (the paper's single adversary
#: controls both the missing edge and the activation set).
COMBINED_ADVERSARIES = frozenset({"ns-starvation", "theorem19", "zigzag"})

#: name -> scheduler factory ("auto" resolves from the transport model).
SCHEDULERS: dict[str, Callable[[CellConfig], ActivationScheduler]] = {
    "fsync": lambda c: FsyncScheduler(),
    "random-fair": lambda c: RandomFairScheduler(seed=c.seed + 1),
    "round-robin": lambda c: RoundRobinScheduler(),
    "et-fair": lambda c: ETFairScheduler(RandomFairScheduler(seed=c.seed + 1)),
}

#: transport -> scheduler name used when a cell says ``scheduler="auto"``.
AUTO_SCHEDULER = {
    TransportModel.NS: "fsync",
    TransportModel.PT: "random-fair",
    TransportModel.ET: "et-fair",
}


def cell_scheduler(cell: CellConfig, adversary: EdgeAdversary) -> ActivationScheduler:
    """The activation scheduler ``cell`` runs under.

    ``"auto"`` hands activation to a combined ``adversary`` — the
    construction controls both, one instance playing both roles exactly
    as the proofs state it — and otherwise follows the transport model.
    """
    if cell.scheduler != "auto":
        return SCHEDULERS[cell.scheduler](cell)
    if cell.adversary in COMBINED_ADVERSARIES:
        return adversary  # type: ignore[return-value]
    return SCHEDULERS[AUTO_SCHEDULER[TransportModel(cell.transport)]](cell)


def default_horizon(transport: TransportModel, ring_size: int) -> int:
    """The CLI's generous default horizon per transport model."""
    return 400 * ring_size if transport is TransportModel.NS else 20_000


def validate_cell(cell: CellConfig) -> None:
    """Fail fast on names the registry does not know."""
    if cell.topology not in TOPOLOGIES:
        raise ConfigurationError(
            f"unknown topology {cell.topology!r} (choose from {sorted(TOPOLOGIES)})")
    if cell.faults:
        # Late import: resilience is a leaf package, but keep the
        # registry importable without it on the module path.
        from ..resilience.faults import FaultPlan
        FaultPlan.parse(cell.faults).validate_agents(cell.agents)
    if is_graph_cell(cell):
        # Graph cells run on the same unified core as ring cells: any
        # scheduler/transport combination, plus every adversary with a
        # topology-generic construction (the registry wraps single-edge
        # look-ahead adversaries to stay connectivity-preserving).
        if cell.adversary not in GRAPH_ADVERSARIES:
            raise ConfigurationError(
                f"adversary {cell.adversary!r} cannot drive topology "
                f"{cell.topology!r} (choose from {sorted(GRAPH_ADVERSARIES)})")
        if (cell.adversary in _PEEKING_GRAPH_ADVERSARIES
                and cell.algorithm not in _DETERMINISTIC_EXPLORERS):
            raise ConfigurationError(
                f"peeking adversary {cell.adversary!r} needs a deterministic "
                f"explorer (choose from {sorted(_DETERMINISTIC_EXPLORERS)}): "
                f"peeking {cell.algorithm!r} would advance its RNG and make "
                "results depend on how often the adversary looks ahead")
        if cell.scheduler != "auto" and cell.scheduler not in SCHEDULERS:
            raise ConfigurationError(
                f"unknown scheduler {cell.scheduler!r} "
                f"(choose from {sorted(SCHEDULERS)})")
        TransportModel(cell.transport)
        return
    if cell.topology != "ring":
        raise ConfigurationError(
            f"algorithm {cell.algorithm!r} is ring-specific; topology "
            f"{cell.topology!r} needs a graph explorer "
            f"(choose from {sorted(GRAPH_EXPLORERS)})")
    if cell.algorithm not in ALGORITHMS:
        raise ConfigurationError(
            f"unknown algorithm {cell.algorithm!r} "
            f"(choose from {sorted(ALGORITHMS) + sorted(GRAPH_EXPLORERS)})")
    if cell.adversary not in ADVERSARIES:
        raise ConfigurationError(
            f"unknown adversary {cell.adversary!r} (choose from {sorted(ADVERSARIES)})")
    if cell.scheduler != "auto" and cell.scheduler not in SCHEDULERS:
        raise ConfigurationError(
            f"unknown scheduler {cell.scheduler!r} (choose from {sorted(SCHEDULERS)})")
    TransportModel(cell.transport)


def build_cell_engine(cell: CellConfig, *, trace=None) -> "Engine":
    """Assemble the engine a cell describes (deterministic given the cell).

    One entry point for every topology: ring-algorithm cells build the
    ring facade, explorer cells the dynamic-graph facade — both are thin
    constructors over the same :class:`~repro.core.sim.SimulationCore`.
    """
    from ..api import build_engine  # late import: api is a facade over us too

    validate_cell(cell)
    if is_graph_cell(cell):
        return _attach_faults(cell, _build_graph_engine(cell, trace=trace))
    entry = ALGORITHMS[cell.algorithm]
    transport = TransportModel(cell.transport)
    placement = entry.placement_override or cell.placement
    positions = resolve_positions(
        placement,
        ring_size=cell.ring_size,
        agents=cell.agents,
        positions=cell.positions if placement == "explicit" else None,
    )
    adversary = ADVERSARIES[cell.adversary](cell)
    landmark = cell.landmark
    if landmark is None and entry.needs_landmark:
        landmark = 0
    return _attach_faults(cell, build_engine(
        entry.factory(cell),
        ring_size=cell.ring_size,
        positions=positions,
        landmark=landmark,
        chirality=cell.chirality,
        flipped=cell.flipped,
        adversary=adversary,
        scheduler=cell_scheduler(cell, adversary),
        transport=transport,
        trace=trace,
        # Campaign cells opt *in* to the per-round model audit: sweeps pay
        # for it only when a cell explicitly asks (unlike direct engine
        # construction, which defaults the audit on under pytest).
        debug_invariants=cell.debug_invariants,
    ))


def _attach_faults(cell: CellConfig, engine):
    engine.set_fault_plan(fault_injector(cell))
    return engine


def fault_injector(cell: CellConfig):
    """The cell's per-run fault injector (``None`` when fault-free).

    Seeded from the cell seed, so a faulty cell replays deterministically
    and every engine or batch row built from the same cell injects the
    same fault schedule.
    """
    if not cell.faults:
        return None
    from ..resilience.faults import FaultPlan
    return FaultPlan.parse(cell.faults).injector(seed=cell.seed)


# ---------------------------------------------------------------------------
# beyond-the-paper topologies (campaign dimension ``topology``)
# ---------------------------------------------------------------------------

def _torus_dims(n: int) -> tuple[int, int]:
    """The most-square ``rows x cols = n`` factorisation with both >= 3."""
    for rows in range(math.isqrt(n), 2, -1):
        if n % rows == 0 and n // rows >= 3:
            return rows, n // rows
    raise ConfigurationError(
        f"topology 'torus' needs ring_size = rows * cols with both >= 3 "
        f"(got {n})")


def _make_ring(cell: CellConfig) -> Any:
    from ..extensions.dynamic_graph import ring_graph

    return ring_graph(cell.ring_size)


def _make_path(cell: CellConfig) -> Any:
    from ..extensions.dynamic_graph import path_graph

    return path_graph(cell.ring_size)


def _make_torus(cell: CellConfig) -> Any:
    from ..extensions.dynamic_graph import torus

    return torus(*_torus_dims(cell.ring_size))


def _make_cactus(cell: CellConfig) -> Any:
    from ..extensions.dynamic_graph import cactus_graph

    return cactus_graph(cell.ring_size)


#: topology name -> graph builder (``ring_size`` is the node count for
#: every topology; the torus factorises it into the most-square grid).
#: ``"ring"`` doubles as the marker for the paper's native ring engine.
TOPOLOGIES: dict[str, Callable[[CellConfig], Any]] = {
    "ring": _make_ring,
    "path": _make_path,
    "torus": _make_torus,
    "cactus": _make_cactus,
}


def _make_random_walk(cell: CellConfig) -> Any:
    from ..extensions.explorers import RandomWalkExplorer

    return RandomWalkExplorer(seed=cell.seed)


def _make_rotor_router(cell: CellConfig) -> Any:
    from ..extensions.explorers import RotorRouterExplorer

    return RotorRouterExplorer()


def _make_rotor_router_terminating(cell: CellConfig) -> Any:
    from ..extensions.explorers import TerminatingRotorRouter

    # ``bound`` lets the explorer believe a node count other than the
    # host's (mirroring the ring's known-bound protocols); by default it
    # is told the truth.
    return TerminatingRotorRouter(size=_bound(cell))


#: algorithm names that select the dynamic-graph facade (they work on
#: every topology, including ``"ring"`` — useful for cross-checks).
GRAPH_EXPLORERS: dict[str, Callable[[CellConfig], Any]] = {
    "random-walk": _make_random_walk,
    "rotor-router": _make_rotor_router,
    "rotor-router-terminating": _make_rotor_router_terminating,
}

#: explorers that need the node-identity oracle (the documented model
#: strengthening of :mod:`repro.extensions.explorers`).
_ORACLE_EXPLORERS = frozenset({"rotor-router", "rotor-router-terminating"})

#: adversary names valid for graph cells.  "none"/"random" build the
#: graph-native adversaries; the rest are the paper's look-ahead
#: constructions, ported off the ring: "block-agent" (Observation 1),
#: "prevent-meetings" (Observation 2, its prediction resolved through
#: the generic topology) and "ns-starvation" (Theorem 9, an adversary
#: that is also the scheduler).  All three are made legal on arbitrary
#: topologies by the connectivity-safe wrapper: an illegal (bridge)
#: removal becomes "remove nothing", which on the path — where every
#: edge is a bridge — is exactly the degree-2 boundary of their power
#: (the ``impossibility-path`` preset sweeps that contrast).  The
#: remaining ring adversaries name edges by integer index or read the
#: ring algebra, so they stay ring-only.
GRAPH_ADVERSARIES = frozenset(
    {"none", "random", "block-agent", "prevent-meetings", "ns-starvation"})

#: graph adversaries that simulate agents' next Compute (peek).  Peeks
#: are only side-effect-free for *deterministic* explorers: the seeded
#: random walk keeps a live RNG in its memory, which a speculative
#: Compute would advance — making results depend on how often the
#: adversary peeks.  validate_cell rejects those combinations outright.
_PEEKING_GRAPH_ADVERSARIES = frozenset(
    {"block-agent", "prevent-meetings", "ns-starvation"})

#: explorers whose Compute is a pure function of snapshot + memory.
_DETERMINISTIC_EXPLORERS = frozenset({"rotor-router", "rotor-router-terminating"})


def is_graph_cell(cell: CellConfig) -> bool:
    """Does this cell run on the dynamic-graph facade?"""
    return cell.algorithm in GRAPH_EXPLORERS


def _build_graph_engine(cell: CellConfig, *, trace=None) -> Any:
    """Assemble a :class:`~repro.extensions.dynamic_graph.DynamicGraphEngine`.

    ``ring_size`` is read as the node count, placements resolve over node
    labels ``0..n-1`` exactly as on the ring, ``seed`` feeds the explorer
    (random walk), the scheduler and the connectivity-preserving
    adversary, and scheduler/transport resolve exactly as for ring cells
    (``"auto"`` follows the transport model).  Requires networkx (like
    everything in :mod:`repro.extensions`).
    """
    from ..extensions.dynamic_graph import (
        ConnectivityPreservingAdversary,
        ConnectivitySafeAdversary,
        DynamicGraphEngine,
        StaticGraphAdversary,
    )

    graph = TOPOLOGIES[cell.topology](cell)
    node_count = graph.number_of_nodes()
    positions = resolve_positions(
        cell.placement,
        ring_size=node_count,
        agents=cell.agents,
        positions=cell.positions if cell.placement == "explicit" else None,
    )
    transport = TransportModel(cell.transport)
    if cell.adversary == "none":
        adversary = StaticGraphAdversary()
    elif cell.adversary == "random":
        adversary = ConnectivityPreservingAdversary(budget=1, seed=cell.seed)
    else:
        # The connectivity-safe wrapper forwards ``select`` (a combined
        # adversary still schedules) and only constrains the removal.
        adversary = ConnectivitySafeAdversary(ADVERSARIES[cell.adversary](cell))
    explorer = GRAPH_EXPLORERS[cell.algorithm](cell)
    engine = DynamicGraphEngine(
        graph, explorer, positions,
        adversary=adversary,
        scheduler=cell_scheduler(cell, adversary),
        transport=transport,
        trace=trace,
        landmark=cell.landmark,
        debug_invariants=cell.debug_invariants,
    )
    if cell.algorithm in _ORACLE_EXPLORERS:
        from ..extensions.explorers import attach_node_oracle

        attach_node_oracle(engine)  # the documented model strengthening
    return engine


def build_graph_cell_engine(cell: CellConfig, *, trace=None) -> Any:
    """Validate and build an explorer cell (graph-facade entry point).

    :func:`build_cell_engine` dispatches here automatically; this remains
    public for callers that want to *assert* a cell is a graph cell.
    """
    validate_cell(cell)
    if not is_graph_cell(cell):
        raise ConfigurationError(
            f"cell {cell.algorithm!r} runs on the ring engine; "
            "use build_cell_engine")
    return _build_graph_engine(cell, trace=trace)
