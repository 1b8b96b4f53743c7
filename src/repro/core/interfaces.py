"""Structural interfaces tying the engine to its pluggable parts.

Three parties interact with the engine every round, in this order:

1. the **edge adversary** picks the (at most one) missing edge — it is
   adaptive and omniscient, exactly like the adversaries in the paper's
   proofs, and may even simulate agents' next decisions through
   :meth:`repro.core.engine.Engine.peek_intended_action`;
2. the **activation scheduler** picks the non-empty set of active agents
   (FSYNC: everyone), knowing the adversary's edge choice — this matches
   the paper, where the same adversary controls both; and
3. the **algorithm**, run once per active agent, maps a local snapshot and
   the agent's memory to an action.

These are :class:`typing.Protocol` classes: implementations in
:mod:`repro.adversary`, :mod:`repro.schedulers` and :mod:`repro.algorithms`
only need the methods, not an import of a base class (duck typing keeps the
core free of dependency cycles).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Hashable, Protocol, runtime_checkable

from .actions import Action
from .memory import AgentMemory
from .snapshot import Snapshot

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .agent import AgentState
    from .engine import Engine


@runtime_checkable
class Topology(Protocol):
    """The static structure one simulation runs on (ring, torus, ...).

    The topology-generic core (:class:`repro.core.sim.SimulationCore`)
    owns the round loop, the occupancy index, the peek cache, tracing and
    the invariant audit; everything it needs to know about the *shape* of
    the network goes through this protocol.  Two implementations ship:
    :class:`repro.core.topology.RingTopology` (the paper's dynamic ring,
    ports are :class:`~repro.core.directions.GlobalDirection` tokens) and
    :class:`repro.extensions.dynamic_graph.GraphTopology` (arbitrary
    port-labelled graphs, ports are integers ``0..deg-1``).

    Port tokens must be hashable and identity-stable (the core compares
    them with ``is``/``==`` and uses them as dict keys); edge ids must be
    hashable (ints on the ring, ``frozenset({u, v})`` on graphs).

    ``oriented`` declares whether agents carry the left/right orientation
    algebra: on oriented topologies MOVE actions name a local direction
    (resolved through the agent's orientation), on unoriented ones they
    name a port token directly.
    """

    #: number of nodes (exploration completes when all are visited)
    size: int
    #: the unique observable node, or ``None`` (Section 2.1's landmark)
    landmark: Any
    #: whether agents' orientation algebra applies (rings: yes)
    oriented: bool

    def normalize(self, node: Any) -> Any:
        """Map a caller-supplied start position onto a node id."""

    def edge_from(self, node: Any, port: Hashable) -> Hashable:
        """The edge id behind ``port`` of ``node``."""

    def neighbor(self, node: Any, port: Hashable) -> Any:
        """The node reached by traversing ``port`` of ``node``."""

    def canonical_edge(self, edge: Any) -> Hashable:
        """Normalise an adversary-supplied edge id (graphs: frozenset)."""

    def validate_edge(self, edge: Any) -> None:
        """Raise ``AdversaryViolation`` unless removing ``edge`` this
        round is legal (it exists and the footprint stays connected)."""

    def validate_missing(self, missing: set) -> None:
        """Raise ``AdversaryViolation`` unless removing the whole edge
        set leaves the footprint connected (1-interval connectivity)."""

    def removable(self, edge: Any) -> bool:
        """Whether removing ``edge`` alone keeps the footprint connected
        (used by adversaries to stay inside the model's constraint)."""

    def edge_label(self, edge: Any) -> str:
        """Human-readable edge name for trace details."""

    def snapshot(self, agent: "AgentState", interior: int, holders: dict) -> Any:
        """Build the agent's Look snapshot from its node's occupancy-index
        entry (``interior`` head-count *including* the observer when it
        stands in the interior; ``holders`` maps port -> agent index)."""


@runtime_checkable
class EdgeAdversary(Protocol):
    """Chooses which single edge (if any) is missing each round.

    Adversaries that remove *sets* of edges per round (general dynamic
    graphs) instead expose ``missing_edges(engine) -> iterable`` — the
    core auto-detects which of the two methods an adversary implements.
    """

    def reset(self, engine: "Engine") -> None:
        """Called once before round 0 with the fully built engine."""

    def choose_missing_edge(self, engine: "Engine") -> int | None:
        """Return the missing edge index for this round, or ``None``."""


@runtime_checkable
class ActivationScheduler(Protocol):
    """Chooses the non-empty activation set each round."""

    def reset(self, engine: "Engine") -> None:
        """Called once before round 0 with the fully built engine."""

    def select(self, engine: "Engine") -> set[int]:
        """Indices of agents active this round (non-terminated subset)."""


@runtime_checkable
class Algorithm(Protocol):
    """A deterministic exploration protocol, identical for all agents.

    Implementations must keep *all* per-agent state inside
    ``memory.vars`` — the algorithm object itself is shared between agents
    and must stay stateless, which is what makes adversarial look-ahead
    (``peek``) and deterministic replay possible.
    """

    name: str

    def setup(self, memory: AgentMemory) -> None:
        """Initialise ``memory.vars`` for one agent before round 0."""

    def compute(self, snapshot: Snapshot, memory: AgentMemory) -> Action:
        """The Compute step: map a Look snapshot to an action."""
