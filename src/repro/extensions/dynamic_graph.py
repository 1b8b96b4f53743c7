"""1-interval-connected dynamic graphs on the unified simulation core.

Generalises the ring model of the paper to arbitrary port-labelled graphs:

* nodes are anonymous; each node's incident edges appear as locally
  numbered ports ``0 .. deg-1`` (the standard port-labelled model);
* per round the adversary removes any edge set that leaves the footprint
  *connected* (1-interval connectivity, Class 9 of [13]);
* agents are Look-Compute-Move: they see their node's degree, which port
  they occupy (if blocked), how many other agents share the node, and the
  per-port agent occupancy; they request a port, win it in mutual
  exclusion, and cross iff the edge is present.

There is no graph-specific round loop: :class:`DynamicGraphEngine` is a
thin facade over :class:`repro.core.sim.SimulationCore` (the same core
the ring engine runs on), wired through :class:`GraphTopology` (structure
+ Look semantics) and :class:`ExplorerAlgorithm` (adapts the explorer
protocol to the core's Algorithm protocol).  That buys every topology the
full ring machinery for free: FSYNC/SSYNC schedulers, the NS/PT/ET
transport models, explicit termination, tracing, the occupancy index, the
peek cache (so look-ahead adversaries like
:class:`~repro.adversary.blocking.BlockAgentAdversary` work here too).
networkx is required.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Protocol, Sequence

from ..core.actions import Action, ENTER_NODE, move_to_port
from ..core.errors import AdversaryViolation, ConfigurationError
from ..core.memory import AgentMemory
from ..core.sim import SimulationCore, TransportModel


def ring_graph(n: int):
    """The paper's topology, for cross-checking against the ring engine."""
    import networkx as nx

    return nx.cycle_graph(n)


def path_graph(n: int):
    """The path on ``n`` nodes — the ring minus one edge, permanently.

    The harshest 1-interval-connected relative of the ring: removing any
    further edge disconnects it, so a connectivity-preserving adversary
    is forced to keep every edge alive.
    """
    import networkx as nx

    return nx.path_graph(n)


def cactus_graph(n: int):
    """A cactus on ``n`` nodes: a chain of triangles joined at cut vertices.

    Every edge lies on at most one cycle (the defining cactus property),
    which gives an adversary exactly one removable edge per cycle — the
    natural interpolation between the ring (one cycle) and a tree (none).
    A leftover node (even ``n``) becomes a pendant tail.
    """
    import networkx as nx

    if n < 3:
        raise ConfigurationError("a cactus needs at least 3 nodes")
    graph = nx.Graph()
    graph.add_node(0)
    last, next_id = 0, 1
    while n - graph.number_of_nodes() >= 2:
        a, b = next_id, next_id + 1
        next_id += 2
        graph.add_edges_from([(last, a), (a, b), (b, last)])
        last = b
    if graph.number_of_nodes() < n:
        graph.add_edge(last, next_id)  # pendant tail absorbs the odd node out
    return graph


def torus(rows: int, cols: int):
    """A rows x cols torus (the paper's suggested 'special topology')."""
    import networkx as nx

    graph = nx.grid_2d_graph(rows, cols, periodic=True)
    return nx.convert_node_labels_to_integers(graph, ordering="sorted")


def hypercube(dimension: int):
    """The d-dimensional hypercube."""
    import networkx as nx

    graph = nx.hypercube_graph(dimension)
    return nx.convert_node_labels_to_integers(graph, ordering="sorted")


@dataclass(frozen=True)
class GraphSnapshot:
    """What a graph agent sees during Look (local frame, anonymous).

    ``failed`` and ``is_landmark`` mirror the ring snapshot's predicates
    (a denied port acquisition last round; standing at the topology's
    optional landmark node) — both came along when the graph engine moved
    onto the unified core.  ``moved`` also adopted the ring semantics
    then: it reports whether the agent's *last traversal attempt*
    succeeded (sticky through rest/STAY rounds, cleared by a block or a
    denial), not the pre-unification "traversed in the immediately
    preceding round".
    """

    degree: int
    on_port: int | None          # port the agent occupies after a failed move
    others_in_node: int
    occupied_ports: frozenset[int]  # ports of this node held by other agents
    moved: bool
    failed: bool = False
    is_landmark: bool = False


#: Interning pool for Look snapshots (same rationale as
#: :func:`repro.core.snapshot.intern_snapshot`: the value space is tiny and
#: snapshots are immutable, so the Look phase reuses frozen instances).
_INTERNED_SNAPSHOTS: dict[tuple, GraphSnapshot] = {}

_EMPTY_PORTS: frozenset[int] = frozenset()


def _intern_graph_snapshot(
    degree: int,
    on_port: int | None,
    others_in_node: int,
    occupied_ports: frozenset[int],
    moved: bool,
    failed: bool,
    is_landmark: bool,
) -> GraphSnapshot:
    key = (degree, on_port, others_in_node, occupied_ports, moved, failed,
           is_landmark)
    snap = _INTERNED_SNAPSHOTS.get(key)
    if snap is None:
        snap = GraphSnapshot(*key)
        _INTERNED_SNAPSHOTS[key] = snap
    return snap


class GraphExplorer(Protocol):
    """Deterministic-or-seeded per-agent exploration strategy.

    ``choose_port`` returns the port to push (``0..degree-1``), ``None``
    to rest inside the node (releasing any held port), or a core
    :class:`~repro.core.actions.Action` for the richer verbs — in
    particular ``TERMINATE`` for explicitly terminating explorers.
    """

    name: str

    def setup(self, memory: dict) -> None: ...

    def choose_port(
        self, snapshot: GraphSnapshot, memory: dict
    ) -> int | None | Action: ...


class StaticGraphAdversary:
    """No edge is ever removed."""

    def reset(self, engine: "DynamicGraphEngine") -> None:  # noqa: ARG002
        return None

    def missing_edges(self, engine: "DynamicGraphEngine") -> set:
        return set()


class ConnectivityPreservingAdversary:
    """Remove up to ``budget`` random edges, keeping the footprint connected.

    The straightforward generalisation of the ring's one-missing-edge
    adversary: each round it samples removal candidates and drops an edge
    only if the remaining footprint stays connected (checked with
    networkx), up to the per-round budget.
    """

    def __init__(self, budget: int = 1, seed: int = 0) -> None:
        if budget < 0:
            raise ConfigurationError("budget must be >= 0")
        self._budget = budget
        self._seed = seed
        self._rng = random.Random(seed)

    def reset(self, engine: "DynamicGraphEngine") -> None:  # noqa: ARG002
        self._rng = random.Random(self._seed)

    def missing_edges(self, engine: "DynamicGraphEngine") -> set:
        import networkx as nx

        graph = engine.graph
        removed: set = set()
        candidates = list(graph.edges())
        self._rng.shuffle(candidates)
        footprint = graph.copy()
        for edge in candidates:
            if len(removed) >= self._budget:
                break
            footprint.remove_edge(*edge)
            if nx.is_connected(footprint):
                removed.add(frozenset(edge))
            else:
                footprint.add_edge(*edge)
        return removed


class ConnectivitySafeAdversary:
    """Constrain a single-edge (ring-style) adversary to legal removals.

    The paper's adversary *chooses within* the 1-interval-connectivity
    constraint; a look-ahead construction written for the ring (where any
    single removal is legal) may pick a bridge on a general graph.  This
    wrapper turns such a choice into "remove nothing" instead of letting
    the core's model audit reject the round — which is exactly what a
    constrained adversary would do.
    """

    def __init__(self, inner) -> None:
        self._inner = inner

    def reset(self, engine: "SimulationCore") -> None:
        self._inner.reset(engine)

    def choose_missing_edge(self, engine: "SimulationCore"):
        edge = self._inner.choose_missing_edge(engine)
        if edge is None:
            return None
        topology = engine.topology
        edge = topology.canonical_edge(edge)
        return edge if topology.removable(edge) else None

    def select(self, engine: "SimulationCore") -> set[int]:
        """Delegate activation to combined adversary/scheduler constructions.

        The Tables 1/3 adversaries that also control the schedule (e.g.
        NS starvation) keep both roles on graph topologies: the wrapper
        constrains only the edge *removal*, never the activation set.
        """
        return self._inner.select(engine)

    def __repr__(self) -> str:
        return f"ConnectivitySafeAdversary({self._inner!r})"


class GraphTopology:
    """Port-labelled graph structure + Look semantics for the unified core.

    Port labelling: ``port i`` of a node is its ``i``-th neighbour in
    sorted order.  Edges are ``frozenset({u, v})``.  Bridges are
    precomputed so the common single-edge-per-round adversaries validate
    in O(1) instead of a per-round connectivity check.
    """

    oriented = False

    def __init__(self, graph, *, landmark=None) -> None:
        import networkx as nx

        if not nx.is_connected(graph):
            raise ConfigurationError("the underlying graph must be connected")
        self.graph = graph
        self.size = graph.number_of_nodes()
        if landmark is not None and landmark not in graph:
            raise ConfigurationError(f"landmark {landmark!r} not in the graph")
        self.landmark = landmark
        # Port labelling: node -> sorted neighbour list; port i = i-th neighbour.
        self.ports = {node: sorted(graph.neighbors(node)) for node in graph.nodes}
        self._edges = {frozenset(e) for e in graph.edges()}
        self._bridges = {frozenset(e) for e in nx.bridges(graph)}

    # -- structure -----------------------------------------------------

    def normalize(self, node):
        if node not in self.ports:
            raise ConfigurationError(f"start node {node!r} not in the graph")
        return node

    def degree(self, node) -> int:
        return len(self.ports[node])

    def edge_from(self, node, port: int):
        neighbors = self.ports[node]
        if not 0 <= port < len(neighbors):
            raise AdversaryViolation(
                f"explorer requested port {port} at a degree-{len(neighbors)} node"
            )
        return frozenset((node, neighbors[port]))

    def neighbor(self, node, port: int):
        return self.ports[node][port]

    # -- adversary validation -------------------------------------------

    def canonical_edge(self, edge):
        return edge if isinstance(edge, frozenset) else frozenset(edge)

    def validate_edge(self, edge) -> None:
        if edge not in self._edges:
            raise AdversaryViolation(
                f"adversary removed non-edge {sorted(edge, key=repr)!r}")
        if edge in self._bridges:
            raise AdversaryViolation(
                "adversary disconnected the footprint (1-interval connectivity)"
            )

    def validate_missing(self, missing: set) -> None:
        import networkx as nx

        if len(missing) == 1:
            (edge,) = missing
            self.validate_edge(edge)
            return
        footprint = self.graph.copy()
        for edge in missing:
            footprint.remove_edge(*tuple(edge))
        if not nx.is_connected(footprint):
            raise AdversaryViolation(
                "adversary disconnected the footprint (1-interval connectivity)"
            )

    def removable(self, edge) -> bool:
        return edge in self._edges and edge not in self._bridges

    def edge_label(self, edge) -> str:
        return "-".join(str(v) for v in sorted(edge, key=repr))

    # -- Look semantics -------------------------------------------------

    def snapshot(self, agent, interior: int, holders: dict) -> GraphSnapshot:
        """O(degree) Look from the occupancy-index entry of the agent's node."""
        node = agent.node
        own_port = agent.port
        if own_port is None:
            interior -= 1  # don't count the observer itself
            occupied = frozenset(holders) if holders else _EMPTY_PORTS
        elif len(holders) > 1:
            occupied = frozenset(p for p in holders if p != own_port)
        else:
            occupied = _EMPTY_PORTS
        memory = agent.memory
        return _intern_graph_snapshot(
            len(self.ports[node]), own_port, interior, occupied,
            memory.moved, memory.failed, node == self.landmark,
        )

    def __repr__(self) -> str:
        return f"GraphTopology(n={self.size})"


class ExplorerAlgorithm:
    """Adapt a :class:`GraphExplorer` to the core's Algorithm protocol.

    Explorer state lives in ``memory.vars`` (the dict the explorer always
    saw), so the core's peek machinery — :meth:`AgentMemory.clone` hands a
    speculative copy to look-ahead adversaries — works unchanged.  Note
    the omniscience caveat: peeks are only faithful for *deterministic*
    explorers (rotor-router); a seeded random walk advances its RNG when
    peeked, exactly as the paper's adversary model (deterministic
    protocols) assumes away.
    """

    def __init__(self, explorer: GraphExplorer) -> None:
        self.explorer = explorer
        self.name = getattr(explorer, "name", type(explorer).__name__)

    def setup(self, memory: AgentMemory) -> None:
        self.explorer.setup(memory.vars)

    def compute(self, snapshot: GraphSnapshot, memory: AgentMemory) -> Action:
        choice = self.explorer.choose_port(snapshot, memory.vars)
        if choice is None:
            return ENTER_NODE  # rest inside the node, releasing any held port
        if isinstance(choice, Action):
            return choice
        return move_to_port(choice)


class DynamicGraphEngine(SimulationCore):
    """Look-Compute-Move on a dynamic port-labelled graph (unified core).

    A constructor-level facade: builds the :class:`GraphTopology` and the
    explorer adapter, defaults to the fully synchronous scheduler and a
    static adversary, and keeps the legacy attribute surface (``graph``,
    ``ports``, ``degree``, ``missing``).  Everything else — schedulers,
    transports, termination, tracing, the peek cache — is inherited.
    """

    def __init__(
        self,
        graph,
        explorer: GraphExplorer,
        positions: Sequence[Any],
        *,
        adversary=None,
        scheduler=None,
        transport: TransportModel = TransportModel.NS,
        trace=None,
        landmark=None,
        debug_invariants: bool | None = None,
    ) -> None:
        from ..schedulers.fsync import FsyncScheduler

        topology = GraphTopology(graph, landmark=landmark)
        super().__init__(
            topology,
            ExplorerAlgorithm(explorer),
            positions,
            scheduler=scheduler if scheduler is not None else FsyncScheduler(),
            adversary=adversary if adversary is not None else StaticGraphAdversary(),
            transport=transport,
            trace=trace,
            debug_invariants=debug_invariants,
        )
        self.graph = topology.graph
        self.ports = topology.ports
        self.explorer = explorer

    def degree(self, node) -> int:
        return len(self.ports[node])

    def _edge_of_port(self, node, port: int):
        return self.topology.edge_from(node, port)

    @property
    def missing(self) -> set:
        """This round's missing edge set (legacy name for ``missing_edges``)."""
        return self.missing_edges

    def run(self, max_rounds: int, *, stop_on_exploration: bool = True,
            stop_when=None):
        """Run to the horizon; graph runs historically stop on exploration."""
        return super().run(
            max_rounds,
            stop_on_exploration=stop_on_exploration,
            stop_when=stop_when,
        )
