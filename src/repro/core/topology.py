"""The paper's dynamic ring as a :class:`~repro.core.interfaces.Topology`.

:class:`RingTopology` adapts the invariant ring structure
(:class:`~repro.core.ring.Ring`) to the topology-generic core
(:mod:`repro.core.sim`).  Port tokens are the two
:class:`~repro.core.directions.GlobalDirection` members (``PLUS`` = the
port toward ``node + 1``), identity-stable enum values the hot loop
compares with ``is`` — exactly what the pre-refactor ring engine used.

The ring's 1-interval connectivity is structural: removing any single
edge of a ring leaves a connected path, so ``validate_edge`` only range-
checks the adversary's choice and multi-edge removal is rejected outright
(two missing ring edges always disconnect the footprint).
"""

from __future__ import annotations

from typing import Sequence

from .agent import AgentState
from .directions import GlobalDirection, LocalDirection
from .errors import AdversaryViolation
from .ring import Ring
from .snapshot import _INTERNED, Snapshot, intern_snapshot

_PLUS = GlobalDirection.PLUS
_MINUS = GlobalDirection.MINUS
_LEFT = LocalDirection.LEFT
_RIGHT = LocalDirection.RIGHT


class RingTopology:
    """Ring structure + ring Look semantics for the unified core.

    Composition over the frozen :class:`Ring` (kept reachable as
    ``.ring`` and via the engine facade, so adversaries keep their full
    ring algebra — ``distance``, ``edge_endpoints``, ``to_networkx``).
    Edge ``e_i`` joins ``v_i`` and ``v_{i+1 mod n}``; nodes handled here
    are already normalized by the engine, so the arithmetic below skips
    the defensive ``% size`` of the public :class:`Ring` API (it is the
    exact inline arithmetic of the pre-refactor hot loop).
    """

    oriented = True

    __slots__ = ("ring", "size", "landmark")

    def __init__(self, ring: Ring) -> None:
        self.ring = ring
        self.size = ring.size
        self.landmark = ring.landmark

    # -- structure -----------------------------------------------------

    def normalize(self, node: int) -> int:
        return node % self.size

    def edge_from(self, node: int, port: GlobalDirection) -> int:
        """Moving PLUS from ``v_i`` crosses ``e_i``; MINUS crosses ``e_{i-1}``."""
        if port is _PLUS:
            return node
        return (node - 1) % self.size

    def neighbor(self, node: int, port: GlobalDirection) -> int:
        return (node + int(port)) % self.size

    # -- adversary validation -------------------------------------------

    def canonical_edge(self, edge):
        return edge

    def validate_edge(self, edge) -> None:
        if not isinstance(edge, int) or not 0 <= edge < self.size:
            raise AdversaryViolation(
                f"adversary removed invalid edge {edge!r} on ring of size {self.size}"
            )

    def validate_missing(self, missing: set) -> None:
        for edge in missing:
            self.validate_edge(edge)
        if len(missing) > 1:
            raise AdversaryViolation(
                "adversary disconnected the footprint (1-interval connectivity): "
                f"a ring loses connectivity with {len(missing)} edges missing"
            )

    def removable(self, edge) -> bool:
        return isinstance(edge, int) and 0 <= edge < self.size

    def edge_label(self, edge) -> str:
        return str(edge)

    # -- Look semantics -------------------------------------------------

    def snapshot(self, agent: AgentState, interior: int, holders: dict) -> Snapshot:
        """O(1) Look from the occupancy-index entry of the agent's node.

        The pool lookup of :func:`~repro.core.snapshot.intern_snapshot`
        is inlined (one Look per active agent per round); only a value
        never seen before in this process pays the call that interns it.
        """
        port = agent.port
        if port is None:
            on_port = None
            interior -= 1  # don't count the observer itself
        elif port is agent.left_global:
            on_port = _LEFT
        else:
            on_port = _RIGHT
        plus_holder = holders.get(_PLUS)
        minus_holder = holders.get(_MINUS)
        if agent.left_global is _PLUS:
            left_holder, right_holder = plus_holder, minus_holder
        else:
            left_holder, right_holder = minus_holder, plus_holder
        index = agent.index
        memory = agent.memory
        key = (
            on_port,
            interior,
            left_holder is not None and left_holder != index,
            right_holder is not None and right_holder != index,
            agent.node == self.landmark,
            memory.moved,
            memory.failed,
        )
        snap = _INTERNED.get(key)
        if snap is None:
            snap = intern_snapshot(*key)
        return snap

    def snapshot_scan(
        self, agent: AgentState, agents: Sequence[AgentState]
    ) -> Snapshot:
        """Reference Look: the original O(k) scan over the team."""
        others_in_node = 0
        left_port = agent.orientation.to_global(LocalDirection.LEFT)
        other_left = False
        other_right = False
        for other in agents:
            if other.index == agent.index or other.node != agent.node:
                continue
            if other.port is None:
                others_in_node += 1
            elif other.port is left_port:
                other_left = True
            else:
                other_right = True
        return Snapshot(
            on_port=agent.local_port(),
            others_in_node=others_in_node,
            other_on_left_port=other_left,
            other_on_right_port=other_right,
            is_landmark=self.ring.is_landmark(agent.node),
            moved=agent.memory.moved,
            failed=agent.memory.failed,
        )

    def __repr__(self) -> str:
        return f"RingTopology({self.ring!r})"
