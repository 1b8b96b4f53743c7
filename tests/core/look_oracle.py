"""The O(k) scan Look: a test oracle for the engine's indexed Look.

The engine answers every Look from its incrementally maintained
occupancy index.  These two functions rebuild the same snapshot from
scratch by scanning the whole team, the way the engine's original Look
did.  Tests compare the two every round.  Crashed agents have left the
configuration, so the scans skip them.
"""

from __future__ import annotations

from repro.core.directions import LocalDirection
from repro.core.snapshot import Snapshot


def ring_look(engine, agent) -> Snapshot:
    """The ring snapshot of ``agent``, by a scan over ``engine.agents``."""
    others_in_node = 0
    left_port = agent.orientation.to_global(LocalDirection.LEFT)
    other_left = False
    other_right = False
    for other in engine.agents:
        if (other.index == agent.index or other.crashed
                or other.node != agent.node):
            continue
        if other.port is None:
            others_in_node += 1
        elif other.port is left_port:
            other_left = True
        else:
            other_right = True
    if agent.port is None:
        on_port = None
    elif agent.port is left_port:
        on_port = LocalDirection.LEFT
    else:
        on_port = LocalDirection.RIGHT
    return Snapshot(
        on_port=on_port,
        others_in_node=others_in_node,
        other_on_left_port=other_left,
        other_on_right_port=other_right,
        is_landmark=engine.ring.is_landmark(agent.node),
        moved=agent.memory.moved,
        failed=agent.memory.failed,
    )


def graph_look(engine, agent):
    """The graph snapshot of ``agent``, by a scan over ``engine.agents``."""
    from repro.extensions.dynamic_graph import GraphSnapshot

    others = 0
    occupied: set[int] = set()
    for other in engine.agents:
        if (other.index == agent.index or other.crashed
                or other.node != agent.node):
            continue
        if other.port is None:
            others += 1
        else:
            occupied.add(other.port)
    return GraphSnapshot(
        degree=engine.degree(agent.node),
        on_port=agent.port,
        others_in_node=others,
        occupied_ports=frozenset(occupied),
        moved=agent.memory.moved,
        failed=agent.memory.failed,
        is_landmark=agent.node == engine.topology.landmark,
    )
