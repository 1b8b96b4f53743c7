"""Local-frame snapshots produced by the Look step.

Section 2.1: "The agent determines its own position within the node (i.e.,
whether or not it is on a port, and if so on which one), and the position of
the other agents (if any) at that node."

Snapshots are expressed in the *observing agent's* local frame, so two
agents standing at the same node but with opposite orientations see the two
ports under swapped names — exactly the asymmetry the no-chirality results
rely on.  Nothing in a snapshot identifies nodes or agents: the network and
the agents are anonymous (the landmark flag is the single exception allowed
by the model).
"""

from __future__ import annotations

from dataclasses import dataclass

from .directions import LocalDirection


@dataclass(frozen=True)
class Snapshot:
    """What one agent sees during its Look step.

    Attributes:
        on_port: where the observing agent itself stands — ``None`` for the
            node interior, otherwise the local direction of the port it
            occupies (it got there via a failed move or port acquisition).
        others_in_node: how many *other* agents stand in the node interior.
        other_on_left_port: an(other) agent occupies the port this agent
            calls *left*.
        other_on_right_port: an(other) agent occupies the port this agent
            calls *right*.
        is_landmark: this node is the landmark (always ``False`` on
            anonymous rings).
        moved: the private flag set by the agent's previous Move phase
            (``True`` iff its last traversal attempt succeeded).
        failed: the agent's previous port-acquisition attempt failed (the
            ``failed`` predicate of Section 3.1).

    The other predicates of Section 3 (``meeting``, ``catches``,
    ``caught``) are read off these fields by
    :class:`~repro.algorithms.base.Ctx`, which algorithms consult.
    """

    on_port: LocalDirection | None
    others_in_node: int
    other_on_left_port: bool
    other_on_right_port: bool
    is_landmark: bool
    moved: bool
    failed: bool


#: Interning pool for :func:`intern_snapshot`.  The snapshot value space is
#: tiny — 3 positions x (k+1) neighbour counts x 2^5 flags — so the pool
#: stays bounded by the largest team ever simulated in the process, while
#: the engine's Look phase stops allocating a frozen dataclass per agent
#: per round.  Safe to share across engines: snapshots are immutable and
#: compare by value.
_INTERNED: dict[tuple, Snapshot] = {}


def intern_snapshot(
    on_port: LocalDirection | None,
    others_in_node: int,
    other_on_left_port: bool,
    other_on_right_port: bool,
    is_landmark: bool,
    moved: bool,
    failed: bool,
) -> Snapshot:
    """A shared :class:`Snapshot` instance for the given field values.

    Behaviourally identical to calling ``Snapshot(...)`` (equality and
    hashing agree); only object identity is shared.  Algorithms
    receive snapshots read-only, so reuse is invisible to them.
    """
    key = (on_port, others_in_node, other_on_left_port, other_on_right_port,
           is_landmark, moved, failed)
    snap = _INTERNED.get(key)
    if snap is None:
        snap = Snapshot(*key)
        _INTERNED[key] = snap
    return snap
