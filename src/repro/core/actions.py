"""Actions an agent's Compute step can return to the engine.

The paper's Compute step yields ``direction in {left, right, nil}`` plus an
implicit terminal state.  One extra action is needed to express the
communication dance of Figure 4 ("Move from the port to the node, i.e.
staying at the same node"): :data:`ENTER_NODE` steps off a port back into
the node interior without traversing anything.

A MOVE names its port in one of two ways:

* ``direction`` — the agent's local left/right, resolved through its
  orientation by the engine (the ring algebra of Section 2.1); or
* ``port`` — a topology port token used verbatim (the port-labelled model
  of :mod:`repro.extensions.dynamic_graph`, where ports are integers
  ``0..deg-1``).

Exactly one of the two must be set; ring algorithms use ``direction``,
graph explorers use ``port`` (via :func:`move_to_port`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Hashable

from .directions import LocalDirection

_LEFT = LocalDirection.LEFT
_RIGHT = LocalDirection.RIGHT


class ActionKind(enum.Enum):
    MOVE = "move"          # try to leave through a port (the paper's left/right)
    STAY = "stay"          # the paper's ``nil``: do nothing, keep position
    ENTER_NODE = "enter"   # step from a port back into the node interior
    TERMINATE = "terminate"  # enter the terminal state; never acts again


@dataclass(frozen=True)
class Action:
    """A resolved Compute result."""

    kind: ActionKind
    direction: LocalDirection | None = None
    port: Any = None

    def __post_init__(self) -> None:
        if self.kind is ActionKind.MOVE:
            if (self.direction is None) == (self.port is None):
                raise ValueError(
                    "MOVE actions need exactly one of direction or port")
        elif self.direction is not None or self.port is not None:
            raise ValueError(f"{self.kind} actions must not carry a target")


#: The two possible direction MOVE actions, interned: ``compute`` returns
#: an action per agent per round, so the hot loop reuses these frozen
#: instances instead of re-validating and re-allocating an identical
#: ``Action``.  Port MOVEs are interned the same way (the port space of a
#: bounded-degree topology is tiny).
_MOVES: dict[LocalDirection, Action] = {
    d: Action(ActionKind.MOVE, d) for d in LocalDirection
}

_MOVE_LEFT = _MOVES[_LEFT]
_MOVE_RIGHT = _MOVES[_RIGHT]

_PORT_MOVES: dict[Hashable, Action] = {}


def move(direction: LocalDirection) -> Action:
    """Attempt to traverse the edge in the agent's local ``direction``.

    The two members dispatch by identity: coercing and hashing an enum
    runs Python-level ``Enum`` code, and every state-machine Compute
    ends here.  Raw values (``"left"``) still resolve through the enum.
    """
    if direction is _LEFT:
        return _MOVE_LEFT
    if direction is _RIGHT:
        return _MOVE_RIGHT
    return _MOVES[LocalDirection(direction)]


def move_to_port(port: Hashable) -> Action:
    """Attempt to traverse the edge behind topology port ``port``."""
    action = _PORT_MOVES.get(port)
    if action is None:
        action = Action(ActionKind.MOVE, port=port)
        _PORT_MOVES[port] = action
    return action


#: The paper's ``nil``: stay exactly where you are (even on a port).
STAY = Action(ActionKind.STAY)

#: Step from a port into the node interior (Figure 4's FComm move).
ENTER_NODE = Action(ActionKind.ENTER_NODE)

#: Enter the terminal state: the agent stops forever.
TERMINATE = Action(ActionKind.TERMINATE)
