"""Engine-side record of a single mobile agent.

Agents in the model are anonymous and all run the same protocol; the
``index`` stored here exists purely for the engine, schedulers and
adversaries (which *are* allowed to distinguish agents) and is never exposed
to the algorithm through a snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .directions import GlobalDirection, LocalDirection, Orientation
from .memory import AgentMemory


@dataclass(slots=True)
class AgentState:
    """Position, orientation and memory of one agent.

    ``port`` is ``None`` while the agent stands in the node interior;
    otherwise it is the *global* direction of the port of ``node`` the
    agent occupies (``PLUS`` = the port toward ``node + 1``).

    ``left_global``/``right_global`` cache the agent's fixed frame mapping:
    the Look phase consults them once per snapshot, so the orientation
    algebra runs once per agent instead of once per observation.  The class
    is slotted — every field is hot-path state touched each round.
    """

    index: int
    orientation: Orientation
    node: int
    port: GlobalDirection | None = None
    terminated: bool = False
    # Fault injection: a crashed agent is removed from the configuration
    # (no snapshot sees it, no scheduler activates it) but stays in
    # ``agents`` so indexes remain stable.
    crashed: bool = False
    memory: AgentMemory = field(default_factory=AgentMemory)

    # Scheduler bookkeeping: rounds since last activation (fairness).
    rounds_since_active: int = 0
    activations: int = 0

    # Frame cache (derived from the immutable orientation).
    left_global: GlobalDirection = field(init=False)
    right_global: GlobalDirection = field(init=False)

    def __post_init__(self) -> None:
        self.left_global = self.orientation.to_global(LocalDirection.LEFT)
        self.right_global = self.left_global.opposite

    @property
    def on_port(self) -> bool:
        return self.port is not None

    def describe(self) -> str:
        """Human-readable position (for traces and examples)."""
        if self.crashed:
            state = "crashed"
        elif self.terminated:
            state = "terminated"
        elif self.port is GlobalDirection.PLUS:
            state = "on +port"
        elif self.port is GlobalDirection.MINUS:
            state = "on -port"
        else:
            state = "in node"
        return f"agent{self.index}@v{self.node} ({state})"
