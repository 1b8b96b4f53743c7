"""The ``Explore``/``LExplore`` building block (paper, Section 3).

Every algorithm in the paper is specified as a small state machine whose
states each run::

    Explore (dir | p1 : s1; p2 : s2; ... ; pk : sk)

"the agent performs Look, then evaluates the predicates p1..pk in order;
as soon as a predicate is satisfied, say pi, the procedure exits and the
agent does a transition to the specified state si.  If no predicate is
satisfied, the agent tries to Move in the specified direction dir and the
procedure is executed again in the next round."

This module turns that prose into an executable framework:

* :class:`StateSpec` — one state: an optional *preamble* (the assignments
  the pseudocode writes above the ``Explore`` call, run once on entry,
  *before* the per-Explore counters reset so it can still read the previous
  state's ``Esteps``), an ordered rule list ``(predicate, target-state)``,
  and a direction (a constant or a function of the context).  States such
  as ``BComm``/``FComm`` of Figure 4, which are imperative multi-round
  scripts rather than guarded Explore calls, provide a ``custom`` handler
  instead of rules.
* :class:`Ctx` — what predicates can see: the snapshot, the runtime
  counters, and the state's moving direction (needed by ``catches``).
* :class:`StateMachineAlgorithm` — the driver.  State transitions are
  processed *in the same round* (the pseudocode's "change state ... and
  process it"), chaining until some state produces an action; a chain
  longer than :data:`MAX_CHAIN` raises, catching accidental transition
  loops.

  One crucial timing rule: in the round a state is entered *via a
  transition*, the agent acts per the new state (its preamble runs, it
  moves in its direction, a custom script executes) but the new state's
  **guard rules are not evaluated until the next Look**.  Without this,
  the very snapshot that fired ``caught: Forward`` in ``Init`` would
  instantly re-fire ``Forward``'s own ``caught: FComm`` — one catch event
  observed twice.  Same-round rule evaluation would also let ``Reverse``'s
  ``switch(Ttime): Reverse`` self-transition loop forever.  The paper's
  worst-case accounting (the exact ``3N-6`` of Theorem 3 under Figure 2's
  schedule) pins the "move in the new direction immediately" half of this
  rule; the regression tests pin both halves.

Two deliberate semantic choices, both documented in DESIGN.md:

* ``Btime`` as seen by predicates is ``min(Btime, Etime)`` — the blocked
  streak *within the current Explore call*.  On the round a state is
  entered ``Etime == 0``, so a stale streak from the previous state can
  never satisfy a fresh ``Btime > 0`` guard (e.g. Figure 8's
  ``FirstBlockL``, which must wait for a *second* block).
* ``size`` behaves like the paper's "initialized to infinity": every
  arithmetic test involving it fails while the ring size is unknown.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Union

from ..core.actions import Action, ActionKind, ENTER_NODE, STAY, TERMINATE, move
from ..core.directions import LocalDirection, LEFT, RIGHT
from ..core.errors import ProtocolViolation
from ..core.memory import AgentMemory
from ..core.snapshot import Snapshot

#: Maximum same-round state transitions before the driver assumes a loop.
MAX_CHAIN = 32

#: Name of the terminal state every algorithm shares.
TERMINAL = "Terminate"


class Ctx:
    """Everything a predicate or preamble may consult.

    Thin, read-mostly wrapper over the snapshot and the agent memory;
    ``direction`` is filled in by the driver with the current state's
    moving direction before rules are evaluated (``catches`` needs it).
    """

    __slots__ = ("snapshot", "memory", "direction")

    def __init__(self, snapshot: Snapshot, memory: AgentMemory) -> None:
        self.snapshot = snapshot
        self.memory = memory
        self.direction: LocalDirection | None = None

    # -- variables ---------------------------------------------------------

    @property
    def vars(self) -> dict:
        return self.memory.vars

    # -- counters (Section 3 names) -----------------------------------------

    @property
    def Ttime(self) -> int:
        return self.memory.Ttime

    @property
    def Tsteps(self) -> int:
        return self.memory.Tsteps

    @property
    def Etime(self) -> int:
        return self.memory.Etime

    @property
    def Esteps(self) -> int:
        return self.memory.Esteps

    @property
    def Btime(self) -> int:
        """Blocked streak within the current Explore call (see module doc)."""
        return min(self.memory.Btime, self.memory.Etime)

    @property
    def Ntime(self) -> int:
        return self.memory.Ntime

    @property
    def Tnodes(self) -> int:
        return self.memory.Tnodes

    @property
    def size(self) -> float:
        """Ring size if known, else ``inf`` (all tests on it then fail)."""
        return self.memory.size if self.memory.size is not None else math.inf

    @property
    def size_known(self) -> bool:
        return self.memory.size_known

    # -- predicates ----------------------------------------------------------

    # The three predicates of Section 3, read off the snapshot fields (the
    # scalar engine's only copy; ``core/batch_kernels`` vectorises them).

    @property
    def failed(self) -> bool:
        return self.snapshot.failed

    @property
    def meeting(self) -> bool:
        """Both (or more) agents stand together in the node interior."""
        snapshot = self.snapshot
        return snapshot.on_port is None and snapshot.others_in_node > 0

    @property
    def catches(self) -> bool:
        """Another agent sits on the port of my moving direction.

        The paper evaluates ``catches`` for an agent that is in the node and
        about to move; an agent already on a port cannot catch (the port in
        its moving direction is the one it occupies itself).
        """
        direction = self.direction
        if direction is None:
            return False
        snapshot = self.snapshot
        if snapshot.on_port is not None:
            return False
        if direction is LEFT:
            return snapshot.other_on_left_port
        return snapshot.other_on_right_port

    @property
    def caught(self) -> bool:
        """I am on a port after a failed move and another agent is in the
        node."""
        snapshot = self.snapshot
        return (snapshot.on_port is not None and not snapshot.moved
                and snapshot.others_in_node > 0)

    @property
    def is_landmark(self) -> bool:
        return self.snapshot.is_landmark

    @property
    def others_in_node(self) -> int:
        return self.snapshot.others_in_node

    @property
    def on_port(self) -> LocalDirection | None:
        return self.snapshot.on_port


_new_ctx = object.__new__

Predicate = Callable[[Ctx], bool]
DirectionSpec = Union[LocalDirection, Callable[[Ctx], LocalDirection]]
#: What a preamble/custom handler may produce: nothing, a same-round state
#: transition (by name), or a final action for this round.
StepOutcome = Union[None, str, Action]


@dataclass(frozen=True)
class Rule:
    predicate: Predicate
    target: str


@dataclass(frozen=True)
class StateSpec:
    """One state of an algorithm (one ``Explore``/``LExplore`` call)."""

    name: str
    direction: DirectionSpec | None = None
    rules: tuple[Rule, ...] = ()
    on_enter: Callable[[Ctx], StepOutcome] | None = None
    custom: Callable[[Ctx], Union[str, Action]] | None = None
    keep_esteps: bool = False  # ExploreNoResetEsteps (Figure 18)

    def __post_init__(self) -> None:
        if self.custom is None and self.direction is None:
            raise ValueError(f"state {self.name!r} needs a direction or a custom handler")
        if self.custom is not None and self.rules:
            raise ValueError(f"state {self.name!r} cannot mix custom handler and rules")


def rules(*pairs: tuple[Predicate, str]) -> tuple[Rule, ...]:
    """Ordered rule list: ``rules((pred, "State"), ...)``."""
    return tuple(Rule(predicate, target) for predicate, target in pairs)


def _compile_state(spec: StateSpec) -> tuple:
    """Flatten one state into the driver's dispatch tuple.

    ``(on_enter, custom, keep_esteps, direction_value, direction_fn,
    rule_pairs)`` — everything :meth:`StateMachineAlgorithm.compute`
    consults per round, pre-resolved: the constant-vs-callable direction
    decision is made here (not per Compute), and the rule list becomes a
    flat tuple of ``(predicate, target)`` pairs so the guard loop touches
    no dataclass attributes.
    """
    direction_fn = spec.direction if callable(spec.direction) else None
    direction_value = spec.direction if direction_fn is None else None
    return (
        spec.on_enter,
        spec.custom,
        spec.keep_esteps,
        direction_value,
        direction_fn,
        tuple((rule.predicate, rule.target) for rule in spec.rules),
    )


class StateMachineAlgorithm:
    """Base driver for the paper's Explore-style algorithms.

    Subclasses define :meth:`build_states`, the initial state name and
    optionally :meth:`init_vars`.  All per-agent data lives in
    ``memory.vars``; instances themselves are immutable and shared between
    agents (which is what makes adversarial look-ahead possible).
    """

    name = "state-machine"
    initial_state = "Init"

    #: Ablation switch (see benchmarks/bench_ablations.py): when True, a
    #: state entered by a transition has its guard rules evaluated against
    #: the *same* snapshot that caused the transition — the naive reading
    #: that lets one catch event fire twice.  Production value: False.
    eager_entry_rules = False

    def __init__(self) -> None:
        self._states: dict[str, StateSpec] = {}
        for spec in self.build_states():
            if spec.name in self._states:
                raise ValueError(f"duplicate state {spec.name!r}")
            self._states[spec.name] = spec
        for spec in self._states.values():
            for rule in spec.rules:
                if rule.target != TERMINAL and rule.target not in self._states:
                    raise ValueError(
                        f"state {spec.name!r} targets unknown state {rule.target!r}"
                    )
        if self.initial_state not in self._states:
            raise ValueError(f"unknown initial state {self.initial_state!r}")
        self._dispatch: dict[str, tuple] = {
            name: _compile_state(spec) for name, spec in self._states.items()
        }

    # -- subclass interface ---------------------------------------------------

    def build_states(self) -> list[StateSpec]:
        raise NotImplementedError

    def init_vars(self, memory: AgentMemory) -> None:
        """Populate algorithm-private variables before round 0."""

    # -- Algorithm protocol ----------------------------------------------------

    def setup(self, memory: AgentMemory) -> None:
        memory.vars["state"] = self.initial_state
        memory.vars["_entered"] = False
        self.init_vars(memory)

    def compute(self, snapshot: Snapshot, memory: AgentMemory) -> Action:
        # Ctx(snapshot, memory) without the Python-level __init__ frame.
        ctx = _new_ctx(Ctx)
        ctx.snapshot = snapshot
        ctx.memory = memory
        ctx.direction = None
        vars = memory.vars
        entered_this_round = False
        dispatch = self._dispatch
        for _ in range(MAX_CHAIN):
            state_name = vars["state"]
            if state_name == TERMINAL:
                return TERMINATE
            (on_enter, custom, keep_esteps, direction, direction_fn,
             rule_pairs) = dispatch[state_name]

            if not vars["_entered"]:
                if on_enter is not None:
                    outcome = on_enter(ctx)
                    if isinstance(outcome, str):
                        self._transition(memory, outcome)
                        entered_this_round = True
                        continue
                    if isinstance(outcome, Action):
                        if outcome.kind is ActionKind.TERMINATE:
                            vars["state"] = TERMINAL
                        return outcome
                memory.reset_explore(keep_esteps=keep_esteps)
                vars["_entered"] = True

            if custom is not None:
                result = custom(ctx)
                if isinstance(result, str):
                    self._transition(memory, result)
                    entered_this_round = True
                    continue
                if result.kind is ActionKind.TERMINATE:
                    vars["state"] = TERMINAL
                return result

            if direction_fn is not None:
                direction = direction_fn(ctx)
            ctx.direction = direction
            vars["last_dir"] = direction
            # Guards of a state entered this round wait for the next Look
            # (see the module docstring); the agent still moves per the
            # new state's direction immediately.
            if entered_this_round and not self.eager_entry_rules:
                return move(direction)
            for predicate, target in rule_pairs:
                if predicate(ctx):
                    self._transition(memory, target)
                    entered_this_round = True
                    break
            else:
                return move(direction)
        raise ProtocolViolation(
            f"{self.name}: more than {MAX_CHAIN} same-round state transitions"
        )

    # -- internals ---------------------------------------------------------------

    def _transition(self, memory: AgentMemory, target: str) -> None:
        if target != TERMINAL and target not in self._states:
            raise ProtocolViolation(f"{self.name}: transition to unknown state {target!r}")
        memory.vars["state"] = target
        memory.vars["_entered"] = False

    # -- conveniences shared by concrete algorithms --------------------------------

    @staticmethod
    def var_dir(ctx: Ctx) -> LocalDirection:
        """Direction stored in ``vars['dir']`` (set by preambles)."""
        return ctx.vars["dir"]

    @staticmethod
    def forward_dir(ctx: Ctx) -> LocalDirection:
        """The direction fixed at the first catch (see DESIGN.md).

        ``Forward``/``Return`` move in it, ``Bounce`` moves opposite to it;
        under chirality this is exactly the paper's literal left/right.
        """
        return ctx.vars["fwd"]

    @staticmethod
    def against_forward_dir(ctx: Ctx) -> LocalDirection:
        return ctx.vars["fwd"].opposite

    @staticmethod
    def remember_forward(ctx: Ctx) -> None:
        """Fix ``fwd`` to the direction the agent had when roles were named."""
        ctx.vars.setdefault("fwd", ctx.vars.get("last_dir", LEFT))


__all__ = [
    "Ctx",
    "MAX_CHAIN",
    "Rule",
    "StateMachineAlgorithm",
    "StateSpec",
    "TERMINAL",
    "rules",
    "LEFT",
    "RIGHT",
    "ENTER_NODE",
    "STAY",
    "TERMINATE",
    "move",
]
