"""Runtime counters each agent maintains (Sections 3 and 4 of the paper).

The paper's algorithms consult a small set of bookkeeping variables:

* ``Ttime`` / ``Tsteps`` — activations completed / successful edge
  traversals since the start of the protocol.  Under FSYNC an agent is
  active every round, so ``Ttime`` equals the number of elapsed rounds.
* ``Etime`` / ``Esteps`` — the same, but counted since the last call of
  procedure ``Explore`` (i.e. since the current state was entered).  The
  ``ExploreNoResetEsteps`` variant of Figure 18 keeps ``Esteps`` across a
  transition; the framework implements that by skipping the reset.
* ``Btime`` — consecutive activations spent waiting on a port after a
  failed traversal.
* ``Tnodes`` — the perceived exploration span.  We maintain the signed net
  displacement (in the agent's local frame; +1 per successful *right* move)
  and define ``Tnodes = max(net) - min(net)``, the number of *edges* the
  agent has provably covered.  See DESIGN.md ("Model semantics pinned
  down") for why the edge-span reading is the one that makes every use in
  the paper simultaneously sound.
* landmark tracking (the ``LExplore`` additions of Section 3.2.2) — net
  displacement at the first landmark visit; ``size`` becomes the ring size
  the first time the agent stands at the landmark with a different net
  displacement (it has necessarily closed a full loop); ``Ntime`` counts
  activations since ``size`` became known.

Every counter is a pure function of the agent's own observation history, so
the engine maintains them centrally instead of trusting each algorithm to
re-implement the bookkeeping.  The clocks (``Ttime``, ``Etime``, ``Ntime``)
advance at the end of each active round, in
``SimulationCore._end_of_round``.  Algorithms read them through
:class:`AgentMemory` and own only their private variables (state, guesses,
IDs, ...) in :attr:`AgentMemory.vars`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .directions import LocalDirection


@dataclass(slots=True)
class AgentMemory:
    """Counters plus algorithm-private storage for a single agent.

    Slotted: one instance lives per agent for the whole run and its
    counters are read/written every round by both the engine and the
    algorithms' predicates, so fixed-slot attribute access (and the
    smaller footprint) is worth giving up ``__dict__``.
    """

    # -- protocol-wide counters -------------------------------------------
    Ttime: int = 0
    Tsteps: int = 0

    # -- per-Explore-call counters ----------------------------------------
    Etime: int = 0
    Esteps: int = 0

    # -- blocking / move-attempt bookkeeping -------------------------------
    Btime: int = 0
    moved: bool = False
    failed: bool = False

    # -- perceived exploration span ----------------------------------------
    net: int = 0
    min_net: int = 0
    max_net: int = 0

    # -- landmark tracking (LExplore) ---------------------------------------
    landmark_seen: bool = False
    landmark_first_net: int = 0
    size: int | None = None
    Ntime: int = 0

    # -- algorithm-private variables ----------------------------------------
    vars: dict[str, Any] = field(default_factory=dict)

    # -- derived quantities --------------------------------------------------

    @property
    def Tnodes(self) -> int:
        """Perceived covered span, in edges (see module docstring)."""
        return self.max_net - self.min_net

    @property
    def size_known(self) -> bool:
        """The paper's "n is known" predicate."""
        return self.size is not None

    # -- copying -------------------------------------------------------------

    def clone(self) -> "AgentMemory":
        """A cheap copy safe to hand to a speculative ``Compute``.

        The engine's ``peek_intended_action`` (and through it every
        omniscient adversary) simulates an agent's next Compute against a
        throwaway memory — ``copy.deepcopy`` there dominated the peek hot
        path before the engine's peek cache existed, and cache misses
        still take this path.  The counters are immutable scalars, so a
        slot-by-slot copy covers them; ``vars`` gets a fresh dict with
        one level of container copying, which isolates everything the
        paper's algorithms do to it (they rebind keys, and the only
        non-scalar values — direction enums, ``DirectionSchedule`` — are
        immutable after construction).  An algorithm that nests *mutable*
        state deeper than one container level must not mutate it in
        place during Compute.
        """
        clone = AgentMemory.__new__(AgentMemory)
        for name in _SCALAR_SLOTS:
            setattr(clone, name, getattr(self, name))
        clone.vars = {
            key: value.copy() if isinstance(value, (dict, list, set)) else value
            for key, value in self.vars.items()
        }
        return clone

    # -- updates driven by the engine ---------------------------------------

    def record_traversal(self, direction: LocalDirection | None) -> None:
        """Account for one successful edge traversal (active or passive).

        ``direction`` is the traversal in the agent's local frame; on
        unoriented topologies (no left/right algebra) it is ``None`` and
        the net-displacement tracking is skipped — ``Tnodes`` stays 0,
        every step/clock counter still advances.
        """
        self.Tsteps += 1
        self.Esteps += 1
        if direction is not None:
            if direction is LocalDirection.RIGHT:
                self.net += 1
            else:
                self.net -= 1
            if self.net > self.max_net:
                self.max_net = self.net
            elif self.net < self.min_net:
                self.min_net = self.net
        self.moved = True
        self.Btime = 0

    def record_blocked(self) -> None:
        """Account for an activation spent waiting on a missing edge."""
        self.moved = False
        self.Btime += 1

    def observe_landmark(self) -> None:
        """Record standing at the landmark node (interior or port)."""
        if not self.landmark_seen:
            self.landmark_seen = True
            self.landmark_first_net = self.net
            return
        if self.size is None and self.net != self.landmark_first_net:
            self.size = abs(self.net - self.landmark_first_net)

    # -- updates driven by the algorithm framework ---------------------------

    def reset_explore(self, *, keep_esteps: bool = False) -> None:
        """A new ``Explore`` call begins (state entry).

        ``keep_esteps=True`` implements ``ExploreNoResetEsteps``
        (Figure 18): the step counter survives the transition while the
        clock still restarts.
        """
        self.Etime = 0
        if not keep_esteps:
            self.Esteps = 0


#: Every slot ``clone`` copies verbatim (all fields except ``vars``,
#: which needs its one-level container copy).  Computed once at import.
_SCALAR_SLOTS = tuple(
    f.name for f in AgentMemory.__dataclass_fields__.values() if f.name != "vars"
)
