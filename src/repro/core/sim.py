"""The topology-generic simulation core.

One round loop runs every topology.  The computational model is the
paper's (Section 2.1), with the ring specialised out into a
:class:`~repro.core.interfaces.Topology` implementation:

* discrete rounds; the adversary removes an edge set that keeps the
  footprint connected (on the ring: at most one edge — 1-interval
  connectivity by construction; on general graphs the topology validates
  connectivity explicitly);
* a non-empty subset of agents activated per round (FSYNC = all of them),
  chosen by a scheduler that may itself be adversarial;
* per active agent: Look (simultaneous local snapshots), Compute (the
  algorithm), Move (port mutual exclusion, traversal, blocking);
* the three SSYNC transport models — NS, PT, ET — governing what happens
  to an agent that sleeps while positioned on a port.

Round anatomy (ordering decisions documented in DESIGN.md):

1. the adversary picks the missing edge set (single-edge adversaries
   implement ``choose_missing_edge``, set adversaries ``missing_edges``;
   the topology validates the choice);
2. the scheduler picks the activation set (it already sees the edge
   choice, like the single adversary of the paper that controls both);
3. every active agent Looks at the configuration *as of the start of the
   round* and Computes an action — decisions are simultaneous;
4. actions resolve: terminations, port releases (``ENTER_NODE``) and port
   acquisitions in mutual exclusion — a port occupied at the start of the
   round is denied to new requesters for the whole round, contention among
   new requesters is broken by a pluggable policy (default: lowest index);
5. Move: every active agent standing on the port it requested traverses if
   the edge is present, otherwise it stays blocked on the port; under PT
   every *sleeping* agent on a port of a present edge is passively
   transported across;
6. bookkeeping: counters tick for active agents, landmark observations and
   visited-set updates happen for agents that arrived at a node.

Agents that crossed the same edge in opposite directions simply swap —
the model says they "might not be able to detect each other", and no
snapshot ever exposes the encounter.

Hot path (see ARCHITECTURE.md, "Engine hot path")
-------------------------------------------------

The round loop is built around an **incrementally maintained occupancy
index** ``_occ`` (``node -> [interior count, {port: holder}]``), updated
at every position change, so a Look snapshot is O(1) per agent instead of
an O(k) scan over the team.  On top of it sit a **peek cache** (an
adversary's ``peek_intended_action`` result stays valid until the agent's
memory or position, or its node's occupancy, changes), **snapshot
interning** (the Look phase reuses frozen snapshot instances — the
topology owns the snapshot type), and an allocation-audited round loop
(scratch containers are reused, trace details are only built when a
trace is attached, the live-agent set is maintained instead of rebuilt).
Campaign cells are short, so a round's fixed cost is mostly Python
frames: the phases update the index in line where a position changes
(``_resolve_actions`` for port releases and acquisitions, ``_traverse``
for crossings, ``_crash``), the Look reads ``_occ`` without going through
:meth:`SimulationCore.snapshot_for`, and the end of round walks the live
set and ticks clocks in line.  ``tests/core/test_campaign_path.py``
budgets the calls per round.
``optimized=False`` keeps the original scan-per-snapshot semantics as an
executable reference; the equivalence tests in
``tests/core/test_hotpath_equivalence.py`` assert both paths produce
identical event streams and results, and the golden fixture in
``tests/core/golden_ring_traces.json`` pins ring behaviour to the
pre-refactor engine byte for byte.
"""

from __future__ import annotations

import enum
import os
import sys
from time import perf_counter
from typing import Any, Callable, Sequence

from .actions import Action, ActionKind, STAY
from .agent import AgentState
from .directions import LocalDirection, Orientation, CANONICAL
from .errors import AdversaryViolation, ConfigurationError, InvariantViolation
from .interfaces import ActivationScheduler, Algorithm, Topology
from .memory import AgentMemory
from .results import AgentStats, RunResult
from .trace import Event, EventKind

_LEFT = LocalDirection.LEFT
_RIGHT = LocalDirection.RIGHT
_MOVE = ActionKind.MOVE
_STAY = ActionKind.STAY
_TERMINATE = ActionKind.TERMINATE


class TransportModel(enum.Enum):
    """What happens to an agent sleeping on a port (Section 2.1).

    ``NS`` — no simultaneity: a sleeping agent never moves.
    ``PT`` — passive transport: a sleeping agent on a port of a present
    edge is carried across during that round.
    ``ET`` — eventual transport: like NS, but the *scheduler* must
    guarantee that an agent sleeping on a port of an infinitely-often
    present edge is eventually activated in a round where the edge is
    present (see :class:`repro.schedulers.ssync.ETFairScheduler`).

    Under FSYNC nobody ever sleeps, so the choice is irrelevant there.
    """

    NS = "ns"
    PT = "pt"
    ET = "et"


#: Safety valve for same-round state-transition chains inside algorithms.
MAX_ROUNDS_LIMIT = 100_000_000


def _default_tie_break(contenders: Sequence[int]) -> int:
    """Default port-contention winner: the lowest agent index."""
    return min(contenders)


def _default_debug_invariants() -> bool:
    """Per-round invariant checking defaults on under pytest, off elsewhere.

    Campaigns pass the flag explicitly per cell
    (:attr:`repro.campaigns.spec.CellConfig.debug_invariants`), so sweep
    throughput never pays for the audit unless a cell asks for it.
    """
    return "PYTEST_CURRENT_TEST" in os.environ or "pytest" in sys.modules


class SimulationCore:
    """A single simulation of one algorithm on one dynamic topology.

    The facades — :class:`repro.core.engine.Engine` (ring) and
    :class:`repro.extensions.dynamic_graph.DynamicGraphEngine` (arbitrary
    port-labelled graphs) — are thin constructors over this class; every
    scheduler, transport model, termination mode, adversary hook and both
    Look paths live here once, for all topologies.
    """

    def __init__(
        self,
        topology: Topology,
        algorithm: Algorithm,
        positions: Sequence[Any],
        *,
        orientations: Sequence[Orientation] | None = None,
        scheduler: ActivationScheduler,
        adversary,
        transport: TransportModel = TransportModel.NS,
        trace=None,
        port_tie_break: Callable[[Sequence[int]], int] = _default_tie_break,
        debug_invariants: bool | None = None,
        optimized: bool = True,
    ) -> None:
        if not positions:
            raise ConfigurationError("at least one agent is required")
        if orientations is None:
            orientations = [CANONICAL] * len(positions)
        if len(orientations) != len(positions):
            raise ConfigurationError(
                f"{len(positions)} positions but {len(orientations)} orientations"
            )
        self.topology = topology
        self.algorithm = algorithm
        self.scheduler = scheduler
        self.adversary = adversary
        self.transport = TransportModel(transport)
        self.trace = trace
        # Optional obs PhaseTimer; attach via set_instrument().  `step`
        # reads it once per round and times its phases only when set.
        self.instrument = None
        self._tie_break = port_tie_break
        self._optimized = bool(optimized)
        self._debug = (
            _default_debug_invariants() if debug_invariants is None
            else bool(debug_invariants)
        )
        self._landmark = topology.landmark
        self._oriented = bool(topology.oriented)
        # Adversaries declare their interface by method: single-edge
        # (``choose_missing_edge``) or edge-set (``missing_edges``).
        self._multi_adversary = hasattr(adversary, "missing_edges")

        # -- occupancy index + hot-path state (invariants in ARCHITECTURE.md):
        # _occ[node] == [interior count, {port: holder index}] for every
        # node hosting at least one agent (terminated agents stay in the
        # index: the Look phase still sees them); _node_version[node]
        # increases monotonically on every occupancy change at that node
        # and is never reset, so peek-cache entries can never alias across
        # visits; _live mirrors {a.index : not a.terminated}.
        self._occ: dict[Any, list] = {}
        self._node_version: dict[Any, int] = {}
        self._live: set[int] = set()
        self._peek_cache: dict[int, tuple] = {}
        # Fault injection (repro.resilience.faults): attach via
        # set_fault_plan().  ``None`` keeps every fault branch dead so
        # fault-free runs execute exactly the pre-resilience loop.
        self.faults = None
        self._crashed: set[int] = set()
        # Reused per-round scratch containers (allocation audit).
        self._decisions: dict[int, Action] = {}
        self._requests: dict[tuple, list[int]] = {}
        self._movers: set[int] = set()
        self._released: set[tuple] = set()
        self._missing: set = set()

        self.agents: list[AgentState] = []
        for index, (node, orientation) in enumerate(zip(positions, orientations)):
            agent = AgentState(
                index=index,
                orientation=orientation,
                node=topology.normalize(node),
                memory=AgentMemory(),
            )
            self.agents.append(agent)
            self._live.add(index)
            entry = self._occ.get(agent.node)
            if entry is None:
                self._occ[agent.node] = [1, {}]
            else:
                entry[0] += 1
            self._node_version[agent.node] = self._node_version.get(agent.node, 0) + 1

        self.round_no = 0
        self.missing_edge = None
        self.visited: set = set()
        self.exploration_round: int | None = None
        self.termination_rounds: dict[int, int] = {}
        self.last_active: set[int] = set()

        for agent in self.agents:
            self.algorithm.setup(agent.memory)
            self.visited.add(agent.node)
            if agent.node == self._landmark:
                agent.memory.observe_landmark()
        if len(self.visited) == self.topology.size:
            self.exploration_round = 0
        self.adversary.reset(self)
        self.scheduler.reset(self)

    # ------------------------------------------------------------------
    # read API (used by adversaries, schedulers, analysis)
    # ------------------------------------------------------------------

    @property
    def exploration_complete(self) -> bool:
        return len(self.visited) == self.topology.size

    @property
    def live_indexes(self) -> set[int]:
        """Indexes of non-terminated agents (maintained; do not mutate)."""
        return self._live

    @property
    def all_terminated(self) -> bool:
        return not self._live

    def set_fault_plan(self, injector) -> None:
        """Attach (or detach) a fault injector to the round loop.

        ``injector`` is a :class:`repro.resilience.faults.FaultInjector`
        (one per run — it owns the stochastic clause's RNG stream).  With
        no injector attached the loop never touches a fault branch, so
        fault-free runs stay byte-identical to the pre-resilience engine.
        """
        self.faults = injector

    @property
    def missing_edges(self) -> set:
        """This round's missing edge set (empty when nothing is removed).

        ``missing_edge`` remains the scalar view for single-edge rounds
        (the paper's ring model); this is the general form schedulers and
        adversaries should consult via :meth:`edge_present`.
        """
        return self._missing

    def edge_present(self, edge) -> bool:
        """Whether ``edge`` is present in this round's footprint."""
        return edge not in self._missing

    def port_edge(self, agent: AgentState):
        """The edge the agent's occupied port leads to (``None`` if in a node)."""
        if agent.port is None:
            return None
        return self.topology.edge_from(agent.node, agent.port)

    def snapshot_for(self, agent: AgentState):
        """Build the agent's Look snapshot of the current configuration.

        On the optimized path this is an O(1) read of the occupancy index;
        ``optimized=False`` keeps the original O(k) scan as the executable
        reference the equivalence tests compare against.  The snapshot
        *type* is topology-owned (ring: :class:`~repro.core.snapshot.Snapshot`,
        graphs: :class:`~repro.extensions.dynamic_graph.GraphSnapshot`).
        """
        if not self._optimized:
            return self._snapshot_for_scan(agent)
        interior, holders = self._occ[agent.node]
        return self.topology.snapshot(agent, interior, holders)

    def _snapshot_for_scan(self, agent: AgentState):
        """Reference implementation: O(k) scan over the team (pre-index)."""
        agents = self.agents
        if self._crashed:
            # A crashed agent vanished from the configuration; the scan
            # must agree with the occupancy index it is checked against.
            agents = [a for a in agents if not a.crashed]
        return self.topology.snapshot_scan(agent, agents)

    def peek_intended_action(self, index: int) -> Action:
        """Simulate the agent's next Compute without side effects.

        This is the omniscience the paper's adversaries enjoy: protocols
        are deterministic, so an adversary that knows the algorithm can
        always work out what an agent would do if activated now.

        Adversaries call this for every agent every round, so results are
        cached: a peek is a pure function of the agent's snapshot and
        memory, so a cached action stays valid until the agent's memory or
        position changes (the engine drops entries for agents that were
        active or passively transported) or the occupancy of its node
        changes (detected via the node's monotonic version counter).  A
        cache miss still pays one :meth:`AgentMemory.clone` plus one
        speculative Compute — see ``benchmarks/bench_engine_hotpath.py``
        for what the cache is worth under the peek-heavy adversaries.
        """
        agent = self.agents[index]
        if agent.terminated or agent.crashed:
            return STAY
        if not self._optimized:
            snapshot = self.snapshot_for(agent)
            return self.algorithm.compute(snapshot, agent.memory.clone())
        return self._peek_entry(agent)[0]

    def peek_intended_edge(self, index: int):
        """The edge the agent would try to traverse if activated now.

        ``None`` when the agent is terminated or its intended action is
        not a MOVE.  This is the derived quantity every look-ahead
        adversary actually wants (see :mod:`repro.adversary.blocking`,
        :mod:`repro.adversary.impossibility`,
        :mod:`repro.adversary.worst_case` and
        :mod:`repro.analysis.model_check`); the edge is resolved once per
        cached peek instead of per call.
        """
        agent = self.agents[index]
        if agent.terminated or agent.crashed:
            return None
        if not self._optimized:
            intent = self.peek_intended_action(index)
            if intent.kind is not ActionKind.MOVE:
                return None
            return self.topology.edge_from(
                agent.node, self._move_target(agent, intent))
        return self._peek_entry(agent)[4]

    def _move_target(self, agent: AgentState, action: Action):
        """The port a MOVE action aims at (local direction or port token)."""
        direction = action.direction
        if direction is not None:
            return agent.left_global if direction is _LEFT else agent.right_global
        return action.port

    def _peek_entry(self, agent: AgentState) -> tuple:
        """The agent's cached ``(action, node, port, version, edge)`` peek.

        Valid while the agent's position and its node's occupancy version
        are unchanged (memory changes drop the entry, see
        :meth:`_end_of_round` and :meth:`_move_phase`).
        """
        index = agent.index
        node = agent.node
        version = self._node_version.get(node, 0)
        entry = self._peek_cache.get(index)
        if (
            entry is not None
            and entry[1] == node
            and entry[2] is agent.port
            and entry[3] == version
        ):
            return entry
        snapshot = self.snapshot_for(agent)
        action = self.algorithm.compute(snapshot, agent.memory.clone())
        if action.kind is ActionKind.MOVE:
            edge = self.topology.edge_from(node, self._move_target(agent, action))
        else:
            edge = None
        entry = (action, node, agent.port, version, edge)
        self._peek_cache[index] = entry
        return entry

    # ------------------------------------------------------------------
    # the round loop
    # ------------------------------------------------------------------

    def step(self) -> bool:
        """Execute one round; returns ``False`` if no live agent remains.

        Phase seconds accumulate on ``self.instrument`` when one is set.
        """
        if not self._live:
            return False
        if self.faults is not None:
            self._apply_round_faults()
            if not self._live:
                return False

        timer = self.instrument
        if timer is not None:
            t0 = perf_counter()
        missing = self._choose_missing()
        live = self._live
        active = {i for i in self.scheduler.select(self) if i in live}
        if not active:
            raise AdversaryViolation(
                "scheduler activated no live agent (activation sets must be non-empty)"
            )
        self.last_active = active
        if self.trace is not None:
            detail = (
                self.missing_edge if len(missing) <= 1
                else tuple(sorted(missing, key=repr))
            )
            self._emit(EventKind.ROUND, None, (detail, tuple(sorted(active))))
        if timer is not None:
            t1 = perf_counter()
            timer.adversary += t1 - t0

        decisions = self._look_compute(active)
        if timer is not None:
            t2 = perf_counter()
            timer.look_compute += t2 - t1

        movers = self._resolve_actions(decisions)
        self._move_phase(movers)
        if timer is not None:
            t3 = perf_counter()
            timer.move += t3 - t2

        self._end_of_round(active)
        if timer is not None:
            timer.end_of_round += perf_counter() - t3
            timer.rounds += 1
        self.round_no += 1
        return True

    def _look_compute(self, active: set[int]) -> dict[int, Action]:
        """Look (simultaneous) + Compute for every active agent.

        Agent decisions are mutually independent — a Compute only
        mutates its own agent's memory and no snapshot reads any memory
        but the observer's — so the optimized path fuses Look and
        Compute per agent; the reference path keeps the original
        two-pass shape.
        """
        decisions = self._decisions
        decisions.clear()
        algorithm = self.algorithm
        agents = self.agents
        if self._optimized:
            # snapshot_for, unrolled: one index read and one topology call.
            # The Look reads ``failed`` before this round clears it.
            occ = self._occ
            look = self.topology.snapshot
            compute = algorithm.compute
            for i in active:
                agent = agents[i]
                interior, holders = occ[agent.node]
                snapshot = look(agent, interior, holders)
                memory = agent.memory
                memory.failed = False
                decisions[i] = compute(snapshot, memory)
        else:
            snapshots = {i: self.snapshot_for(agents[i]) for i in active}
            for i in active:
                agent = agents[i]
                agent.memory.failed = False
                decisions[i] = algorithm.compute(snapshots[i], agent.memory)
        return decisions

    def set_instrument(self, instrument) -> None:
        """Attach (or detach, with ``None``) an obs ``PhaseTimer``."""
        self.instrument = instrument

    def run(
        self,
        max_rounds: int,
        *,
        stop_on_exploration: bool = False,
        stop_when: Callable[["SimulationCore"], bool] | None = None,
    ) -> RunResult:
        """Run until everyone terminated, a stop condition, or the horizon."""
        if not 0 < max_rounds <= MAX_ROUNDS_LIMIT:
            raise ConfigurationError(f"max_rounds must be in (0, {MAX_ROUNDS_LIMIT}]")
        reason = "horizon"
        live = self._live
        for _ in range(max_rounds):
            if not live:
                reason = self._halt_reason()
                break
            if stop_on_exploration and self.exploration_complete:
                reason = "explored"
                break
            if stop_when is not None and stop_when(self):
                reason = "stop-condition"
                break
            self.step()
        else:
            if self.all_terminated:
                reason = self._halt_reason()
            elif stop_on_exploration and self.exploration_complete:
                reason = "explored"
        return self._build_result(reason)

    def _halt_reason(self) -> str:
        """Why the live set emptied: survivor census semantics.

        Termination re-anchors on the surviving agents — a run whose
        every *survivor* terminated halts ``all-terminated`` exactly as
        a fault-free run would; a run that crashed its whole team halts
        ``all-crashed`` (nobody is left to certify anything).
        """
        if self._crashed and len(self._crashed) == len(self.agents):
            return "all-crashed"
        return "all-terminated"

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------

    def _apply_round_faults(self) -> None:
        """Crash the agents the fault plan dooms at this round's start.

        Runs before the adversary moves and before the scheduler selects
        (a dead agent can neither be activated nor observed), with the
        live set passed in sorted order so the stochastic clause's draw
        sequence is deterministic.
        """
        doomed = self.faults.crashes_at_round(self.round_no, sorted(self._live))
        for i in doomed:
            self._crash(self.agents[i])

    def _crash(self, agent: AgentState) -> None:
        """Remove one agent from the configuration, permanently.

        A crashed agent releases its occupancy (a dead robot must not
        hold a port against the mutual-exclusion rule forever), leaves
        the live set, and is invisible to every later Look snapshot —
        on both the indexed and the reference scan path.
        """
        node = agent.node
        entry = self._occ[node]
        if agent.port is None:
            entry[0] -= 1
        else:
            del entry[1][agent.port]
        if entry[0] == 0 and not entry[1]:
            del self._occ[node]
        versions = self._node_version
        versions[node] = versions.get(node, 0) + 1
        agent.crashed = True
        agent.port = None
        index = agent.index
        self._live.discard(index)
        self._crashed.add(index)
        self._peek_cache.pop(index, None)
        if self.trace is not None:
            self._emit(EventKind.CRASH, index, f"at v{node}")

    # ------------------------------------------------------------------
    # round phases
    # ------------------------------------------------------------------

    def _choose_missing(self) -> set:
        """Consult the adversary and validate its removal against the model."""
        missing = self._missing
        missing.clear()
        topology = self.topology
        if self._multi_adversary:
            for edge in self.adversary.missing_edges(self):
                missing.add(topology.canonical_edge(edge))
            if missing:
                topology.validate_missing(missing)
        else:
            edge = self.adversary.choose_missing_edge(self)
            if edge is not None:
                topology.validate_edge(edge)
                missing.add(edge)
        self.missing_edge = next(iter(missing)) if len(missing) == 1 else None
        return missing

    def _resolve_actions(self, decisions: dict[int, Action]) -> set[int]:
        """Apply terminations/releases and resolve port mutual exclusion.

        Returns the set of agents positioned on the port they asked to
        traverse this round (the Move-phase participants).

        Port denial rule: a port occupied at the *start* of the round is
        denied to new requesters all round.  The optimized path answers
        "occupied at start?" from the live index plus ``_released`` (the
        ports vacated earlier in this very call — explicitly by
        ``ENTER_NODE`` or implicitly by an agent winning the opposite
        port); the reference path snapshots the start set up front.

        Both port-holding changes of this phase update the occupancy
        index here, in line: ``ENTER_NODE`` moves a port holder into the
        interior, a winner moves from the interior (or its other port)
        onto the requested port.  Each bumps the node's version counter.
        """
        optimized = self._optimized
        agents = self.agents
        occ = self._occ
        versions = self._node_version
        released = self._released
        released.clear()
        if optimized:
            occupied_at_start = None
        else:
            occupied_at_start = {
                (a.node, a.port) for a in agents if a.port is not None
            }
        movers = self._movers
        movers.clear()
        requests = self._requests
        requests.clear()
        trace = self.trace

        for i, action in decisions.items():
            kind = action.kind
            if kind is _STAY:
                continue
            agent = agents[i]
            if kind is _MOVE:
                direction = action.direction
                if direction is not None:
                    target = (
                        agent.left_global if direction is _LEFT else agent.right_global
                    )
                else:
                    target = action.port
                if agent.port is target:
                    movers.add(i)  # already holds the right port; Btime keeps counting
                else:
                    key = (agent.node, target)
                    group = requests.get(key)
                    if group is None:
                        requests[key] = [i]
                    else:
                        group.append(i)
                continue
            if kind is _TERMINATE:
                agent.terminated = True
                self._live.discard(i)
                self.termination_rounds[i] = self.round_no
                if trace is not None:
                    self._emit(EventKind.TERMINATE, i, f"at v{agent.node}")
                continue
            # ENTER_NODE: port -> interior of the same node.
            port = agent.port
            if port is not None:
                node = agent.node
                entry = occ[node]
                del entry[1][port]
                entry[0] += 1
                released.add((node, port))
                versions[node] = versions.get(node, 0) + 1
                agent.port = None
                agent.memory.Btime = 0
                if trace is not None:
                    self._emit(EventKind.ENTER_NODE, i, f"v{node}")

        tie_break = self._tie_break
        default_tie_break = tie_break is _default_tie_break
        for (node, target), contenders in requests.items():
            if optimized:
                entry = occ.get(node)
                occupied = (
                    entry is not None and target in entry[1]
                ) or (node, target) in released
            else:
                occupied = (node, target) in occupied_at_start
            if occupied:
                winner = -1
            elif default_tie_break and len(contenders) == 1:
                winner = contenders[0]
            else:
                winner = tie_break(contenders)
                if winner not in contenders:
                    raise InvariantViolation("tie-break returned a non-contender")
            for i in contenders:
                agent = agents[i]
                memory = agent.memory
                # A fresh traversal attempt either way: the consecutive-wait
                # clock restarts (it only accumulates while pushing on the
                # same port across rounds).
                memory.Btime = 0
                if i == winner:
                    # Interior (or the other port, implicitly vacated) ->
                    # the target port of the same node.
                    entry = occ[node]
                    holders = entry[1]
                    old_port = agent.port
                    if old_port is None:
                        entry[0] -= 1
                    else:
                        del holders[old_port]
                        released.add((node, old_port))
                    holders[target] = i
                    versions[node] = versions.get(node, 0) + 1
                    agent.port = target
                    movers.add(i)
                else:
                    # Section 2.1: "otherwise it sets moved = false".
                    memory.failed = True
                    memory.moved = False
                    if trace is not None:
                        self._emit(
                            EventKind.PORT_DENIED, i,
                            f"v{node} toward {getattr(target, 'name', target)}",
                        )
        return movers

    def _move_phase(self, movers: set[int]) -> None:
        trace = self.trace
        missing = self._missing
        topology = self.topology
        faults = self.faults
        agents = self.agents
        for i in sorted(movers):
            agent = agents[i]
            assert agent.port is not None
            edge = topology.edge_from(agent.node, agent.port)
            if edge in missing:
                if faults is not None and faults.lost_on_removal(i):
                    # Lost-on-removal: the agent waiting on the removed
                    # edge is gone with it (crash-on-edge-removal model).
                    self._crash(agent)
                    continue
                agent.memory.record_blocked()
                if trace is not None:
                    self._emit(
                        EventKind.BLOCKED, i,
                        f"v{agent.node} edge e{topology.edge_label(edge)}",
                    )
            else:
                self._traverse(agent, EventKind.MOVE)

        if self.transport is TransportModel.PT:
            last_active = self.last_active
            peek_cache = self._peek_cache
            for agent in agents:
                if (
                    agent.terminated
                    or agent.index in last_active
                    or agent.port is None
                ):
                    continue
                edge = topology.edge_from(agent.node, agent.port)
                if edge not in missing:
                    self._traverse(agent, EventKind.TRANSPORT)
                    # A transported agent's memory changed without it being
                    # active: its cached peek is stale.
                    peek_cache.pop(agent.index, None)

    def _traverse(self, agent: AgentState, kind: EventKind) -> None:
        """Cross the edge behind the agent's port into the next node.

        Updates the occupancy index in line (port of the origin ->
        interior of the destination, both version counters bumped).
        """
        assert agent.port is not None
        origin = agent.node
        port = agent.port
        if self._oriented:
            local = _LEFT if port is agent.left_global else _RIGHT
        else:
            local = None
        destination = self.topology.neighbor(origin, port)
        occ = self._occ
        entry = occ[origin]
        holders = entry[1]
        del holders[port]
        if entry[0] == 0 and not holders:
            del occ[origin]
        dest = occ.get(destination)
        if dest is None:
            occ[destination] = [1, {}]
        else:
            dest[0] += 1
        versions = self._node_version
        versions[origin] = versions.get(origin, 0) + 1
        versions[destination] = versions.get(destination, 0) + 1
        agent.node = destination
        agent.port = None
        agent.memory.record_traversal(local)
        if destination == self._landmark:
            agent.memory.observe_landmark()
        visited = self.visited
        if self.trace is not None:
            self._emit(kind, agent.index, f"v{origin}->v{destination}")
        if destination not in visited:
            visited.add(destination)
            if self.exploration_round is None and len(visited) == self.topology.size:
                # Exploration completes during round `round_no`; by the
                # paper's accounting that is "time round_no + 1" (rounds
                # are 0-indexed).
                self.exploration_round = self.round_no + 1
                if self.trace is not None:
                    self._emit(
                        EventKind.EXPLORED, None, f"after {self.round_no + 1} rounds"
                    )

    def _end_of_round(self, active: set[int]) -> None:
        """Tick the clocks of the live agents (terminated and crashed
        agents never act again, and ``_live`` holds exactly the others)."""
        peek_cache = self._peek_cache
        agents = self.agents
        for i in self._live:
            agent = agents[i]
            if i in active:
                # The per-activation clocks; Ntime runs once the size
                # is known.
                memory = agent.memory
                memory.Ttime += 1
                memory.Etime += 1
                if memory.size is not None:
                    memory.Ntime += 1
                agent.rounds_since_active = 0
                agent.activations += 1
                # Active agents Computed against their real memory (and may
                # have moved/blocked/been denied): drop their cached peeks.
                peek_cache.pop(i, None)
            else:
                agent.rounds_since_active += 1
        if self._debug:
            self._check_invariants()

    # ------------------------------------------------------------------
    # validation / bookkeeping
    # ------------------------------------------------------------------

    def _check_invariants(self) -> None:
        seen: set[tuple] = set()
        for agent in self.agents:
            if agent.port is None:
                continue
            key = (agent.node, agent.port)
            if key in seen:
                raise InvariantViolation(f"two agents share port {key}")
            seen.add(key)
        # The occupancy index and live set must equal a fresh recount
        # (crashed agents left the configuration and count for neither).
        expected: dict[Any, list] = {}
        for agent in self.agents:
            if agent.crashed:
                continue
            entry = expected.setdefault(agent.node, [0, {}])
            if agent.port is None:
                entry[0] += 1
            else:
                entry[1][agent.port] = agent.index
        if expected != self._occ:
            raise InvariantViolation(
                f"occupancy index drifted: have {self._occ}, expected {expected}"
            )
        live = {a.index for a in self.agents
                if not a.terminated and not a.crashed}
        if live != self._live:
            raise InvariantViolation(
                f"live set drifted: have {self._live}, expected {live}"
            )

    def _emit(self, kind: EventKind, agent: int | None, detail) -> None:
        if self.trace is not None:
            self.trace.emit(Event(self.round_no, kind, agent, detail))

    def _build_result(self, reason: str) -> RunResult:
        stats = [
            AgentStats(
                index=a.index,
                moves=a.memory.Tsteps,
                terminated=a.terminated,
                termination_round=self.termination_rounds.get(a.index),
                final_node=a.node,
                waiting_on_port=a.port is not None,
                crashed=a.crashed,
            )
            for a in self.agents
        ]
        return RunResult(
            ring_size=self.topology.size,
            rounds=self.round_no,
            explored=self.exploration_complete,
            exploration_round=self.exploration_round,
            visited=set(self.visited),
            agents=stats,
            halted_reason=reason,
            # Only fault-plan runs report a census; fault-free records
            # stay byte-identical to the pre-resilience format.
            crashed_count=len(self._crashed) if self.faults is not None else None,
        )
