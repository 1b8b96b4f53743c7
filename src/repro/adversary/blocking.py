"""Adaptive adversaries built on move look-ahead (Observations 1 and 2).

Both adversaries here exploit the determinism of the protocols: the
adversary simulates what each agent would do if activated now
(:meth:`Engine.peek_intended_action`) and removes an edge accordingly —
exactly the omniscient adversary of the paper's basic limitations.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..core.actions import ActionKind

if TYPE_CHECKING:  # pragma: no cover
    from ..core.engine import Engine


class BlockAgentAdversary:
    """Observation 1: forever remove the edge one agent wants to cross.

    "The adversary can prevent an agent from leaving the initial node
    ``v0`` by always removing the edge over which the agent wants to leave
    ``v0``."  With a single agent this proves Corollary 1 (one agent cannot
    explore); with several it pins the target while the rest roam.
    """

    def __init__(self, target: int = 0) -> None:
        self.target = target

    def reset(self, engine: "Engine") -> None:
        if not 0 <= self.target < len(engine.agents):
            raise ValueError(f"no agent with index {self.target}")

    def choose_missing_edge(self, engine: "Engine"):
        agent = engine.agents[self.target]
        if agent.terminated:
            return None
        # Peek even when the agent already waits on a port: it may decide
        # to reverse this very round, and Observation 1's adversary always
        # removes the edge the agent is about to try.
        edge = engine.peek_intended_edge(self.target)
        if edge is not None:
            return edge
        if agent.port is not None:
            return engine.port_edge(agent)
        return None

    def __repr__(self) -> str:
        return f"BlockAgentAdversary(target={self.target})"


class MeetingPreventionAdversary:
    """Observation 2: never let the two agents end a round at the same node.

    "The adversary will never remove an edge, except in the case when that
    would lead to agents meeting in the next step."  Two cases (paper's
    proof):

    * one agent waits at a node and the other would traverse the edge
      between them — remove that edge;
    * both agents would traverse different edges into the same node —
      remove either one.

    We prevent *any* co-location at a node (interior or port), which also
    rules out the ``catches``/``caught`` detections — the Theorem 1
    construction needs the agents to never observe each other at all.  Two
    agents crossing the *same* edge in opposite directions swap without
    meeting ("might not be able to detect each other"), so that case needs
    (and gets) no removal.  The construction is stated for two agents; with
    more agents one removal per round may not suffice, so :meth:`reset`
    rejects larger teams.

    The construction is **topology-generic**: prediction resolves moves
    through :attr:`~repro.core.sim.SimulationCore.topology` (a ring MOVE
    carries a local direction, a graph explorer MOVE a port number), and
    the distance argument survives on any graph — two agents about to
    co-locate at ``v`` arrive over at most two identifiable edges, and one
    removal per round suffices.  What does *not* survive everywhere is
    removal *legality*: on the ring every single-edge removal is legal, on
    a general graph the chosen edge may be a bridge.  Graph cells wrap
    this adversary in
    :class:`~repro.extensions.dynamic_graph.ConnectivitySafeAdversary`,
    which turns an illegal choice into "remove nothing" — so on the path,
    where *every* edge is a bridge, the adversary is provably impotent
    and meetings happen (the degree-2 boundary of Observation 2's reach).
    """

    def reset(self, engine: "Engine") -> None:
        if len(engine.agents) != 2:
            raise ValueError("Observation 2's construction is for exactly two agents")
        a, b = engine.agents
        if a.node == b.node:
            raise ValueError("Observation 2 needs the agents to start at distinct nodes")

    def choose_missing_edge(self, engine: "Engine"):
        topology = engine.topology
        nodes = []          # predicted node of each agent after the round
        crossing = []       # edge each agent would traverse, if any
        for agent in engine.agents:
            intent = (
                engine.peek_intended_action(agent.index)
                if not agent.terminated
                else None
            )
            if intent is not None and intent.kind is ActionKind.MOVE:
                if intent.direction is not None:
                    port = agent.orientation.to_global(intent.direction)
                else:
                    port = intent.port  # graph explorers move by port number
                nodes.append(topology.neighbor(agent.node, port))
                crossing.append(topology.edge_from(agent.node, port))
            else:
                nodes.append(agent.node)
                crossing.append(None)

        if nodes[0] != nodes[1]:
            return None  # includes the same-edge swap: predicted nodes differ
        # Imminent co-location: block one of the traversals causing it.
        for edge in crossing:
            if edge is not None:
                return edge
        return None  # neither agent moves; they were already co-located

    def __repr__(self) -> str:
        return "MeetingPreventionAdversary()"
