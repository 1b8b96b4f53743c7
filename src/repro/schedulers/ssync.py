"""Semi-synchronous activation schedulers (Section 4).

In SSYNC an adversary picks which non-empty subset of agents is active in
each round, constrained only by fairness: every agent is activated
infinitely often.  The schedulers here are the concrete instantiations the
reproduction uses:

* :class:`RoundRobinScheduler` — activates a sliding window of agents; the
  most adversarial *fair* scheduler we use for liveness experiments.
* :class:`RandomFairScheduler` — each agent flips a coin per round, with a
  starvation cap that force-includes an agent left inactive too long (this
  makes fairness a hard guarantee rather than a probability-1 event).
* :class:`ETFairScheduler` — a wrapper enforcing the Eventual Transport
  simultaneity condition: an agent sleeping on a port whose edge keeps
  being present is eventually activated in a round where the edge is
  present.
* :class:`ScriptedScheduler` — plays back an explicit activation function;
  used by the impossibility constructions.

All randomness comes from a scheduler-owned :class:`random.Random` seeded
at construction, so every simulation is reproducible.  The first three
also decide without an engine: ``select(engine)`` reads ``choose``'s
inputs off it — the sorted live indexes, rounds since active per live
agent, and (ET) whether each port sleeper's edge is present.  They
expose their parameters as read-only attributes, and
:class:`RandomFairScheduler` hands out its stream's raw words
(:meth:`~RandomFairScheduler.words`), so
:class:`~repro.core.batch.BatchCore` replays the same decisions as
array operations without asking ``choose`` per cell.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from ..core.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover
    from ..core.engine import Engine


class RoundRobinScheduler:
    """Activate ``window`` consecutive agents, rotating one step per round.

    With ``window=1`` exactly one agent acts per round — the slowest fair
    schedule possible, and the one that exposes most SSYNC corner cases.
    """

    def __init__(self, window: int = 1) -> None:
        if window < 1:
            raise ConfigurationError("window must be >= 1")
        self.window = window
        self._offset = 0

    def reset(self, engine: "Engine") -> None:  # noqa: ARG002
        self._offset = 0

    def select(self, engine: "Engine") -> set[int]:
        return self.choose(sorted(engine.live_indexes), {}, {})

    def choose(self, live: list[int], idle, waiting) -> set[int]:  # noqa: ARG002
        if not live:
            return set()
        size = min(self.window, len(live))
        start = self._offset % len(live)
        chosen = {live[(start + k) % len(live)] for k in range(size)}
        self._offset += 1
        return chosen

    def __repr__(self) -> str:
        return f"RoundRobinScheduler(window={self.window})"


class RandomFairScheduler:
    """Independent coin flips with a hard starvation cap.

    Every live agent is activated with probability ``p`` each round; if the
    draw comes up empty one agent is picked uniformly (activation sets must
    be non-empty); and any agent inactive for ``starvation_cap`` consecutive
    rounds is force-included, turning fairness into a guarantee.
    """

    def __init__(self, p: float = 0.5, seed: int = 0, starvation_cap: int = 64) -> None:
        if not 0.0 < p <= 1.0:
            raise ConfigurationError("activation probability must be in (0, 1]")
        if starvation_cap < 1:
            raise ConfigurationError("starvation_cap must be >= 1")
        self._p = p
        self._seed = seed
        self._cap = starvation_cap
        self._rng = random.Random(seed)

    @property
    def p(self) -> float:
        """Each live agent's activation probability per round."""
        return self._p

    @property
    def starvation_cap(self) -> int:
        """Rounds idle after which an agent is force-activated."""
        return self._cap

    def words(self, count: int) -> bytes:
        """The next ``count`` 32-bit words of this scheduler's stream,
        little-endian, in the order ``choose`` would draw them."""
        return self._rng.getrandbits(32 * count).to_bytes(4 * count, "little")

    def reset(self, engine: "Engine") -> None:  # noqa: ARG002
        self._rng = random.Random(self._seed)

    def select(self, engine: "Engine") -> set[int]:
        live = sorted(engine.live_indexes)
        agents = engine.agents
        return self.choose(
            live, {i: agents[i].rounds_since_active for i in live}, {})

    def choose(self, live: list[int], idle: dict[int, int],
               waiting) -> set[int]:  # noqa: ARG002
        # ``idle`` holds live agents only: a crashed agent's count is
        # frozen, and forcing it would activate nobody live.
        if not live:
            return set()
        chosen = {i for i in live if self._rng.random() < self._p}
        chosen.update(i for i, rounds in idle.items() if rounds >= self._cap)
        if not chosen:
            chosen = {self._rng.choice(live)}
        return chosen

    def __repr__(self) -> str:
        return f"RandomFairScheduler(p={self._p}, seed={self._seed}, cap={self._cap})"


class ETFairScheduler:
    """Enforce the ET simultaneity condition on top of a base scheduler.

    Section 2.1 (ET): "If an agent is sleeping on a port at round ``t`` and
    the corresponding edge is present infinitely many times, then the agent
    will eventually become active at a round ``t' > t`` when the edge is
    present."  The wrapper counts, per agent, rounds it slept on a port
    while its edge was present; once the count reaches ``patience`` and the
    edge is present again, the agent is force-activated that round.

    The engine consults the adversary *before* the scheduler, so the edge
    choice for the current round is already visible here.
    """

    def __init__(self, base, patience: int = 8) -> None:
        if patience < 1:
            raise ConfigurationError("patience must be >= 1")
        self._base = base
        self._patience = patience
        self._debt: dict[int, int] = {}

    @property
    def base(self):
        """The wrapped scheduler."""
        return self._base

    @property
    def patience(self) -> int:
        """Present-edge rounds a port sleeper waits before it is forced."""
        return self._patience

    def reset(self, engine: "Engine") -> None:
        self._base.reset(engine)
        self._debt = {}

    def select(self, engine: "Engine") -> set[int]:
        # edge_present consults the full missing *set*, so the wrapper
        # also enforces ET fairness on multi-edge-removal topologies.
        waiting = {agent.index: engine.edge_present(engine.port_edge(agent))
                   for agent in engine.agents
                   if not agent.terminated and agent.port is not None}
        return self._enforce(set(self._base.select(engine)), waiting)

    def choose(self, live: list[int], idle: dict[int, int],
               waiting: dict[int, bool]) -> set[int]:
        return self._enforce(self._base.choose(live, idle, waiting), waiting)

    def _enforce(self, chosen: set[int], waiting: dict[int, bool]) -> set[int]:
        debts = {}  # an agent off a port (or terminated) owes nothing
        for index, present in waiting.items():
            debt = self._debt.get(index, 0)
            if index in chosen:
                if present:
                    debt = 0
            elif present:
                debt += 1
                if debt >= self._patience:
                    chosen.add(index)
                    debt = 0
            debts[index] = debt
        self._debt = debts
        return chosen

    def __repr__(self) -> str:
        return f"ETFairScheduler({self._base!r}, patience={self._patience})"


class ScriptedScheduler:
    """Play back an explicit activation policy.

    ``script`` is either a sequence of activation sets (cycled when
    exhausted) or a callable ``engine -> iterable of agent indices``.
    Used by the impossibility constructions, which choreograph activations
    round by round.
    """

    def __init__(
        self,
        script: Sequence[Iterable[int]] | Callable[["Engine"], Iterable[int]],
    ) -> None:
        self._script = script
        self._cursor = 0

    def reset(self, engine: "Engine") -> None:  # noqa: ARG002
        self._cursor = 0

    def select(self, engine: "Engine") -> set[int]:
        if callable(self._script):
            return set(self._script(engine))
        if not self._script:
            raise ConfigurationError("empty activation script")
        chosen = set(self._script[self._cursor % len(self._script)])
        self._cursor += 1
        return chosen

    def __repr__(self) -> str:
        return "ScriptedScheduler(...)"
