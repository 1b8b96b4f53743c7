"""Agent fault models: crash faults as an ordinary campaign dimension.

The paper's guarantees assume fault-free agents; the follow-up work
(arXiv 2001.04525) asks what survives with fewer or weaker robots.  A
:class:`FaultPlan` describes, declaratively and hashably, which agents
die and when — so ``CellConfig.faults`` sweeps fault models exactly the
way ``seed`` sweeps randomness, and ``report --fit`` contrasts the
fault-free bounds against their faulty counterparts.

Plan grammar — comma-separated clauses in one string::

    "crash:1@4"          agent 1 crashes at the start of round 4
    "lost:0"             agent 0 is lost the round it waits on a removed edge
    "lost:*"             every agent is removal-lossy
    "rate:0.01"          each live agent crashes w.p. 0.01 per round (seeded)

A crashed agent vanishes from the configuration: it leaves the live
set, its node/port occupancy is released (a dead robot does not hold a
port against the mutual-exclusion rule forever), and termination
semantics re-anchor on the *surviving-agent census* — a run where every
survivor terminated halts ``all-terminated``; a run that loses everyone
halts ``all-crashed``.

The stochastic clause draws from its own ``random.Random`` seeded from
the cell seed, so faulty cells replay deterministically and never
perturb the adversary's or scheduler's seeded streams.

Both cores consult the per-run :class:`FaultInjector` that
``registry.fault_injector`` builds: :class:`~repro.core.sim.SimulationCore`
every round, :class:`~repro.core.batch.BatchCore` on each round that can
crash anyone (lost-on-removal read into a column), so a faulty cell's
record is the same on either route.
"""

from __future__ import annotations

import functools
import random
import re
from dataclasses import dataclass

from ..core.errors import ConfigurationError

_CRASH_RE = re.compile(r"^crash:(\d+)@(\d+)$")
_LOST_RE = re.compile(r"^lost:(\d+|\*)$")
_RATE_RE = re.compile(r"^rate:(0(?:\.\d+)?|\.\d+)$")

#: The stochastic clause's stream is ``Random(seed + RATE_SEED_OFFSET)``:
#: offset so it never aliases the adversary's ``seed`` or the
#: scheduler's ``seed + 1`` streams.
RATE_SEED_OFFSET = 0x5EED


@dataclass(frozen=True)
class FaultPlan:
    """A parsed, validated fault specification (immutable, hashable)."""

    #: ``(round, agent)`` scheduled crashes, sorted.
    crash_at: tuple[tuple[int, int], ...] = ()
    #: Agents lost when blocked on a removed edge.
    lost: frozenset = frozenset()
    #: ``lost:*`` — every agent is removal-lossy.
    lost_all: bool = False
    #: Per-agent per-round stochastic crash probability.
    rate: float = 0.0

    @classmethod
    @functools.lru_cache(maxsize=256)
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse a ``faults`` spec string; raises on anything malformed.

        Memoised per spec string (a plan is immutable): routing, the
        batch core and the scalar engine all parse the same few plans
        once per cell.  A malformed spec raises on every call.
        """
        crash_at: list[tuple[int, int]] = []
        lost: set[int] = set()
        lost_all = False
        rate = 0.0
        clauses = [c.strip() for c in spec.split(",") if c.strip()]
        if not clauses:
            raise ConfigurationError(
                f"empty fault plan {spec!r} (use e.g. 'crash:1@4', "
                f"'lost:*', 'rate:0.01')")
        for clause in clauses:
            if match := _CRASH_RE.match(clause):
                crash_at.append((int(match.group(2)), int(match.group(1))))
            elif match := _LOST_RE.match(clause):
                if match.group(1) == "*":
                    lost_all = True
                else:
                    lost.add(int(match.group(1)))
            elif match := _RATE_RE.match(clause):
                if rate:
                    raise ConfigurationError(
                        f"fault plan {spec!r} sets rate twice")
                rate = float(match.group(1))
                if not 0.0 < rate < 1.0:
                    raise ConfigurationError(
                        f"fault rate must be in (0, 1), got {rate}")
            else:
                raise ConfigurationError(
                    f"bad fault clause {clause!r} (expected crash:A@R, "
                    f"lost:A, lost:* or rate:P)")
        if len({agent for _, agent in crash_at}) != len(crash_at):
            raise ConfigurationError(
                f"fault plan {spec!r} crashes the same agent twice")
        return cls(crash_at=tuple(sorted(crash_at)), lost=frozenset(lost),
                   lost_all=lost_all, rate=rate)

    def validate_agents(self, agents: int) -> None:
        """Check every named agent index exists in a team of ``agents``."""
        named = {agent for _, agent in self.crash_at} | set(self.lost)
        bad = sorted(i for i in named if not 0 <= i < agents)
        if bad:
            raise ConfigurationError(
                f"fault plan names agent(s) {bad} but the cell has "
                f"{agents} agent(s) (indexes 0..{agents - 1})")

    def injector(self, *, seed: int = 0) -> "FaultInjector":
        """A fresh per-run injector (owns the stochastic clause's RNG)."""
        return FaultInjector(self, seed=seed)


class FaultInjector:
    """Per-run execution state of one :class:`FaultPlan`.

    The engine consults it at the start of every round
    (:meth:`crashes_at_round`) and whenever an agent waits on a removed
    edge (:meth:`lost_on_removal`).  One injector serves one run: the
    stochastic stream advances with the rounds.
    """

    def __init__(self, plan: FaultPlan, *, seed: int = 0) -> None:
        self.plan = plan
        self._scheduled: dict[int, list[int]] = {}
        for round_no, agent in plan.crash_at:
            self._scheduled.setdefault(round_no, []).append(agent)
        self._rng = random.Random(seed + RATE_SEED_OFFSET) if plan.rate else None

    def crashes_at_round(self, round_no: int, live: list[int]) -> list[int]:
        """Indexes (sorted, live) to crash at the start of ``round_no``.

        One stochastic draw per live agent per round, in index order —
        the draw sequence is a pure function of (seed, live-set
        history), so a faulty run replays exactly.
        """
        doomed = self._scheduled.get(round_no)
        hit = [i for i in doomed if i in live] if doomed else []
        if self._rng is not None:
            rate = self.plan.rate
            hit.extend(i for i in live
                       if self._rng.random() < rate and i not in hit)
        return sorted(hit)

    def lost_on_removal(self, index: int) -> bool:
        """Is ``index`` lost the round it waits on a removed edge?"""
        return self.plan.lost_all or index in self.plan.lost
