"""Benign/oblivious edge adversaries.

These choose the missing edge without inspecting agent intentions; they
are the baselines under which the possibility results are exercised.  All
of them respect 1-interval connectivity by construction (at most one edge
missing per round).

The first four decide from the round, the ring size and their own seeded
state only; ``choose_missing_edge`` delegates to that engine-free
``edge_for(round_no, size)``.  Their parameters are read-only
attributes, and :class:`RandomMissingEdge` hands out its stream's raw
words (:meth:`~RandomMissingEdge.words`), so
:class:`~repro.core.batch.BatchCore` replays the same removals as array
operations.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Callable

from ..core.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover
    from ..core.engine import Engine


class NoRemoval:
    """The static ring: no edge is ever missing."""

    def reset(self, engine: "Engine") -> None:  # noqa: ARG002
        return None

    def choose_missing_edge(self, engine: "Engine") -> int | None:  # noqa: ARG002
        return None

    def edge_for(self, round_no: int, size: int) -> int | None:  # noqa: ARG002
        return None

    def __repr__(self) -> str:
        return "NoRemoval()"


class FixedMissingEdge:
    """Remove one fixed edge during a round window (default: forever).

    The simplest non-trivial adversary; a perpetually missing edge turns
    the ring into a static path, which is the configuration behind many of
    the paper's termination corner cases (e.g. the partial-termination
    behaviour of Theorem 12).
    """

    def __init__(self, edge: int, *, from_round: int = 0, until_round: int | None = None) -> None:
        if from_round < 0:
            raise ConfigurationError("from_round must be >= 0")
        if until_round is not None and until_round <= from_round:
            raise ConfigurationError("until_round must exceed from_round")
        self._edge = edge
        self._from = from_round
        self._until = until_round

    @property
    def edge(self) -> int:
        return self._edge

    @property
    def from_round(self) -> int:
        return self._from

    @property
    def until_round(self) -> int | None:
        return self._until

    def reset(self, engine: "Engine") -> None:
        if not 0 <= self._edge < engine.ring.size:
            raise ConfigurationError(
                f"edge {self._edge} outside ring of size {engine.ring.size}"
            )

    def choose_missing_edge(self, engine: "Engine") -> int | None:
        return self.edge_for(engine.round_no, engine.ring.size)

    def edge_for(self, round_no: int, size: int) -> int | None:  # noqa: ARG002
        if round_no < self._from:
            return None
        if self._until is not None and round_no >= self._until:
            return None
        return self._edge

    def __repr__(self) -> str:
        window = f", from_round={self._from}"
        if self._until is not None:
            window += f", until_round={self._until}"
        return f"FixedMissingEdge({self._edge}{window})"


class PeriodicMissingEdge:
    """Remove ``edge`` in every round where ``round % period < duty``.

    Models intermittent links: present for ``period - duty`` rounds, absent
    for ``duty`` rounds, repeating.
    """

    def __init__(self, edge: int, period: int, duty: int = 1) -> None:
        if period < 1 or not 0 <= duty <= period:
            raise ConfigurationError("need period >= 1 and 0 <= duty <= period")
        self._edge = edge
        self._period = period
        self._duty = duty

    @property
    def edge(self) -> int:
        return self._edge

    @property
    def period(self) -> int:
        return self._period

    @property
    def duty(self) -> int:
        return self._duty

    def reset(self, engine: "Engine") -> None:
        if not 0 <= self._edge < engine.ring.size:
            raise ConfigurationError(
                f"edge {self._edge} outside ring of size {engine.ring.size}"
            )

    def choose_missing_edge(self, engine: "Engine") -> int | None:
        return self.edge_for(engine.round_no, engine.ring.size)

    def edge_for(self, round_no: int, size: int) -> int | None:  # noqa: ARG002
        return self._edge if round_no % self._period < self._duty else None

    def __repr__(self) -> str:
        return f"PeriodicMissingEdge({self._edge}, period={self._period}, duty={self._duty})"


class RandomMissingEdge:
    """Each round, with probability ``p``, remove a uniformly random edge."""

    def __init__(self, p: float = 1.0, seed: int = 0) -> None:
        if not 0.0 <= p <= 1.0:
            raise ConfigurationError("p must be in [0, 1]")
        self._p = p
        self._seed = seed
        self._rng = random.Random(seed)

    @property
    def p(self) -> float:
        """The probability that some edge is missing in a round."""
        return self._p

    def words(self, count: int) -> bytes:
        """The next ``count`` 32-bit words of this adversary's stream,
        little-endian, in the order ``edge_for`` would draw them."""
        return self._rng.getrandbits(32 * count).to_bytes(4 * count, "little")

    def reset(self, engine: "Engine") -> None:  # noqa: ARG002
        self._rng = random.Random(self._seed)

    def choose_missing_edge(self, engine: "Engine") -> int | None:
        return self.edge_for(engine.round_no, engine.ring.size)

    def edge_for(self, round_no: int, size: int) -> int | None:  # noqa: ARG002
        if self._p < 1.0 and self._rng.random() >= self._p:
            return None
        return self._rng.randrange(size)

    def __repr__(self) -> str:
        return f"RandomMissingEdge(p={self._p}, seed={self._seed})"


class FunctionAdversary:
    """Adapter: an arbitrary ``engine -> edge | None`` callable.

    The worst-case schedules of the paper (e.g. Figure 2) are plain
    functions of the round number; this adapter keeps them one-liners.
    """

    def __init__(self, fn: Callable[["Engine"], int | None], label: str = "fn") -> None:
        self._fn = fn
        self._label = label

    def reset(self, engine: "Engine") -> None:  # noqa: ARG002
        return None

    def choose_missing_edge(self, engine: "Engine") -> int | None:
        return self._fn(engine)

    def __repr__(self) -> str:
        return f"FunctionAdversary({self._label})"
