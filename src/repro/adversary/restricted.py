"""Restricted dynamism classes from the paper's related work (§1.1.2-1.1.3).

The paper situates 1-interval connectivity among stronger recurrence
assumptions studied elsewhere:

* **T-interval connectivity** ([13] Class 9; [37]) — a connected spanning
  subgraph persists for ``T`` consecutive rounds.  On a ring this means
  the adversary may switch which edge is missing only every ``T`` rounds.
  ``T = 1`` is the paper's model.
* **delta-recurrence** ([37]) — every edge appears at least once every
  ``delta`` rounds; on a ring, no edge stays missing for ``delta``
  consecutive rounds.

These wrappers constrain any inner adversary to the declared class, which
lets the benches measure how exploration cost decays as the dynamism gets
friendlier — the cross-model sensitivity the related work cares about.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..core.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover
    from ..core.engine import Engine


class TIntervalAdversary:
    """Hold each inner choice for ``T`` rounds (T-interval connectivity).

    Consults the inner adversary once per ``T``-round window and repeats
    its answer for the whole window, so the spanning subgraph (ring minus
    at most one edge) is stable across any window of ``T`` rounds.
    """

    def __init__(self, inner, interval: int) -> None:
        if interval < 1:
            raise ConfigurationError("the interval T must be >= 1")
        self._inner = inner
        self._interval = interval
        self._held: int | None = None

    def reset(self, engine: "Engine") -> None:
        self._inner.reset(engine)
        self._held = None

    def choose_missing_edge(self, engine: "Engine") -> int | None:
        if engine.round_no % self._interval == 0:
            self._held = self._inner.choose_missing_edge(engine)
        return self._held

    def __repr__(self) -> str:
        return f"TIntervalAdversary({self._inner!r}, interval={self._interval})"


class DeltaRecurrentAdversary:
    """Cap consecutive absences of any edge at ``delta - 1`` rounds.

    Wraps an inner adversary; whenever it would keep one edge missing for
    the ``delta``-th consecutive round, the removal is suppressed for one
    round (the edge "recurs"), after which the inner choice applies again.
    """

    def __init__(self, inner, delta: int) -> None:
        if delta < 1:
            raise ConfigurationError("delta must be >= 1")
        self._inner = inner
        self._delta = delta
        self._streak_edge: int | None = None
        self._streak = 0

    def reset(self, engine: "Engine") -> None:
        self._inner.reset(engine)
        self._streak_edge = None
        self._streak = 0

    def choose_missing_edge(self, engine: "Engine") -> int | None:
        choice = self._inner.choose_missing_edge(engine)
        if choice is None:
            self._streak_edge, self._streak = None, 0
            return None
        if choice == self._streak_edge:
            if self._streak >= self._delta - 1:
                self._streak_edge, self._streak = None, 0
                return None  # forced recurrence
            self._streak += 1
            return choice
        if self._delta == 1:
            # delta = 1: every edge present every round (the static ring);
            # no absence streak may even begin.
            self._streak_edge, self._streak = None, 0
            return None
        self._streak_edge, self._streak = choice, 1
        return choice

    def __repr__(self) -> str:
        return f"DeltaRecurrentAdversary({self._inner!r}, delta={self._delta})"

