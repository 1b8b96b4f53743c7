"""The dynamic-ring engine: a thin facade over the topology-generic core.

The full round loop — schedulers, transport models, port mutual
exclusion, the occupancy index, the peek cache, tracing and the invariant
audit — lives in :class:`repro.core.sim.SimulationCore`, shared with
every other topology (see :mod:`repro.extensions.dynamic_graph`).  This
module keeps the paper-facing surface:

* :class:`Engine` — the historical constructor signature (a
  :class:`~repro.core.ring.Ring` plus algorithm/positions/orientations),
  wired to the core through :class:`~repro.core.topology.RingTopology`;
  ``engine.ring`` stays the plain :class:`Ring`, so adversaries and
  analysis code keep the full ring algebra.
* :data:`TransportModel` / :data:`MAX_ROUNDS_LIMIT` re-exports (their
  definitions moved to :mod:`repro.core.sim` with the loop).

Ring behaviour is *trace-exact* through the unified core: the golden
fixture ``tests/core/golden_ring_traces.json`` pins event streams,
per-round peeks and results to the pre-refactor engine.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .directions import Orientation
from .interfaces import ActivationScheduler, Algorithm, EdgeAdversary
from .ring import Ring
from .sim import (
    MAX_ROUNDS_LIMIT,
    SimulationCore,
    TransportModel,
    _default_tie_break,
)
from .topology import RingTopology
from .trace import Trace

__all__ = ["Engine", "MAX_ROUNDS_LIMIT", "TransportModel"]


class Engine(SimulationCore):
    """A single simulation of one algorithm on one dynamic ring."""

    def __init__(
        self,
        ring: Ring,
        algorithm: Algorithm,
        positions: Sequence[int],
        *,
        orientations: Sequence[Orientation] | None = None,
        scheduler: ActivationScheduler,
        adversary: EdgeAdversary,
        transport: TransportModel = TransportModel.NS,
        trace: Trace | None = None,
        port_tie_break: Callable[[Sequence[int]], int] = _default_tie_break,
        debug_invariants: bool | None = None,
    ) -> None:
        self.ring = ring
        super().__init__(
            RingTopology(ring),
            algorithm,
            positions,
            orientations=orientations,
            scheduler=scheduler,
            adversary=adversary,
            transport=transport,
            trace=trace,
            port_tie_break=port_tie_break,
            debug_invariants=debug_invariants,
        )
