"""Named campaign specs: the paper's tables and a CI smoke sweep.

Every preset mirrors an existing bench (``benchmarks/bench_table2_fsync.py``
and ``bench_table4_ssync.py`` are now thin drivers over these), so the
same configuration family backs interactive campaigns, benches, and CI.

Specs can also be loaded from JSON or YAML files via :func:`load_spec`,
so one-off sweeps don't require touching Python.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable

from ..core.errors import ConfigurationError
from .spec import CampaignSpec

#: Seeds mirroring the benches (5 for Table 2, 6 for Table 4).
TABLE2_SEEDS = list(range(5))
TABLE4_SEEDS = list(range(6))


def table2_fsync() -> CampaignSpec:
    """Table 2 (FSYNC): Theorems 3, 5, 6 and 8 as one sweep (90 cells)."""
    return CampaignSpec(
        name="table2-fsync",
        description="FSYNC possibility results: termination/exploration times "
                    "for Theorems 3, 5, 6, 8 under a random adversary.",
        base={
            "adversary": "random",
            "transport": "ns",
            "agents": 2,
            "placement": "offset-spread",   # positions [1, 1 + n//2]
        },
        grid={"seed": TABLE2_SEEDS},
        variants=[
            {"label": "t2.1-theorem3-known-bound",
             "algorithm": "known-bound",
             "horizon": "known_bound_time(N) + 5",
             "grid": {"ring_size": [8, 16, 32, 64]}},
            {"label": "t5-theorem5-unconscious",
             "algorithm": "unconscious",
             "horizon": "100 * n",
             "stop_on_exploration": True,
             "grid": {"ring_size": [8, 16, 32, 64, 128]}},
            {"label": "t2.2-theorem6-landmark-chirality",
             "algorithm": "landmark-chirality",
             "landmark": 0,
             "horizon": "100 * n",
             "grid": {"ring_size": [8, 16, 32, 64, 128]}},
            {"label": "t2.3-theorem8-landmark-no-chirality",
             "algorithm": "landmark-no-chirality",
             "landmark": 0,
             "chirality": False,
             "flipped": [1],
             "horizon": "no_chirality_timeout(n) + 10",
             "grid": {"ring_size": [6, 8, 12, 16]}},
        ],
    )


def table4_ssync() -> CampaignSpec:
    """Table 4 (SSYNC): Theorems 12, 14, 16, 17, 18, 20 (108 cells)."""
    return CampaignSpec(
        name="table4-ssync",
        description="SSYNC possibility results: move counts and termination "
                    "modes under PT/ET transports with a random adversary.",
        base={
            "adversary": "random",
            "transport": "pt",
            "placement": "thirds",          # positions [1, 1+n//3, 1+2n//3][:k]
            "max_rounds": 100_000,
        },
        grid={"seed": TABLE4_SEEDS},
        variants=[
            {"label": "t4.1-theorem12-pt-bound",
             "algorithm": "pt-bound", "agents": 2,
             "grid": {"ring_size": [8, 16, 32]}},
            {"label": "t4.2-theorem14-pt-landmark",
             "algorithm": "pt-landmark", "agents": 2, "landmark": 0,
             "grid": {"ring_size": [8, 16, 32]}},
            {"label": "t4.3-theorem16-pt-bound-no-chirality",
             "algorithm": "pt-bound-3", "agents": 3,
             "chirality": False, "flipped": [1],
             "grid": {"ring_size": [9, 18, 33]}},
            {"label": "t4.4-theorem17-pt-landmark-no-chirality",
             "algorithm": "pt-landmark-3", "agents": 3, "landmark": 0,
             "chirality": False, "flipped": [2],
             "grid": {"ring_size": [9, 18, 33]}},
            {"label": "t4.5-theorem18-et-unconscious",
             "algorithm": "et-unconscious", "agents": 2, "transport": "et",
             "stop_on_exploration": True,
             "grid": {"ring_size": [8, 16, 32]}},
            {"label": "t4.6-theorem20-et-exact",
             "algorithm": "et-exact", "agents": 3, "transport": "et",
             "chirality": False, "flipped": [1],
             "grid": {"ring_size": [8, 16, 32]}},
        ],
    )


def paper_tables() -> CampaignSpec:
    """Tables 2 and 4 as one resumable campaign (~200 cells, the default)."""
    return CampaignSpec.merged(
        "paper-tables",
        [table2_fsync(), table4_ssync()],
        description="Every possibility result of Tables 2 and 4 in one sweep.",
    )


def topologies() -> CampaignSpec:
    """Beyond-paper topologies as a sweep dimension (48 cells).

    The open-problem playground of :mod:`repro.extensions` as a campaign:
    the seeded random walk (the classical dynamic-graph answer) over
    ring/path/torus/cactus, each under a connectivity-preserving
    single-edge adversary.  ``ring_size`` is the node count everywhere;
    the sizes are chosen so the torus factorises into a >= 3x3 grid.
    """
    return CampaignSpec(
        name="topologies",
        description="Random-walk exploration across ring, path, torus and "
                    "cactus topologies under a connectivity-preserving "
                    "adversary (requires networkx).",
        base={
            "algorithm": "random-walk",
            "adversary": "random",
            "agents": 2,
            "stop_on_exploration": True,
            "horizon": "400 * n",
        },
        grid={
            "seed": [0, 1, 2],
            "ring_size": [9, 12, 16, 25],
            "topology": ["ring", "path", "torus", "cactus"],
        },
        variants=[{"label": "random-walk-topologies"}],
    )


def topologies_smoke() -> CampaignSpec:
    """Unified-core CI smoke: scheduler × topology grid (24 cells, <60s).

    One cell per (topology × scheduler × seed) for the random walk, plus
    a terminating rotor-router row per topology — FSYNC and SSYNC
    activation, exploration and explicit termination, all through the
    same :class:`~repro.core.sim.SimulationCore` ring cells run on.
    Requires networkx.
    """
    return CampaignSpec(
        name="topologies-smoke",
        description="CI smoke for the unified core: every topology under "
                    "FSYNC and SSYNC schedulers, plus explicit termination "
                    "(requires networkx).",
        base={
            "adversary": "random",
            "agents": 2,
            "stop_on_exploration": True,
            "horizon": "800 * n",
        },
        grid={
            "seed": [0, 1],
            "ring_size": [9],
            "topology": ["ring", "path", "torus", "cactus"],
        },
        variants=[
            {"label": "smoke-walk-fsync", "algorithm": "random-walk",
             "scheduler": "auto"},
            {"label": "smoke-walk-round-robin", "algorithm": "random-walk",
             "scheduler": "round-robin"},
            {"label": "smoke-rotor-terminating",
             "algorithm": "rotor-router-terminating",
             "scheduler": "random-fair", "stop_on_exploration": False},
        ],
    )


def impossibility() -> CampaignSpec:
    """Tables 1/3 adversary constructions as one sweep (12 cells).

    The impossibility and lower-bound demonstrations, previously
    bench-only, as resumable campaign cells:

    * Theorem 9 — NS starvation: zero moves, ever (the adversary is also
      the scheduler);
    * Theorem 10 — PT without chirality: two agents stranded on four
      nodes by one fixed missing edge;
    * Theorem 19 — ET with only a bound: the two-ring schedule forces an
      *incorrect* termination (the algorithm believes ``bound``, the
      host ring is larger);
    * Figure 2 / Observation 3 — the worst-case schedule stretches
      KnownUpperBound to exactly ``3n - 6`` rounds;
    * Theorem 13 — zig-zag forcing extracts quadratic move counts from
      the PT bound algorithm.
    """
    variants: list[dict] = [
        {"label": "t3.1-theorem9-ns-starvation",
         "algorithm": "pt-bound", "agents": 2, "transport": "ns",
         "adversary": "ns-starvation", "placement": "spread",
         "horizon": "50 * n",
         "grid": {"ring_size": [8, 12, 16]}},
        {"label": "t3.4-theorem19-et-bound-only",
         "algorithm": "et-exact", "agents": 3, "transport": "et",
         "adversary": "theorem19", "bound": 7,
         "chirality": False, "flipped": [1],
         "placement": "explicit", "positions": [0, 2, 4],
         "max_rounds": 30_000,
         "grid": {"ring_size": [11]}},
        {"label": "fig2-worst-case-3n-6",
         "algorithm": "known-bound", "agents": 2, "transport": "ns",
         "adversary": "figure2", "edge": 0,
         "chirality": False, "flipped": [0, 1],   # both agents mirrored
         "placement": "explicit", "positions": [0, 1],
         "horizon": "known_bound_time(N) + 5",
         "grid": {"ring_size": [8, 16, 32]}},
        {"label": "t13-zigzag-quadratic-moves",
         "algorithm": "pt-bound", "agents": 2, "transport": "pt",
         "adversary": "zigzag",
         "placement": "explicit", "positions": [1, 3],
         "stop_on_exploration": True,           # moves are already quadratic
         "horizon": "400 * n * n",
         "grid": {"ring_size": [8, 16, 32]}},
    ]
    # Theorem 10's construction places agents relative to n, so each ring
    # size is its own variant (positions [2, n-1], orientations mirrored).
    for n in (8, 12):
        variants.append(
            {"label": "t3.2-theorem10-pt-no-chirality",
             "algorithm": "pt-bound", "agents": 2, "transport": "pt",
             "scheduler": "fsync",                # everyone active: no PT sleep
             "adversary": "fixed", "edge": 0,
             "chirality": False, "flipped": [1],
             "placement": "explicit", "positions": [2, n - 1],
             "max_rounds": 3_000,
             "grid": {"ring_size": [n]}})
    return CampaignSpec(
        name="impossibility",
        description="Tables 1/3 impossibility and lower-bound adversary "
                    "constructions as resumable campaign cells "
                    "(demonstrations, not proofs).",
        variants=variants,
    )


def impossibility_path() -> CampaignSpec:
    """Path-topology analogues of the Tables 1/3 constructions (24 cells).

    The first bite of "adversary reach on graphs": the same look-ahead
    adversaries that defeat exploration on the ring — Observation 1's
    agent blocking, Observation 2's meeting prevention, Theorem 9's NS
    starvation — re-run on the *path*, the harshest 1-interval-connected
    degree-2 topology, where every edge is a bridge the connectivity
    constraint pins in place.  Each variant sweeps ``topology`` over
    ``ring`` and ``path`` with the same deterministic explorer, so the
    report reads as a direct contrast: the ring rows starve (``NOT
    always explored`` at the full horizon), the path rows explore —
    removal legality, not the distance argument, is what the
    constructions lose at degree 2.

    Sized to stay fast serially yet non-trivial for the distributed
    mode (``campaign run --spec impossibility-path --distributed``).
    """
    return CampaignSpec(
        name="impossibility-path",
        description="Tables 1/3 starvation constructions on ring vs path: "
                    "on the path every edge is a bridge, so the blocking "
                    "and starvation adversaries lose their bite "
                    "(requires networkx).",
        base={
            "stop_on_exploration": True,
            "horizon": "60 * n",
        },
        grid={
            "ring_size": [8, 12, 16],
            "topology": ["ring", "path"],
            "seed": [0],
        },
        variants=[
            # Corollary 1 / Observation 1: one agent, its intended edge
            # forever removed — pinned on the ring, free on the path.
            {"label": "ip-obs1-block-agent", "algorithm": "rotor-router",
             "agents": 1, "adversary": "block-agent"},
            # Observation 2: meetings prevented on the ring, forced on
            # the path (exploration completes either way; the meeting
            # behaviour itself is asserted by the test suite).
            {"label": "ip-obs2-prevent-meetings", "algorithm": "rotor-router",
             "agents": 2, "adversary": "prevent-meetings"},
            # Theorem 9: the combined adversary/scheduler starves every
            # move on the ring; on the path its removal is suppressed and
            # its own schedule walks the agents to full exploration.
            {"label": "ip-t9-ns-starvation", "algorithm": "rotor-router",
             "agents": 2, "adversary": "ns-starvation", "transport": "ns"},
            # Control row: the connectivity-preserving random adversary,
            # same explorer, both topologies explore.
            {"label": "ip-control-random", "algorithm": "rotor-router",
             "agents": 2, "adversary": "random"},
        ],
    )


def smoke() -> CampaignSpec:
    """A <60s CI campaign touching FSYNC, PT and ET paths (24 cells)."""
    return CampaignSpec(
        name="smoke",
        description="Fast end-to-end sanity sweep for CI.",
        base={"adversary": "random"},
        grid={"seed": [0, 1, 2], "ring_size": [6, 8]},
        variants=[
            {"label": "smoke-known-bound", "algorithm": "known-bound",
             "horizon": "known_bound_time(N) + 5",
             "placement": "offset-spread"},
            {"label": "smoke-unconscious", "algorithm": "unconscious",
             "horizon": "100 * n", "stop_on_exploration": True,
             "placement": "offset-spread"},
            {"label": "smoke-pt-bound", "algorithm": "pt-bound",
             "transport": "pt", "placement": "thirds", "max_rounds": 20_000},
            {"label": "smoke-et-unconscious", "algorithm": "et-unconscious",
             "transport": "et", "placement": "thirds", "max_rounds": 20_000,
             "stop_on_exploration": True},
        ],
    )


def batch_smoke() -> CampaignSpec:
    """A <60s CI campaign in which *every* cell is batch-eligible.

    The CI batch lane runs this twice — ``--batch auto`` and
    ``--batch off`` — and diffs the stores byte for byte: the vector
    path must be invisible in everything persisted.  The widened
    frontier (PT/ET transports, landmark kernels, SSYNC masks, the
    block-agent peek) gets the same treatment from the ``batch-wide``
    preset, fault plans from ``faults-smoke``; mixed chunk routing is
    covered by ``impossibility``, whose peeking constructions stay
    scalar.
    """
    return CampaignSpec(
        name="batch-smoke",
        description="All-eligible sweep for the batched-vs-scalar CI diff.",
        base={"adversary": "random", "transport": "ns"},
        grid={"seed": [0, 1, 2, 3], "ring_size": [8, 12, 16]},
        variants=[
            {"label": "batch-known-bound", "algorithm": "known-bound",
             "horizon": "known_bound_time(N) + 5",
             "placement": "offset-spread"},
            {"label": "batch-known-bound-k4", "algorithm": "known-bound",
             "agents": 4, "horizon": "known_bound_time(N) + 5"},
            {"label": "batch-unconscious", "algorithm": "unconscious",
             "horizon": "100 * n", "stop_on_exploration": True,
             "placement": "offset-spread"},
        ],
    )


def batch_wide() -> CampaignSpec:
    """The widened-frontier CI sweep: PT/ET, landmarks, SSYNC, block-agent,
    lost-on-removal and the periodic adversary (72 cells).

    Every cell is batch-eligible and every variant lands in a kernel
    family the original ``batch-smoke`` preset never touched: PT rides,
    ET exact-traversal bookkeeping, landmark size learning (with and
    without chirality), the SSYNC activation masks, the block-agent
    adversary's peek at agent 0's intended move, a ``lost:*`` team
    crashing on a fixed removed edge and an intermittent ``periodic``
    edge.  The CI batch lane runs this twice — ``--batch auto`` and
    ``--batch off`` — and diffs the stores byte for byte, so a
    regression in any new kernel breaks CI even if the equivalence
    suite's grid misses the shape.
    """
    return CampaignSpec(
        name="batch-wide",
        description="All-eligible PT/ET/landmark/SSYNC sweep for the "
                    "batched-vs-scalar CI diff.",
        base={"adversary": "random"},
        grid={"seed": [0, 1, 2], "ring_size": [8, 12]},
        variants=[
            {"label": "bw-pt-bound", "algorithm": "pt-bound",
             "transport": "pt", "placement": "thirds",
             "max_rounds": 2_000},
            {"label": "bw-pt-landmark", "algorithm": "pt-landmark",
             "transport": "pt", "landmark": 0, "placement": "thirds",
             "max_rounds": 2_000},
            {"label": "bw-et-unconscious", "algorithm": "et-unconscious",
             "transport": "et", "placement": "thirds",
             "stop_on_exploration": True, "max_rounds": 2_000},
            {"label": "bw-et-exact", "algorithm": "et-exact", "agents": 3,
             "transport": "et", "chirality": False, "flipped": [1],
             "max_rounds": 2_000},
            {"label": "bw-landmark-chirality",
             "algorithm": "landmark-chirality", "landmark": 0,
             "horizon": "100 * n"},
            {"label": "bw-landmark-no-chirality",
             "algorithm": "landmark-no-chirality", "landmark": 0,
             "chirality": False, "flipped": [1],
             "horizon": "no_chirality_timeout(n) + 10"},
            {"label": "bw-ssync-round-robin", "algorithm": "known-bound",
             "scheduler": "round-robin", "horizon": "100 * n"},
            {"label": "bw-ssync-random-fair", "algorithm": "unconscious",
             "scheduler": "random-fair", "stop_on_exploration": True,
             "horizon": "100 * n"},
            {"label": "bw-ssync-et-fair", "algorithm": "known-bound",
             "scheduler": "et-fair", "transport": "et",
             "max_rounds": 1_500},
            {"label": "bw-block-agent", "algorithm": "known-bound",
             "adversary": "block-agent",
             "horizon": "known_bound_time(N) + 5"},
            {"label": "bw-lost", "algorithm": "known-bound",
             "adversary": "fixed", "faults": "lost:*",
             "horizon": "known_bound_time(N) + 5"},
            {"label": "bw-periodic", "algorithm": "known-bound",
             "adversary": "periodic", "edge": 1,
             "horizon": "known_bound_time(N) + 5"},
        ],
    )


def faults_smoke() -> CampaignSpec:
    """A <60s resilience sweep: fault-free vs crashed agents.

    Pairs each algorithm family with an identical faulty twin so
    ``campaign report`` shows the degradation side by side: the
    known-bound explorer under a ``crash:1@4`` plan loses an agent four
    rounds in, the unconscious explorer is additionally run with a
    small per-round crash rate.  ``make faults-campaign`` runs this and
    then exercises ``report --errors`` and ``report --fit`` over the
    resulting store.
    """
    return CampaignSpec(
        name="faults-smoke",
        description="Fault-injection sweep: crash-at-round and per-round "
                    "crash-rate fault plans next to their fault-free twins.",
        base={"adversary": "random", "transport": "ns", "agents": 2,
              "placement": "offset-spread"},
        grid={"seed": [0, 1, 2], "ring_size": [8, 12, 16]},
        variants=[
            {"label": "ff-known-bound", "algorithm": "known-bound",
             "horizon": "known_bound_time(N) + 5"},
            {"label": "ff-unconscious", "algorithm": "unconscious",
             "horizon": "100 * n", "stop_on_exploration": True},
            {"label": "crash-known-bound", "algorithm": "known-bound",
             "horizon": "known_bound_time(N) + 5", "faults": "crash:1@4"},
            {"label": "crash-unconscious", "algorithm": "unconscious",
             "horizon": "100 * n", "stop_on_exploration": True,
             "faults": "crash:1@4"},
            {"label": "lossy-unconscious", "algorithm": "unconscious",
             "horizon": "100 * n", "stop_on_exploration": True,
             "faults": "rate:0.05"},
        ],
    )


#: name -> spec factory; ``python -m repro campaign list`` prints these.
SPECS: dict[str, Callable[[], CampaignSpec]] = {
    "table2-fsync": table2_fsync,
    "table4-ssync": table4_ssync,
    "paper-tables": paper_tables,
    "impossibility": impossibility,
    "impossibility-path": impossibility_path,
    "topologies": topologies,
    "topologies-smoke": topologies_smoke,
    "smoke": smoke,
    "batch-smoke": batch_smoke,
    "batch-wide": batch_wide,
    "faults-smoke": faults_smoke,
}

DEFAULT_SPEC = "paper-tables"


def get_spec(name: str) -> CampaignSpec:
    """Resolve a preset name to a fresh spec instance."""
    if name not in SPECS:
        raise ConfigurationError(
            f"unknown campaign spec {name!r} (choose from {sorted(SPECS)})")
    return SPECS[name]()


def load_spec(path: str | Path) -> CampaignSpec:
    """Load a spec from a ``.json``/``.yaml``/``.yml`` file.

    Every failure mode (missing file, parse error, bad structure) is
    reported as a :class:`ConfigurationError` so the CLI can turn it
    into a clean message instead of a traceback.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigurationError(f"cannot read spec file {path}: {exc}") from exc
    try:
        if path.suffix in (".yaml", ".yml"):
            try:
                import yaml
            except ImportError as exc:  # pragma: no cover - yaml ships in the image
                raise ConfigurationError("PyYAML is required for YAML specs") from exc
            data = yaml.safe_load(text)
        else:
            data = json.loads(text)
    except ConfigurationError:
        raise
    except Exception as exc:
        raise ConfigurationError(f"invalid spec file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigurationError(
            f"spec file {path} must contain a mapping, got {type(data).__name__}")
    return CampaignSpec.from_dict(data)
