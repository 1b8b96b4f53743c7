"""The benchmark's workloads: what each one runs, and the reference it is checked against.

Every workload is a ``python -m repro campaign ...`` invocation as a user
would type it.  Its *reference* is the same spec through the scalar
serial path (``campaign run --workers 1 --batch off``): routing, pool
and queue modes are proven record-identical to it, so every measured
run must reproduce the reference store (modulo ``elapsed_s``/``span_id``)
and its printed report.

Inputs come from the ``--seed`` only.  The preset workload runs the
preset exactly as shipped, so its inputs do not vary with the seed;
the sweep workload generates its spec file from it.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

#: Argument vector of the reference run (the scalar serial path).
REFERENCE = ("campaign", "run", "--workers", "1", "--batch", "off")

#: Seeds per (variant, ring size) of the generated sweep: 7 variants x 2
#: ring sizes x 714 seeds = 9996 cells.
SWEEP_SEEDS = 714


def sweep_spec(seed: int) -> dict:
    """The ~10^4-cell sweep spec; ``seed`` chooses the cells' seed values.

    Five variants take the batch kernels (known-bound, unconscious,
    pt-bound, et-unconscious, round-robin SSYNC), two stay scalar (a
    peeking ``block-agent`` adversary and a ``crash:1@4`` fault plan).
    ``landmark-no-chirality`` is left out on purpose: its ~2.8k-round
    cells would turn a per-cell-overhead workload into a kernel one.
    """
    seeds = random.Random(seed).sample(range(1_000_000), SWEEP_SEEDS)
    known_bound = {"algorithm": "known-bound",
                   "horizon": "known_bound_time(N) + 5",
                   "placement": "offset-spread"}
    return {
        "name": "sweep-10k",
        "description": f"Generated per-cell-overhead sweep (seed {seed}).",
        "base": {"adversary": "random"},
        "grid": {"seed": seeds, "ring_size": [6, 8]},
        "variants": [
            {"label": "sw-known-bound", **known_bound},
            {"label": "sw-unconscious", "algorithm": "unconscious",
             "horizon": "100 * n", "stop_on_exploration": True,
             "placement": "offset-spread"},
            {"label": "sw-pt-bound", "algorithm": "pt-bound",
             "transport": "pt", "placement": "thirds", "max_rounds": 2000},
            {"label": "sw-et-unconscious", "algorithm": "et-unconscious",
             "transport": "et", "placement": "thirds", "max_rounds": 2000,
             "stop_on_exploration": True},
            {"label": "sw-ssync-round-robin", "algorithm": "known-bound",
             "scheduler": "round-robin", "horizon": "100 * n"},
            {"label": "sw-block-agent", **known_bound,
             "adversary": "block-agent"},
            {"label": "sw-crash", **known_bound, "faults": "crash:1@4"},
        ],
    }


def spec_bytes(seed: int) -> bytes:
    """The generated spec file's exact content for ``seed``."""
    return json.dumps(sweep_spec(seed), sort_keys=True, indent=1).encode()


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: CLI arguments before the spec and store arguments.
    args: tuple[str, ...]
    #: Preset name, or ``None`` for the sweep generated from the seed.
    preset: str | None = None

    def spec_args(self, seed: int, directory: Path) -> list[str]:
        """Write the spec (when generated) into ``directory``; return its CLI flags."""
        if self.preset is not None:
            return ["--spec", self.preset]
        path = directory / "spec.json"
        path.write_bytes(spec_bytes(seed))
        return ["--spec-file", str(path)]


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="paper-tables",
            why="the default preset as users run it: 198 batch-eligible "
                "cells, pool mode, about 40% startup and imports",
            args=("campaign", "run", "--workers", "2"),
            preset="paper-tables"),
        # One queue worker: with two, the workers and the coordinator
        # fill both CPUs of a 2-CPU host, and anything else running there
        # slowed the run by 40%; one worker leaves a CPU free and is not
        # slowed at all.
        Workload(
            name="sweep-10k",
            why="~10^4 small mixed cells through the distributed queue: "
                "per-cell overhead, store writes and the report's reads",
            args=("campaign", "run", "--distributed", "--workers", "1")),
    )
}
