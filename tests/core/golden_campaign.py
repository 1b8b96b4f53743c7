"""Per-label digests of the ``paper-tables`` campaign path, frozen as a fixture.

The golden ring traces (:mod:`tests.core.golden_traces`) attach a
``Trace`` and peek at every agent every round, so they never exercise
the untraced, peek-free round loop a campaign actually runs.  This
module pins that loop: every cell of the ``paper-tables`` preset runs
through :func:`repro.campaigns.executor.execute_cell` (no trace, no
peeks, no per-round audit), and one sha256 per variant label covers the
``(key, metrics)`` pairs of that label's cells in spec order.
``tests/core/golden_campaign_metrics.json`` holds the digests recorded
before the scalar engine's round loop was last rewritten.

Regenerate (only when a *deliberate* behaviour change is being made)::

    PYTHONPATH=src python -m tests.core.golden_campaign --record
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

FIXTURE = Path(__file__).with_name("golden_campaign_metrics.json")

SPEC = "paper-tables"


def label_digests(spec: str = SPEC) -> dict[str, str]:
    """``{label: sha256}`` over the spec's cells as ``execute_cell`` runs them."""
    from repro.campaigns.executor import execute_cell
    from repro.campaigns.presets import get_spec

    rows: dict[str, list] = {}
    for cell in get_spec(spec).cells():
        record = execute_cell(cell)
        outcome = record["metrics"] if "metrics" in record else record["error"]
        rows.setdefault(cell.label, []).append([record["key"], outcome])
    return {
        label: hashlib.sha256(
            json.dumps(pairs, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()
        for label, pairs in rows.items()
    }


def load_fixture() -> dict[str, str]:
    return json.loads(FIXTURE.read_text())


if __name__ == "__main__":  # pragma: no cover - manual regeneration entry
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true",
                        help="rewrite the fixture from the current engine")
    args = parser.parse_args()
    digests = label_digests()
    if args.record:
        FIXTURE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
        print(f"wrote {FIXTURE} ({len(digests)} labels)")
    else:
        pinned = load_fixture()
        bad = sorted(k for k in pinned.keys() | digests.keys()
                     if pinned.get(k) != digests.get(k))
        print("MISMATCH:" if bad else "all digests match",
              ", ".join(bad) if bad else f"({len(digests)} labels)")
