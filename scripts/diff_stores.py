"""Assert two result stores are identical modulo timing and telemetry.

``python scripts/diff_stores.py A B`` exits non-zero unless the stores
hold the same records — same keys, same configs, same metrics, same
errors — ignoring only :data:`IGNORED_FIELDS`:

* ``elapsed_s`` — wall time, the one result the batched and scalar
  execution paths are *allowed* to change;
* ``span_id``  — trace correlation id, present only when a run executed
  with ``--trace``/``--trace-jsonl`` and random by construction.

The CI batch lane and ``make batch-diff`` run it over a vectorized
store (``--batch on``, or ``--batch auto`` on a group wide enough to
batch) and a ``--batch off`` store of the same campaign: any other
byte of difference means the vector path leaked into the persisted
results.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.campaigns.stores import open_store  # noqa: E402

#: Per-record fields excluded from the comparison (documented above).
IGNORED_FIELDS = frozenset({"elapsed_s", "span_id"})


def comparable(store_uri: str) -> dict[str, dict]:
    records = {}
    for record in open_store(store_uri).records():
        stripped = {k: v for k, v in record.items()
                    if k not in IGNORED_FIELDS}
        records[record["key"]] = stripped
    return records


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(f"usage: {Path(sys.argv[0]).name} STORE_A STORE_B",
              file=sys.stderr)
        return 2
    a, b = comparable(argv[0]), comparable(argv[1])
    if a == b:
        ignored = ", ".join(sorted(IGNORED_FIELDS))
        print(f"stores identical: {len(a)} records "
              f"(keys, configs, metrics; {ignored} ignored)")
        return 0
    only_a = sorted(set(a) - set(b))
    only_b = sorted(set(b) - set(a))
    for key in only_a:
        print(f"only in {argv[0]}: {key}", file=sys.stderr)
    for key in only_b:
        print(f"only in {argv[1]}: {key}", file=sys.stderr)
    for key in sorted(set(a) & set(b)):
        if a[key] != b[key]:
            print(f"record differs for {key}:\n  A: {a[key]}\n  B: {b[key]}",
                  file=sys.stderr)
    return 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
