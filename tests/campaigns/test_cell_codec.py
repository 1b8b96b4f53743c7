"""The cell codec's bytes, pinned: store keys, ``to_dict`` and queue payloads.

A store re-runs a cell only when its key changes, so the keys must stay
byte-stable across releases; the CI store diffs compare two routes of
one commit and cannot see a drift.  The literals below were recorded
before the codec was last optimised, from a sample of the perfbench
``sweep-10k`` cells: every variant at both ring sizes (horizon
expressions, ``crash:1@4``, ``round-robin``, PT/ET) plus one cell that
sets explicit positions, flipped agents and every defaulted field.
"""

from __future__ import annotations

import hashlib
import json

from repro.campaigns.distributed.queue import WorkQueue
from repro.campaigns.spec import CampaignSpec, CellConfig
from repro.campaigns.stores import SqliteStore

_KNOWN_BOUND = {"algorithm": "known-bound",
                "horizon": "known_bound_time(N) + 5",
                "placement": "offset-spread"}

SAMPLE = CampaignSpec.from_dict({
    "name": "sweep-sample",
    "base": {"adversary": "random"},
    "grid": {"seed": [3, 618034], "ring_size": [6, 8]},
    "variants": [
        {"label": "sw-known-bound", **_KNOWN_BOUND},
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
        {"label": "sw-block-agent", **_KNOWN_BOUND,
         "adversary": "block-agent"},
        {"label": "sw-crash", **_KNOWN_BOUND, "faults": "crash:1@4"},
        {"label": "explicit-flipped", "algorithm": "landmark-no-chirality",
         "ring_size": 9, "seed": 5, "chirality": False, "flipped": [1],
         "placement": "explicit", "positions": [2, 7], "landmark": 4,
         "bound": 12, "horizon": "no_chirality_timeout(n)",
         "debug_invariants": True, "adversary": "fixed", "edge": 3},
    ],
})

#: ``CellConfig.key()`` of every SAMPLE cell, in expansion order.
KEYS = [
    "05592dcbd953847f79f6478c", "a49eb40b6d98f110fe29138d",
    "5e3aa037431cddeb6ebcb83d", "5b20bbc38440128fdd7a7047",
    "9a3a1c87fca64bd71682b4cc", "4a31f4f8fca4d76c018391ca",
    "fcedc9ad0e988d781b63d837", "9fc10d7efb528ac924e43a68",
    "edfb720adef98e9b6e2b9cdc", "d813ca75b8582aa8f7a105b6",
    "f24c4d7709d709e0ecbb15bc", "7da46b6bd11a45a08c4a558a",
    "c295229a42cb713014bc4791", "03ae41620ad72c33d57395b9",
    "bc8f3d2f830a0d0d7ea29b77", "8eab99263a83eb576370e987",
    "9dc6852cf0e51152c29284bd", "3cdb1bfb3f2e26a2853676a5",
    "f70f76bb42840829237366f2", "d8623bc09a54e64a03029a46",
    "7ed8d7b08555476b8a4c2a2f", "c7e6658560e489088a763bd1",
    "311d9188491179194d1fc128", "3a6cdbeb442af2c537d0a847",
    "44b474facd8e48a1a3be75d8", "e9ccbfd7fae136f584014740",
    "15cfed0dbe9e8055f8b9620a", "3ad9028cbb940dbf303a39f0",
    "c41b13efb576e7cb0b7c93ee",
]

#: ``to_dict()``'s key order: the dataclass field order.
FIELD_ORDER = [
    "algorithm", "ring_size", "max_rounds", "agents", "seed", "adversary",
    "scheduler", "transport", "topology", "landmark", "chirality",
    "flipped", "placement", "positions", "bound", "edge", "adversary_arg",
    "stop_on_exploration", "debug_invariants", "faults", "label",
]

#: sha256 of ``json.dumps([c.to_dict() for c in SAMPLE cells])`` (no
#: ``sort_keys``): every value, its JSON type and the key order.
TO_DICT_DIGEST = (
    "f35b640b4a60f7fceb1cc25babc8d19b274513ffb3d6ec331c74b76155593783")

#: ``(sha256(cells column)[:32], n_cells)`` of each chunk that
#: ``enqueue(SAMPLE cells, chunk_size=8, batch="off")`` writes.
CHUNKS = [
    ("75de0893b2c9c88b512591dfb0853430", 8),
    ("53e1a25c170285999272a29235474bcd", 8),
    ("3d8ebfeda4cd10624feefc718de91b72", 8),
    ("653e3940f809234f9f754ff962066e5d", 5),
]

#: The last chunk's payload, verbatim: the crash cells and the
#: explicit-positions cell.
LAST_PAYLOAD = (
    '[{"adversary":"random","adversary_arg":null,"agents":2,'
    '"algorithm":"known-bound","bound":null,"chirality":true,'
    '"debug_invariants":false,"edge":0,"faults":"crash:1@4","flipped":[],'
    '"label":"sw-crash","landmark":null,"max_rounds":17,'
    '"placement":"offset-spread","positions":null,"ring_size":6,'
    '"scheduler":"auto","seed":3,"stop_on_exploration":false,'
    '"topology":"ring","transport":"ns"},'
    '{"adversary":"random","adversary_arg":null,"agents":2,'
    '"algorithm":"known-bound","bound":null,"chirality":true,'
    '"debug_invariants":false,"edge":0,"faults":"crash:1@4","flipped":[],'
    '"label":"sw-crash","landmark":null,"max_rounds":17,'
    '"placement":"offset-spread","positions":null,"ring_size":6,'
    '"scheduler":"auto","seed":618034,"stop_on_exploration":false,'
    '"topology":"ring","transport":"ns"},'
    '{"adversary":"random","adversary_arg":null,"agents":2,'
    '"algorithm":"known-bound","bound":null,"chirality":true,'
    '"debug_invariants":false,"edge":0,"faults":"crash:1@4","flipped":[],'
    '"label":"sw-crash","landmark":null,"max_rounds":23,'
    '"placement":"offset-spread","positions":null,"ring_size":8,'
    '"scheduler":"auto","seed":3,"stop_on_exploration":false,'
    '"topology":"ring","transport":"ns"},'
    '{"adversary":"random","adversary_arg":null,"agents":2,'
    '"algorithm":"known-bound","bound":null,"chirality":true,'
    '"debug_invariants":false,"edge":0,"faults":"crash:1@4","flipped":[],'
    '"label":"sw-crash","landmark":null,"max_rounds":23,'
    '"placement":"offset-spread","positions":null,"ring_size":8,'
    '"scheduler":"auto","seed":618034,"stop_on_exploration":false,'
    '"topology":"ring","transport":"ns"},'
    '{"adversary":"fixed","adversary_arg":null,"agents":2,'
    '"algorithm":"landmark-no-chirality","bound":12,"chirality":false,'
    '"debug_invariants":true,"edge":3,"faults":"","flipped":[1],'
    '"label":"explicit-flipped","landmark":4,"max_rounds":21600,'
    '"placement":"explicit","positions":[2,7],"ring_size":9,'
    '"scheduler":"auto","seed":5,"stop_on_exploration":false,'
    '"topology":"ring","transport":"ns"}]'
)


def test_keys_match_the_pinned_digests():
    assert [cell.key() for cell in SAMPLE.cells()] == KEYS


def test_to_dict_keeps_field_order_and_values():
    dicts = [cell.to_dict() for cell in SAMPLE.cells()]
    assert all(list(d) == FIELD_ORDER for d in dicts)
    digest = hashlib.sha256(json.dumps(dicts).encode()).hexdigest()
    assert digest == TO_DICT_DIGEST


def test_to_dict_round_trips_every_sample_cell():
    for cell in SAMPLE.cells():
        data = json.loads(json.dumps(cell.to_dict()))
        assert CellConfig.from_dict(data) == cell
        assert CellConfig.key_from_dict(data) == cell.key()


def test_enqueue_writes_the_pinned_payloads(tmp_path):
    store = SqliteStore(tmp_path / "q.db", campaign=SAMPLE.name)
    WorkQueue(store).enqueue(SAMPLE.cell_list(), chunk_size=8, batch="off")
    rows = store.connection().execute(
        "SELECT cells, cell_keys, n_cells FROM chunks ORDER BY id").fetchall()
    assert [(hashlib.sha256(cells.encode()).hexdigest()[:32], n)
            for cells, _, n in rows] == CHUNKS
    assert rows[-1][0] == LAST_PAYLOAD
    keys = [key for _, cell_keys, _ in rows for key in json.loads(cell_keys)]
    assert keys == KEYS
    assert all(cell_keys == json.dumps(json.loads(cell_keys),
                                       separators=(",", ":"))
               for _, cell_keys, _ in rows)
