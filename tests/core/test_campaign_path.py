"""The untraced campaign round loop: pinned outcomes and a call budget.

``paper-tables`` runs every cell through the scalar
:class:`~repro.core.sim.SimulationCore` without a trace or peeks, a loop
the golden ring traces never enter.  The digests of
:mod:`tests.core.golden_campaign` pin what it computes; the call budget
pins how many Python frames a round costs, the fixed per-round overhead
that dominates these short cells.
"""

from __future__ import annotations

import sys
from pathlib import Path

import repro
from repro.campaigns.presets import get_spec
from repro.campaigns.registry import build_cell_engine
from tests.core import golden_campaign

#: Calls into ``repro`` code per round, over one cell of each
#: paper-tables label (:func:`repro_calls_per_round`).  It measured 53.4
#: before the round loop's helpers were inlined and 35.8 after.
CALLS_PER_ROUND_BUDGET = 39.0

#: Comprehensions are frames before Python 3.12 and inlined from 3.12
#: on (PEP 709); leaving them out keeps the count version-independent.
_COMPREHENSIONS = frozenset({"<listcomp>", "<setcomp>", "<dictcomp>"})


def test_paper_tables_outcomes_match_the_pinned_digests():
    assert golden_campaign.label_digests() == golden_campaign.load_fixture()


def repro_calls_per_round() -> float:
    """Profile ``engine.run`` of the first cell of every paper-tables
    label; return the calls into ``repro`` code divided by rounds.

    Each cell runs once unprofiled first, so process-wide pools (the
    snapshot intern table) are warm and the count does not depend on
    what ran before in this process.
    """
    root = str(Path(repro.__file__).parent)
    first: dict = {}
    for cell in get_spec("paper-tables").cells():
        first.setdefault(cell.label, cell)
    calls = rounds = 0

    def count(frame, event, arg):
        nonlocal calls
        code = frame.f_code
        if (event == "call" and code.co_filename.startswith(root)
                and code.co_name not in _COMPREHENSIONS):
            calls += 1

    for cell in first.values():
        build_cell_engine(cell).run(
            cell.max_rounds, stop_on_exploration=cell.stop_on_exploration)
        engine = build_cell_engine(cell)
        previous = sys.getprofile()
        sys.setprofile(count)
        try:
            result = engine.run(cell.max_rounds,
                                stop_on_exploration=cell.stop_on_exploration)
        finally:
            sys.setprofile(previous)
        rounds += result.rounds
    return calls / rounds


def test_round_loop_stays_within_its_call_budget():
    assert 0 < repro_calls_per_round() <= CALLS_PER_ROUND_BUDGET
