"""Action construction rules."""

import pytest

from repro.core.actions import Action, ActionKind, ENTER_NODE, STAY, TERMINATE, move
from repro.core.directions import LEFT


class TestActions:
    def test_move_carries_direction(self):
        action = move(LEFT)
        assert action.kind is ActionKind.MOVE
        assert action.direction is LEFT

    def test_move_requires_direction(self):
        with pytest.raises(ValueError):
            Action(ActionKind.MOVE)

    def test_non_move_rejects_direction(self):
        with pytest.raises(ValueError):
            Action(ActionKind.STAY, LEFT)

    def test_singletons(self):
        assert STAY.kind is ActionKind.STAY
        assert ENTER_NODE.kind is ActionKind.ENTER_NODE
        assert TERMINATE.kind is ActionKind.TERMINATE

    def test_actions_are_frozen(self):
        with pytest.raises(AttributeError):
            STAY.kind = ActionKind.MOVE  # type: ignore[misc]
