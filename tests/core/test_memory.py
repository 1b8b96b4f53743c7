"""Runtime counter semantics (Section 3's bookkeeping variables)."""

from hypothesis import given, strategies as st

from repro.core.directions import LEFT, RIGHT
from repro.core.memory import AgentMemory


class TestTraversalAccounting:
    def test_right_move_increments_net(self):
        mem = AgentMemory()
        mem.record_traversal(RIGHT)
        assert mem.net == 1
        assert mem.Tsteps == mem.Esteps == 1
        assert mem.moved
        assert mem.Btime == 0

    def test_left_move_decrements_net(self):
        mem = AgentMemory()
        mem.record_traversal(LEFT)
        assert mem.net == -1

    def test_tnodes_is_the_edge_span(self):
        mem = AgentMemory()
        for _ in range(3):
            mem.record_traversal(RIGHT)
        for _ in range(5):
            mem.record_traversal(LEFT)
        # net went 0 -> +3 -> -2: span covers 5 edges
        assert mem.max_net == 3
        assert mem.min_net == -2
        assert mem.Tnodes == 5

    @given(st.lists(st.sampled_from([LEFT, RIGHT]), max_size=200))
    def test_tnodes_matches_reference_walk(self, walk):
        mem = AgentMemory()
        net, lo, hi = 0, 0, 0
        for step in walk:
            mem.record_traversal(step)
            net += 1 if step is RIGHT else -1
            lo, hi = min(lo, net), max(hi, net)
        assert mem.net == net
        assert mem.Tnodes == hi - lo

    def test_blocked_increments_btime_and_clears_moved(self):
        mem = AgentMemory()
        mem.record_traversal(RIGHT)
        mem.record_blocked()
        mem.record_blocked()
        assert mem.Btime == 2
        assert not mem.moved

    def test_move_resets_btime(self):
        mem = AgentMemory()
        mem.record_blocked()
        mem.record_traversal(LEFT)
        assert mem.Btime == 0


class TestClocks:
    """The engine advances the clocks (``tests/core/test_engine.py``,
    ``TestSsyncActivation``); these pin what the explore reset keeps."""

    def test_reset_explore_clears_per_state_counters(self):
        mem = AgentMemory()
        mem.record_traversal(RIGHT)
        mem.Ttime = mem.Etime = 1
        mem.reset_explore()
        assert mem.Etime == 0
        assert mem.Esteps == 0
        assert mem.Tsteps == 1  # protocol-wide counters survive
        assert mem.Ttime == 1

    def test_reset_explore_can_keep_esteps(self):
        """Figure 18's ExploreNoResetEsteps."""
        mem = AgentMemory()
        mem.record_traversal(RIGHT)
        mem.Ttime = mem.Etime = 1
        mem.reset_explore(keep_esteps=True)
        assert mem.Etime == 0
        assert mem.Esteps == 1


class TestLandmarkTracking:
    def test_first_visit_records_reference_net(self):
        mem = AgentMemory()
        mem.record_traversal(RIGHT)
        mem.observe_landmark()
        assert mem.landmark_seen
        assert mem.landmark_first_net == 1
        assert mem.size is None

    def test_revisit_at_same_net_learns_nothing(self):
        mem = AgentMemory()
        mem.observe_landmark()
        mem.record_traversal(RIGHT)
        mem.record_traversal(LEFT)
        mem.observe_landmark()
        assert mem.size is None

    def test_full_loop_learns_the_size(self):
        mem = AgentMemory()
        mem.observe_landmark()
        for _ in range(6):
            mem.record_traversal(RIGHT)
        mem.observe_landmark()  # back at the landmark, net = +6
        assert mem.size == 6
        assert mem.size_known

    def test_loop_in_the_left_direction(self):
        mem = AgentMemory()
        mem.observe_landmark()
        for _ in range(5):
            mem.record_traversal(LEFT)
        mem.observe_landmark()
        assert mem.size == 5

    def test_size_is_learned_once(self):
        mem = AgentMemory()
        mem.observe_landmark()
        for _ in range(4):
            mem.record_traversal(RIGHT)
        mem.observe_landmark()
        for _ in range(4):
            mem.record_traversal(RIGHT)
        mem.observe_landmark()  # second loop must not overwrite
        assert mem.size == 4

    @given(st.integers(min_value=3, max_value=30))
    def test_loop_of_any_size(self, n):
        mem = AgentMemory()
        mem.record_traversal(RIGHT)  # start away from the landmark
        mem.observe_landmark()
        for _ in range(n):
            mem.record_traversal(RIGHT)
        mem.observe_landmark()
        assert mem.size == n


class TestClone:
    def _populated(self) -> AgentMemory:
        mem = AgentMemory()
        for _ in range(3):
            mem.record_traversal(RIGHT)
        mem.record_traversal(LEFT)
        mem.record_blocked()
        mem.Ttime = mem.Etime = 1
        mem.observe_landmark()
        mem.vars.update({"state": "Explore", "G": 4, "dir": LEFT,
                         "nested": {"a": 1}, "steps": [1, 2]})
        return mem

    def test_clone_equals_original(self):
        mem = self._populated()
        clone = mem.clone()
        assert clone == mem
        assert clone is not mem and clone.vars is not mem.vars

    def test_scalar_mutations_do_not_leak_back(self):
        mem = self._populated()
        clone = mem.clone()
        clone.record_traversal(RIGHT)
        clone.Ttime += 1
        clone.vars["G"] = 99
        clone.vars["state"] = "Done"
        assert mem.Tsteps == 4 and mem.Ttime == 1
        assert mem.vars["G"] == 4 and mem.vars["state"] == "Explore"

    def test_one_level_containers_are_isolated(self):
        mem = self._populated()
        clone = mem.clone()
        clone.vars["nested"]["a"] = 2
        clone.vars["steps"].append(3)
        assert mem.vars["nested"] == {"a": 1}
        assert mem.vars["steps"] == [1, 2]

    def test_clone_matches_deepcopy(self):
        import copy

        mem = self._populated()
        assert mem.clone() == copy.deepcopy(mem)
