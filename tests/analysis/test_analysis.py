"""Analysis tooling: safety checker and complexity fits."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.analysis.checker import assert_safe, check_safety, classify_runs
from repro.analysis.complexity import best_fit, doubling_ratios, fit_model
from repro.core.results import AgentStats, RunResult, TerminationMode


def run_result(explored, exploration_round, terminations):
    return RunResult(
        ring_size=5,
        rounds=50,
        explored=explored,
        exploration_round=exploration_round,
        visited=set(range(5)) if explored else {0},
        agents=[
            AgentStats(index=i, moves=3, terminated=t is not None,
                       termination_round=t, final_node=0, waiting_on_port=False)
            for i, t in enumerate(terminations)
        ],
    )


class TestChecker:
    def test_clean_run(self):
        assert check_safety(run_result(True, 4, [6, 9])) == []

    def test_unexplored_termination_flagged(self):
        problems = check_safety(run_result(False, None, [6, None]))
        assert len(problems) == 1
        assert "never explored" in problems[0]

    def test_early_termination_flagged(self):
        problems = check_safety(run_result(True, 10, [6, 12]))
        assert len(problems) == 1
        assert "before exploration" in problems[0]

    def test_assert_safe_raises(self):
        with pytest.raises(AssertionError):
            assert_safe(run_result(False, None, [6]))
        assert_safe(run_result(True, 4, [6]))

    def test_classify_runs(self):
        histogram = classify_runs([
            run_result(True, 4, [6, 9]),
            run_result(True, 4, [6, None]),
            run_result(True, 4, [None, None]),
            run_result(False, None, [None, None]),
        ])
        assert histogram[TerminationMode.EXPLICIT] == 1
        assert histogram[TerminationMode.PARTIAL] == 1
        assert histogram[TerminationMode.UNCONSCIOUS] == 1
        assert histogram[TerminationMode.NONE] == 1


class TestComplexityFits:
    def test_perfect_linear(self):
        xs = [4, 8, 16, 32, 64]
        ys = [3 * x + 1 for x in xs]
        fit = fit_model(xs, ys, "linear")
        assert fit.r_squared > 0.9999
        assert fit.coefficient == pytest.approx(3, abs=1e-6)
        assert fit.intercept == pytest.approx(1, abs=1e-4)

    def test_perfect_quadratic_prefers_quadratic(self):
        xs = [4, 8, 16, 32, 64]
        ys = [2 * x * x for x in xs]
        assert best_fit(xs, ys).model == "quadratic"

    def test_nlogn_identified(self):
        xs = [8, 16, 32, 64, 128, 256]
        ys = [5 * x * math.log2(x) for x in xs]
        assert best_fit(xs, ys).model == "nlogn"

    def test_linear_identified(self):
        xs = [8, 16, 32, 64, 128, 256]
        ys = [7 * x + 2 for x in xs]
        # linear data: the linear fit must be essentially perfect
        fit = fit_model(xs, ys, "linear")
        assert fit.r_squared > 0.99999

    def test_predict(self):
        fit = fit_model([1, 2, 3], [2, 4, 6], "linear")
        assert fit.predict(10) == pytest.approx(20, abs=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_model([1], [1], "linear")
        with pytest.raises(ValueError):
            fit_model([1, 2], [1, 2], "cubic")

    def test_doubling_ratios(self):
        xs = [4, 8, 16]
        ys = [16, 64, 256]
        assert doubling_ratios(xs, ys) == [4.0, 4.0]

    @given(st.floats(min_value=0.5, max_value=20), st.floats(min_value=-5, max_value=5))
    def test_linear_recovery_property(self, a, b):
        xs = [4.0, 8.0, 16.0, 32.0]
        ys = [a * x + b for x in xs]
        fit = fit_model(xs, ys, "linear")
        assert fit.coefficient == pytest.approx(a, rel=1e-6, abs=1e-6)
