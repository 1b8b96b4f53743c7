"""The unified retry/backoff helper every hardened transaction uses."""

import os
import sqlite3
import subprocess
import sys
from pathlib import Path

import pytest

from repro.campaigns.distributed import LeaseLost
from repro.resilience import ChaosCrash, retry
from repro.resilience.retry import (
    CHAOS_ENV,
    DEFAULT_ATTEMPTS,
    DEFAULT_BASE_S,
    DEFAULT_CAP_S,
    backoff_delay,
)


class Flaky:
    """Fails with ``exc`` for the first ``failures`` calls, then returns."""

    def __init__(self, failures, exc=sqlite3.OperationalError("locked")):
        self.failures = failures
        self.exc = exc
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.exc
        return "ok"


class TestRetry:
    def test_transient_failure_is_retried_to_success(self):
        sleeps = []
        fn = Flaky(failures=2)
        assert retry(fn, site="t", sleep=sleeps.append) == "ok"
        assert fn.calls == 3
        assert len(sleeps) == 2

    def test_exhaustion_reraises_the_last_error(self):
        fn = Flaky(failures=99)
        with pytest.raises(sqlite3.OperationalError):
            retry(fn, site="t", attempts=4, sleep=lambda _s: None)
        assert fn.calls == 4

    def test_non_retryable_errors_propagate_immediately(self):
        for exc in (ValueError("boom"), LeaseLost("stolen"),
                    ChaosCrash("dead")):
            fn = Flaky(failures=99, exc=exc)
            with pytest.raises(type(exc)):
                retry(fn, site="t", sleep=lambda _s: None)
            assert fn.calls == 1

    def test_first_success_sleeps_nothing(self):
        sleeps = []
        assert retry(lambda: 42, site="t", sleep=sleeps.append) == 42
        assert sleeps == []

    def test_sleeps_follow_the_deterministic_schedule(self):
        sleeps = []
        fn = Flaky(failures=3)
        retry(fn, site="queue.claim", sleep=sleeps.append)
        assert sleeps == [backoff_delay("queue.claim", attempt)
                          for attempt in (1, 2, 3)]


class TestBackoffDelay:
    def test_pure_function_of_site_and_attempt(self):
        assert backoff_delay("a", 3) == backoff_delay("a", 3)
        assert backoff_delay("a", 3) != backoff_delay("b", 3)

    def test_exponential_up_to_the_cap(self):
        # strip the jitter factor: delay / (1 + 0.5*j) is the raw curve
        def raw(attempt):
            d = backoff_delay("site", attempt)
            assert d >= min(DEFAULT_CAP_S, DEFAULT_BASE_S * 2 ** (attempt - 1))
            return d

        assert raw(1) < raw(3) < raw(10)
        # far past the cap the delay is bounded by cap * max jitter
        assert backoff_delay("site", 50) <= DEFAULT_CAP_S * 1.5

    def test_default_budget_is_sane(self):
        total = sum(backoff_delay("store.write", a)
                    for a in range(1, DEFAULT_ATTEMPTS))
        assert 0.05 < total < 2.0   # rides out a convoy, fails fast


class TestChaosIntegration:
    def test_injected_busy_exercises_the_retry_path(self, monkeypatch):
        from repro.resilience.chaos import reset_chaos_policy

        monkeypatch.setenv(CHAOS_ENV, "seed=1,busy=0.5")
        reset_chaos_policy()
        try:
            calls = []
            # a function that always succeeds still fails transiently
            # when the armed policy injects at the choke point
            outcomes = [
                retry(lambda: calls.append(1) or "ok",
                      site="t", attempts=30, sleep=lambda _s: None)
                for _ in range(32)
            ]
            assert all(o == "ok" for o in outcomes)
            assert len(calls) == 32       # every call eventually succeeded
        finally:
            reset_chaos_policy()


class TestChaosLoading:
    def test_chaos_env_loads_the_harness(self, tmp_path):
        """With ``REPRO_CHAOS`` set, a retry loads the harness (runs with
        it unset never do: see ``TestNumpyFallback`` in
        ``tests/campaigns/test_batch_campaign.py``)."""
        script = (
            "import sys\n"
            "from repro.resilience.retry import retry\n"
            "assert 'repro.resilience.chaos' not in sys.modules\n"
            "assert retry(lambda: 'ok', site='t') == 'ok'\n"
            "print('repro.resilience.chaos' in sys.modules)\n"
        )
        src = Path(__file__).resolve().parents[2] / "src"
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = str(src)
        env[CHAOS_ENV] = "seed=1"
        run = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                             env=env, capture_output=True, text=True,
                             check=True)
        assert run.stdout.split() == ["True"]
