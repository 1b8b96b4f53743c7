"""Shared pytest configuration: hypothesis profile and the hermeticity guard."""

import os
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "repro",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")

REPO_ROOT = Path(__file__).resolve().parents[1]
#: Tool caches that may appear in the repo root on a first run.
ROOT_CACHES = {".hypothesis", ".pytest_cache", "__pycache__"}


def _repro_env() -> dict[str, str]:
    return {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}


@pytest.fixture(autouse=True)
def hermetic():
    """Fail any test that leaves ``REPRO_*`` variables or new repo-root
    files behind: either would leak into the tests that run after it
    (a leaked ``REPRO_TRACE_JSONL`` once made later runs grow a
    ``span_id`` and write ``spans.jsonl`` into the working directory)."""
    env = _repro_env()
    root = set(os.listdir(REPO_ROOT))
    yield
    leaked = {k: v for k, v in _repro_env().items() if env.get(k) != v}
    gone = env.keys() - _repro_env().keys()
    new = set(os.listdir(REPO_ROOT)) - root - ROOT_CACHES
    if leaked or gone or new:
        pytest.fail(f"test is not hermetic: REPRO_* set {leaked or {}}, "
                    f"unset {sorted(gone)}, new repo-root files {sorted(new)}")
