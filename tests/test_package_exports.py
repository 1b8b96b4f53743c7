"""Packages that export their names lazily still resolve every one."""

from __future__ import annotations

import importlib
import sys

import pytest

LAZY_PACKAGES = (
    "repro.adversary",
    "repro.analysis",
    "repro.campaigns",
    "repro.campaigns.distributed",
    "repro.campaigns.stores",
    "repro.resilience",
    "repro.theory",
)


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_every_exported_name_resolves(name):
    package = importlib.import_module(name)
    assert package.__all__
    for attr in package.__all__:
        value = getattr(package, attr)
        owner = sys.modules.get(getattr(value, "__module__", None) or "")
        if owner is not None and attr in vars(owner):
            assert vars(owner)[attr] is value
    assert set(package.__all__) <= set(dir(package))
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(package, "no_such_name")


def test_from_import_matches_the_submodule():
    from repro.campaigns import CellConfig, LeaseLost, open_store
    from repro.campaigns.leases import LeaseLost as lease_lost
    from repro.campaigns.spec import CellConfig as cell_config
    from repro.campaigns.stores.base import open_store as base_open_store

    assert (CellConfig, LeaseLost, open_store) == (
        cell_config, lease_lost, base_open_store)


def test_retry_names_the_function_not_its_submodule():
    """Loading ``repro.resilience.retry`` binds the submodule to the
    package attribute of the same name; the package keeps the function."""
    import repro.resilience.retry  # noqa: F401
    from repro.resilience import retry

    assert retry is sys.modules["repro.resilience.retry"].retry
    assert callable(retry) and not isinstance(retry, type(sys))
