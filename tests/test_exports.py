"""Every exported name resolves, in each module and in the package."""

import importlib
import pkgutil

import pytest

import lc2st

MODULES = sorted(info.name for info in pkgutil.iter_modules(lc2st.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_resolve(name):
    module = importlib.import_module(f"lc2st.{name}")
    assert [n for n in getattr(module, "__all__", []) if not hasattr(module, n)] == []


def test_package_names_are_exported_by_their_modules():
    # the package re-exports module names; each must be in its home module's
    # __all__, so that name resolves there too
    public = [n for n in dir(lc2st) if not n.startswith("_")]
    homes = {n: getattr(getattr(lc2st, n), "__module__", "") for n in public}
    stray = [n for n, home in homes.items() if home.startswith("lc2st.") and n not in importlib.import_module(home).__all__]
    assert len(public) > 50 and stray == []
