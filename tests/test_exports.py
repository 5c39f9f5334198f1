"""Every exported name resolves, in each module and in the package; only core hashes."""

import ast
import importlib
import inspect
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


def test_only_core_imports_hashlib():
    # one stream tree: every draw descends from a plan seed through core.RngStream,
    # so no other module may key a stream from hashed data bytes
    importers = []
    for name in MODULES:
        tree = ast.parse(inspect.getsource(importlib.import_module(f"lc2st.{name}")))
        for node in ast.walk(tree):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module] if isinstance(node, ast.ImportFrom) else []
            if any(n and n.split(".")[0] == "hashlib" for n in names):
                importers.append(name)
    assert importers == ["core"]
