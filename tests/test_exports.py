"""Every exported name resolves, in each module and in the package; only core hashes and reads JSON;
the entry points run tests through run_test."""

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


def test_only_core_reads_json():
    # one reader, core.load_json_object, turns a file that is not a JSON
    # object into a DataFormatError that names it
    readers = set()
    for name in MODULES:
        for node in ast.walk(ast.parse(inspect.getsource(importlib.import_module(f"lc2st.{name}")))):
            called = isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "json"
            imported = isinstance(node, ast.ImportFrom) and node.module == "json"
            names = [node.attr] if called else [a.name for a in node.names] if imported else []
            if {"load", "loads"} & set(names):
                readers.add(name)
    assert readers == {"core"}


def test_entry_points_call_run_test():
    # one implementation of each test procedure: the harness and the CLI run
    # every local test through c2st.run_test, never through its phase functions
    phases = {"lc2st_train", "lc2st_nf_train", "lc2st_evaluate", "lc2st_nf_evaluate"}
    called = set()
    for name in ("harness", "cli"):
        for node in ast.walk(ast.parse(inspect.getsource(importlib.import_module(f"lc2st.{name}")))):
            if isinstance(node, ast.Call):
                func = node.func
                called.add((name, func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)))
    assert {(name, fn) for name, fn in called if fn in phases} == set()
    assert ("harness", "run_test") in called and ("cli", "run_test") in called
