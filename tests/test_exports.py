"""The package namespace: `from locdom import *` binds exactly `__all__`,
its records are immutable, and importing the command line stays light."""

import ast
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import locdom
from locdom import verify

ROOT = Path(__file__).resolve().parent.parent


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from locdom import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(locdom.__all__)


def test_all_has_no_duplicates_and_every_name_resolves():
    assert len(set(locdom.__all__)) == len(locdom.__all__)
    for name in locdom.__all__:
        assert hasattr(locdom, name), name


def _defined_names(tree):
    """Top-level functions, classes and assigned names, and the methods of the classes."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            yield from (t.id for n in node.targets for t in ast.walk(n) if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign):
            yield node.target.id
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
            if isinstance(node, ast.ClassDef):
                yield from (f.name for f in node.body if isinstance(f, ast.FunctionDef))


def test_every_package_name_has_a_reader():
    # a name that only tests read is dead weight: the package, the benchmark
    # (which names its tracer targets in strings) or __all__ must read it
    src, bench = ROOT / "src" / "locdom", ROOT / "perfbench"
    trees = {path: ast.parse(path.read_text()) for path in (*src.glob("*.py"), *bench.glob("*.py"))}
    read = set(locdom.__all__)
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name.rsplit(".", 1)[-1])
            elif path.parent == bench and isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value.rsplit(".", 1)[-1])
    defined = {
        f"{path.stem}.{name}"
        for path, tree in trees.items() if path.parent == src
        for name in _defined_names(tree) if not (name.startswith("__") and name.endswith("__"))
    }
    assert sorted(q for q in defined if q.split(".", 1)[1] not in read) == []


def test_importing_the_cli_skips_the_dataclasses_chain():
    # every locdom process pays its imports; the records are NamedTuples, so
    # none pulls in dataclasses and, with it, inspect, ast, dis and tokenize
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    code = "import sys, locdom.cli; print(*sys.modules)"
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert "locdom.cli" in out
    assert [m for m in ("dataclasses", "inspect", "ast", "dis", "tokenize") if m in out] == []


def test_records_are_immutable():
    g = locdom.named_graph("P4")
    check = locdom.BoundCheck("eld", 2, Fraction(3, 2), False)
    records = [
        locdom.solve_min(g, "eld"),
        locdom.twin_report(g),
        locdom.line_graph(g),
        locdom.EnumerationSpec(4),
        check,
        locdom.BoundReport("CR", 4, 3, check, None),
        verify._THEOREMS["eld_half"],
    ]
    for record in records:
        name = record._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            record.extra = None
