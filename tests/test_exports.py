"""The package namespace: `from locdom import *` binds exactly `__all__`."""

import ast
from pathlib import Path

import locdom

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
