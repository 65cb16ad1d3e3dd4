"""No public function or class exists only for the tests: each top-level one in
the package is referenced somewhere in the package besides its definition.
``cli.main`` needs no exception: ``python -m fareaudit.cli`` calls it. Nor does
an audit worker ship a field of its result that the report never reads."""

import ast
from collections import Counter
from pathlib import Path

import fareaudit

SRC = Path(fareaudit.__file__).parent


def test_every_public_name_is_used_in_the_package():
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    used = Counter()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used[node.id] += 1
            elif isinstance(node, ast.Attribute):
                used[node.attr] += 1
    unused = [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and not used[node.name]
    ]
    assert unused == []


def test_every_driver_result_field_is_read_by_the_report():
    # a worker ships only what the report reads: each field of
    # report.DriverResult is read as an attribute in report.py, outside the
    # class and outside process_bundle, which reads the bundle to fill it
    tree = ast.parse((SRC / "report.py").read_text(encoding="utf-8"))
    top = {node.name: node for node in tree.body if hasattr(node, "name")}
    fields = [
        node.target.id for node in top["DriverResult"].body if isinstance(node, ast.AnnAssign)
    ]
    skipped = {
        id(node) for name in ("DriverResult", "process_bundle") for node in ast.walk(top[name])
    }
    read = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and id(node) not in skipped
    }
    assert fields
    assert [name for name in fields if name not in read] == []
