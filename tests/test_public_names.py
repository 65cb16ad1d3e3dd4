"""No public function or class exists only for the tests: each top-level one in
the package is referenced somewhere in the package besides its definition.
``cli.main`` needs no exception: ``python -m fareaudit.cli`` calls it."""

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
