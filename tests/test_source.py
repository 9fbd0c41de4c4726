"""Properties of the package source itself."""

import ast
from pathlib import Path

import latwist

SOURCES = sorted(Path(latwist.__file__).resolve().parent.rglob("*.py"))


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so an invariant written as one
    # would stop being checked; the package raises instead
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert len(SOURCES) >= 8
    assert found == []
