"""Checks on the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "obsorder"


def test_no_assert_statements():
    # `python -O` strips assert statements, so a check written as one would
    # silently vanish; the package raises its own errors instead.
    paths = sorted(SRC.rglob("*.py"))
    assert len(paths) > 10, f"package source not found under {SRC}"
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.relative_to(SRC.parent)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert not found, "assert statements in the package: " + ", ".join(found)
