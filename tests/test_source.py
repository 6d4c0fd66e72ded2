"""Checks on the library source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "dressring"


def test_no_assert_statements():
    # Certificate checks must raise typed errors: python -O removes asserts.
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 10
    found = [f"{path.name}:{node.lineno}"
             for path in paths
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
