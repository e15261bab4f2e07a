"""The library checks with typed errors, never with `assert`: python -O
strips assert statements, and a failed check must raise a SplitSpinError
that carries its witness."""

import ast
import pathlib

import pytest

import splitspin

SOURCES = sorted(pathlib.Path(splitspin.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_library_has_no_assert_statement(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} has assert statements at lines {lines}"
