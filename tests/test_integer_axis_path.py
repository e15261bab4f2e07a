"""The axis check runs on one integer path: `axial.py` leaves the clearing
of denominators to `linalg.Echelon`, and `Algebra.eigenspaces_raw` hands
D (ad_u - lambda) to `Echelon` without building a `Matrix`.  Both are
pinned here with `ast`, in the style of test_no_assert.py."""

import ast
import pathlib

import splitspin

PACKAGE = pathlib.Path(splitspin.__file__).parent


def _tree(name):
    return ast.parse((PACKAGE / name).read_text(encoding="utf-8"), filename=name)


def _called_name(node):
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def test_axial_neither_imports_nor_calls_cleared():
    tree = _tree("axial.py")
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names]
    calls = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and _called_name(node) == "cleared"]
    names = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Name) and node.id == "cleared"]
    assert "cleared" not in imported
    assert not calls and not names, f"axial.py names cleared at lines {sorted(set(calls + names))}"


def test_eigenspaces_raw_builds_no_matrix():
    (algebra_class,) = [node for node in _tree("algebra.py").body
                        if isinstance(node, ast.ClassDef) and node.name == "Algebra"]
    (method,) = [node for node in algebra_class.body
                 if isinstance(node, ast.FunctionDef) and node.name == "eigenspaces_raw"]
    # a Matrix is built by naming the class or through the adjoint
    lines = [node.lineno for node in ast.walk(method)
             if isinstance(node, ast.Name) and node.id == "Matrix"
             or isinstance(node, ast.Attribute) and node.attr == "adjoint"]
    assert not lines, f"Algebra.eigenspaces_raw builds a Matrix at lines {lines}"
