"""Only `linalg` reaches into `Echelon`.

`Echelon` has one input form, the sparse int vector: its constructor,
`insert` and `reduce` take it, and a caller with a dense raw vector clears
it once through `linalg.int_vector`.  It hands back what callers need (the
`kernel` vectors, and the pivot entries and inverse columns of
`inverting`), so no other module calls its private members or the dense
entry it had, or reads its rows.  The sources are read with `ast`; an
expression counts as an `Echelon` when it is rooted at the class or at a
name bound to such an expression.  `Algebra._from_ints` and
`Algebra._rows` are other names and stay.
"""

import ast
import pathlib

import pytest

import splitspin
from splitspin.linalg import Echelon

SOURCES = sorted(pathlib.Path(splitspin.__file__).parent.glob("*.py"))
OUTSIDE = [path for path in SOURCES if path.name != "linalg.py"]
REMOVED = ("add", "contains", "_raw", "_width", "_from_ints")
FORBIDDEN = ("_insert", "_reduce", "_from_ints", "add", "contains", "_rows")


def _root(node):
    """The name an attribute, call or subscript chain starts from, or None."""
    while isinstance(node, (ast.Attribute, ast.Call, ast.Subscript)):
        node = node.func if isinstance(node, ast.Call) else node.value
    return node.id if isinstance(node, ast.Name) else None


def _bindings(node):
    """(target, value) pairs of the assignments in node, tuples paired item by item."""
    pairs = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Assign):
            pairs += [(target, sub.value) for target in sub.targets]
        elif isinstance(sub, (ast.AnnAssign, ast.NamedExpr)) and sub.value is not None:
            pairs.append((sub.target, sub.value))
    flat = []
    while pairs:
        target, value = pairs.pop()
        if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple) and len(target.elts) == len(value.elts):
            pairs += list(zip(target.elts, value.elts))
        else:
            flat.append((target, value))
    return flat


def echelon_reaches(tree):
    """(line, column, attribute) of each forbidden member reached on an `Echelon`,
    and of each `_insert` or `_reduce` reached on anything."""
    names, grown = {"Echelon"}, True
    bindings = _bindings(tree)
    while grown:  # names bound to an Echelon, or to a name bound to one
        before = len(names)
        for target, value in bindings:
            if _root(value) in names:
                names |= {n.id for n in ast.walk(target) if isinstance(n, ast.Name)}
        grown = len(names) > before
    return sorted((node.lineno, node.col_offset, node.attr) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and (node.attr in ("_insert", "_reduce")
                                                          or node.attr in FORBIDDEN and _root(node.value) in names))


@pytest.mark.parametrize("path", OUTSIDE, ids=[path.name for path in OUTSIDE])
def test_no_module_but_linalg_reaches_into_echelon(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=path.name)
    found = echelon_reaches(tree)
    assert not found, f"{path.name} reaches into Echelon at {found}"


def test_the_guard_sees_what_it_forbids():
    source = """
span = Echelon(field, rows)
span._insert(v); span.add(v); span.contains(v); Echelon._from_ints(field, rows)
p, (inverted, other) = 1, (Echelon.inverting(field, rows), None)
rows = inverted._rows
copy = span
copy._reduce(v)
algebra._rows; Algebra._from_ints(field); seen.add(v)
"""
    assert [(line, attr) for line, _, attr in echelon_reaches(ast.parse(source))] == [
        (3, "_insert"), (3, "add"), (3, "contains"), (3, "_from_ints"), (5, "_rows"), (7, "_reduce")]


def test_echelon_has_one_input_form():
    (cls,) = [node for node in ast.parse((SOURCES[0].parent / "linalg.py").read_text(encoding="utf-8")).body
              if isinstance(node, ast.ClassDef) and node.name == "Echelon"]
    defined = {node.name for node in cls.body if isinstance(node, ast.FunctionDef)}
    assert not defined & set(REMOVED)
    assert not any(hasattr(Echelon, name) for name in REMOVED)
    # `inverting` is the one classmethod, and it hands back columns, not a second Echelon
    assert [node.name for node in cls.body if isinstance(node, ast.FunctionDef)
            and any(getattr(d, "id", None) == "classmethod" for d in node.decorator_list)] == ["inverting"]
