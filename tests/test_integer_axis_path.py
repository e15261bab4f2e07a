"""The axis check runs on one integer path: `axial.py` leaves the clearing
of denominators to `linalg.Echelon`, `Algebra.eigenspaces_raw` hands
D (ad_u - lambda) to `Echelon` without building a `Matrix` and on one path
for Q and F_p, and `check_axis` builds tau on ints rather than from
`Matrix` products.  The closure (`subalgebra`, `ideal_witness`, `quotient`,
`check_isomorphism` and `two_gen.yabe_data`) runs on ints too: it clears
each input once and solves in the int `Echelon`.  These are pinned here
with `ast`, in the style of test_no_assert.py; that `Echelon` takes int
rows as they are is checked by recording what reaches `cleared`."""

import ast
import pathlib
from fractions import Fraction

import pytest

import splitspin
from splitspin import Field, Matrix, QuadraticSpace, check_axis, family_axis, split_spin
from splitspin import axial, linalg
from splitspin.axial import axis_law
from splitspin.idempotents import FAMILY_A, TAG_FAMILY_A
from splitspin.linalg import Echelon, cleared

PACKAGE = pathlib.Path(splitspin.__file__).parent


def _tree(name):
    return ast.parse((PACKAGE / name).read_text(encoding="utf-8"), filename=name)


def _function(name, cls, method):
    (node,) = [node for node in _tree(name).body if isinstance(node, (ast.ClassDef, ast.FunctionDef))
               and node.name == (cls or method)]
    if cls:
        (node,) = [f for f in node.body if isinstance(f, ast.FunctionDef) and f.name == method]
    return node


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
    method = _function("algebra.py", "Algebra", "eigenspaces_raw")
    # a Matrix is built by naming the class or through the adjoint
    lines = [node.lineno for node in ast.walk(method)
             if isinstance(node, ast.Name) and node.id == "Matrix"
             or isinstance(node, ast.Attribute) and node.attr == "adjoint"]
    assert not lines, f"Algebra.eigenspaces_raw builds a Matrix at lines {lines}"


def test_eigenspaces_raw_has_no_branch_on_the_characteristic():
    method = _function("algebra.py", "Algebra", "eigenspaces_raw")
    tests = [node.test for node in ast.walk(method) if isinstance(node, (ast.If, ast.IfExp, ast.While))]
    tests += [cond for node in ast.walk(method) if isinstance(node, ast.comprehension) for cond in node.ifs]
    lines = [test.lineno for test in tests for node in ast.walk(test)
             if isinstance(node, ast.Name) and node.id == "p" or isinstance(node, ast.Attribute) and node.attr == "p"]
    assert not lines, f"Algebra.eigenspaces_raw branches on p at lines {lines}"


def test_check_axis_builds_tau_without_matrix_products():
    function = _function("axial.py", None, "check_axis")
    lines = [node.lineno for node in ast.walk(function)
             if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
             or isinstance(node, ast.Call) and _called_name(node) in ("unit_rows", "from_columns")]
    assert not lines, f"check_axis multiplies matrices or boxes B^-1 at lines {lines}"


def test_echelon_takes_int_rows_as_they_are(monkeypatch):
    """`Echelon` clears only raw Fraction rows: the integer entry points, the
    identity's equations and the whole axis check hand it ints, which reach
    `cleared` in `linalg` never.  On the paper's eigenbasis nothing reaches
    it; on the solved path the axis check clears its raw x once, to test
    that x lies in the 1-eigenspace."""
    seen = []

    def recording(values):
        values = list(values)
        seen.append(values)
        return cleared(values)

    field = Field.rationals()
    gram = [[1, Fraction(1, 3), 0], [Fraction(1, 3), Fraction(4, 9), Fraction(2, 65537)], [0, Fraction(2, 65537), 5]]
    algebra = split_spin(QuadraticSpace(Matrix(field, gram)), Fraction(7, 11))
    x = family_axis(algebra, (1, 0, 0), FAMILY_A)
    expected = check_axis(algebra, x, axis_law(algebra, TAG_FAMILY_A))
    monkeypatch.setattr(linalg, "cleared", recording)
    assert Echelon._from_ints(field, [{0: 2, 1: 4, 2: 6}, {1: 3, 2: 9}])._rows == {0: {0: 1, 2: -3}, 1: {1: 1, 2: 3}}
    assert Echelon.inverting(field, [{0: 2}, {1: 3}])._rows == {0: {0: 2, 2: 1}, 1: {1: 3, 3: 1}}
    assert algebra.identity() == algebra.basis_by_label("z1") + algebra.basis_by_label("z2")
    assert seen == []
    report = check_axis(algebra, x, axis_law(algebra, TAG_FAMILY_A))
    assert (report.dims, report.violations, report.miyamoto) == (expected.dims, expected.violations, expected.miyamoto)
    assert seen == []
    monkeypatch.setattr(axial, "eigenbasis", lambda *args: None)  # the solved path
    report = check_axis(algebra, x, axis_law(algebra, TAG_FAMILY_A))
    assert (report.dims, report.violations, report.miyamoto) == (expected.dims, expected.violations, expected.miyamoto)
    assert seen == [list(x.raw)]


def test_the_eigenbasis_builder_solves_nothing():
    """`idempotents.eigenbasis` checks the paper's vectors by products: it
    builds no `Matrix` or `Echelon` and solves no eigenspace."""
    function = _function("idempotents.py", None, "eigenbasis")
    lines = [(node.lineno, node.id if isinstance(node, ast.Name) else node.attr) for node in ast.walk(function)
             if isinstance(node, ast.Name) and node.id in ("Matrix", "Echelon")
             or isinstance(node, ast.Attribute) and node.attr in ("Matrix", "Echelon", "eigenspaces_raw", "adjoint")]
    assert not lines, f"eigenbasis builds or solves at {lines}"


CLOSURE = [("algebra.py", "Algebra", "subalgebra"), ("algebra.py", "Algebra", "ideal_witness"),
           ("algebra.py", "Algebra", "quotient"), ("algebra.py", "Algebra", "check_isomorphism"),
           ("two_gen.py", None, "yabe_data")]
# membership, solves and products on raw Fraction coordinates
FRACTION_PATH = ("add", "contains", "inverse", "raw_values", "apply", "apply_raw", "apply_sparse")
LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _calls(function, names):
    return [(node.lineno, _called_name(node)) for node in ast.walk(function)
            if isinstance(node, ast.Call) and _called_name(node) in names]


@pytest.mark.parametrize("module, cls, name", CLOSURE, ids=[name for *_, name in CLOSURE])
def test_the_closure_takes_no_fraction_path(module, cls, name):
    calls = _calls(_function(module, cls, name), FRACTION_PATH)
    if name == "yabe_data":  # a_minus1 = y^tau_x, the one image under the Miyamoto involution; no solve
        calls.remove(next(call for call in calls if call[1] == "apply_raw"))
    assert not calls, f"{name} takes the Fraction path at {calls}"


def _repeated(function):
    """The ids of the nodes that a loop of function may run more than once:
    all of the loop but the iterable that a for loop or a comprehension
    evaluates once."""
    repeated = set()
    for loop in ast.walk(function):
        if isinstance(loop, ast.While):
            skipped = set()
        elif isinstance(loop, LOOPS):
            once = loop.iter if isinstance(loop, ast.For) else loop.generators[0].iter
            skipped = {id(node) for node in ast.walk(once)}
        else:
            continue
        repeated |= {id(node) for node in ast.walk(loop) if node is not loop and id(node) not in skipped}
    return repeated


@pytest.mark.parametrize("module, cls, name", CLOSURE, ids=[name for *_, name in CLOSURE])
def test_the_closure_clears_outside_every_loop(module, cls, name):
    function = _function(module, cls, name)
    repeated = _repeated(function)
    lines = [node.lineno for node in ast.walk(function)
             if isinstance(node, ast.Call) and _called_name(node) == "cleared" and id(node) in repeated]
    assert not lines, f"{name} clears inside a loop at lines {lines}"
