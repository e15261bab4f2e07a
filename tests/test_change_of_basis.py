"""One change of basis: `linalg.combine` is the one loop that writes a sparse
vector in another basis (the eigenbasis of `check_axis`, the sub-basis of
`subalgebra`, the quotient basis, the mapped basis of `check_isomorphism`
and the columns of the Frobenius form).

An accumulating assignment X[k] = X.get(k, 0) + ... appears in the package
only in `combine` and in three loops that do something else: the bilinear
`Algebra._mul_coords`, the transpose in `Algebra.eigenspaces_raw` and the tag
counts of `cli._cmd_idempotents`.  The sources are read with `ast`.
"""

import ast
import pathlib

import splitspin

SOURCES = sorted(pathlib.Path(splitspin.__file__).parent.glob("*.py"))
ALLOWED = {"linalg.combine", "algebra.Algebra._mul_coords", "algebra.Algebra.eigenspaces_raw",
           "cli._cmd_idempotents"}


def _accumulates(node) -> bool:
    """Whether node is X[k] = X.get(k, 0) + ..., X and k any expressions."""
    if not (isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Subscript)):
        return False
    target, left = node.targets[0], node.value
    while isinstance(left, ast.BinOp) and isinstance(left.op, ast.Add):
        left = left.left
    return (isinstance(left, ast.Call) and isinstance(left.func, ast.Attribute) and left.func.attr == "get"
            and len(left.args) == 2 and ast.dump(left.func.value) == ast.dump(target.value)
            and ast.dump(left.args[0]) == ast.dump(target.slice)
            and isinstance(left.args[1], ast.Constant) and left.args[1].value == 0)


def accumulations(tree, module: str) -> list[str]:
    """The qualified name of the function (or module) around each accumulating assignment."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, [*scope, child.name])
            else:
                if _accumulates(child):
                    found.append(".".join([module, *scope]))
                visit(child, scope)

    visit(tree, [])
    return found


def test_only_combine_and_the_other_operations_accumulate():
    found = {name for path in SOURCES
             for name in accumulations(ast.parse(path.read_text(encoding="utf-8"), filename=path.name), path.stem)}
    assert found == ALLOWED


def test_the_guard_sees_what_it_forbids():
    source = """
def support(u, v):
    coords = {}
    for k, w in u.items():
        for t, b in v[k]:
            coords[t] = coords.get(t, 0) + w * b

class Algebra:
    def subalgebra(self):
        coords[i, j, t] = coords.get((i, j, t), 0) + a * x
        shifted[k][j] = shifted[k].get(j, 0) + q * x + 1
        seen[k] = seen.get(j, 0) + 1  # another key
        out[k] += w
        other[k] = coords.get(k, 0) + 1
"""
    assert accumulations(ast.parse(source), "m") == ["m.support", "m.Algebra.subalgebra", "m.Algebra.subalgebra"]
