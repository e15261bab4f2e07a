"""The package holds no API that only tests reach.

Every module-level function of `src/splitspin` is named somewhere in the
package outside its own definition (as a name, or as an attribute of its
module), and every method is reached as an attribute somewhere in the
package.  Dunder methods are called by Python
itself and are exempt, as are the functions exported in `__all__` and the
few members that the README documents for users or that the benchmark
tracer names (ALLOWED).  The sources are read with `ast`; nothing is
imported.
"""

import ast
import pathlib

SOURCE = pathlib.Path(__file__).resolve().parents[1] / "src" / "splitspin"

ALLOWED = {
    "algebra.Algebra.constants",  # documented in the README
    "serialize.algebra_from_json",  # documented in the README
    "linalg.Matrix.rref",  # named by perfbench/tracer.py
    "linalg.Matrix.apply",  # named by perfbench/tracer.py
}


def _trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=path.name)
            for path in sorted(SOURCE.glob("*.py"))}


def _exported(trees) -> set[str]:
    for node in trees["__init__"].body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    raise LookupError("__init__.py assigns no __all__")


def unreached(trees, allowed=ALLOWED) -> list[str]:
    """The qualified names of the functions and methods nothing in the package reaches."""
    names, attributes = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    exported, found = _exported(trees), []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name not in names | attributes | exported:
                found.append(f"{module}.{node.name}")
            elif isinstance(node, ast.ClassDef):
                for method in node.body:
                    if (isinstance(method, ast.FunctionDef) and method.name not in attributes
                            and not (method.name.startswith("__") and method.name.endswith("__"))):
                        found.append(f"{module}.{node.name}.{method.name}")
    return sorted(set(found) - allowed)


def test_every_function_and_method_is_reached_from_the_package():
    assert unreached(_trees()) == []


def test_each_allowed_member_exists_and_nothing_in_the_package_reaches_it():
    # an entry that is deleted, or that the package comes to use, leaves ALLOWED
    assert unreached(_trees(), allowed=set()) == sorted(ALLOWED)
