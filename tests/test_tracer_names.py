"""Every span name the benchmark tracer reads resolves to a function or
method of the package.

`perfbench/tracer.py` wraps functions by name and looks its metrics up by
span name, so a renamed function would silently read as a zero metric, or,
for `two_gen.axet`, break `--trace 1`.  The tracer is parsed with `ast`,
not imported, so nothing is written under perfbench/.
"""

import ast
import importlib
import inspect
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _assigned_dict(tree: ast.Module, name: str) -> ast.Dict:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return node.value
    raise LookupError(f"{name} is not assigned in {TRACER.name}")


def _span_names() -> list[str]:
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    names = []
    for _, (_, spans) in ast.literal_eval(_assigned_dict(tree, "SPAN_METRICS")).items():
        names += spans
    names += [key.value for key in _assigned_dict(tree, "HOOKS").keys]
    # the names looked up directly: ids["..."] and self.names.index("...")
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and getattr(node.value, "id", None) == "ids":
            if isinstance(node.slice, ast.Constant):
                names.append(node.slice.value)
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "index":
            names += [arg.value for arg in node.args if isinstance(arg, ast.Constant)]
    return sorted(set(names))


def test_the_tracer_reads_span_names():
    names = _span_names()
    assert "two_gen.axet" in names and "idempotents.classify_idempotent" in names


@pytest.mark.parametrize("name", _span_names())
def test_span_name_resolves_to_a_function_of_its_module(name):
    module_name, *path = name.split(".")
    module = importlib.import_module(f"splitspin.{module_name}")
    owner, value = module, None
    for attr in path:
        value = inspect.getattr_static(owner, attr)
        owner = value
    if isinstance(value, (classmethod, staticmethod)):
        value = value.__func__
    assert inspect.isfunction(value), f"{name} is not a function"
    # the tracer wraps only what the module defines in its own source
    assert value.__code__.co_filename == module.__file__, f"{name} is defined outside {module.__name__}"
