"""Each structure's state is its declared fields, and modules import one way.

A named extension is a copy with a ``name`` that shares the built algebra,
an extension declares the connection it was built from as ``source``, and
``DualRep`` lives in cohomology.py with the functions that fill its caches,
so connection.py imports cohomology.py and never the other way round.
"""

import ast
from dataclasses import fields
from pathlib import Path

import lagext
from lagext import cohomology
from lagext.connection import FlatConnection
from lagext.extension import SymplecticLieAlgebra
from lagext.lie import LieAlgebra

PACKAGE = Path(lagext.__file__).parent
TREES = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def calls_in(node):
    """(function, call) for each call of ``object.__setattr__`` under node,
    with the innermost function that makes it (None at module level)."""
    found = []

    def visit(node, function):
        if isinstance(node, FUNCTIONS):
            function = node
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "object.__setattr__":
            found.append((function, node))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(node, None)
    return found


def test_no_module_imports_inside_a_function():
    for name, tree in TREES.items():
        for function in ast.walk(tree):
            if isinstance(function, FUNCTIONS):
                inner = [n for n in ast.walk(function) if isinstance(n, (ast.Import, ast.ImportFrom))]
                assert not inner, f"{name}.py imports inside {getattr(function, 'name', 'lambda')}"


def test_modules_import_each_other_in_one_direction():
    edges = {
        name: {node.module for node in tree.body if isinstance(node, ast.ImportFrom) and node.level}
        for name, tree in TREES.items()
    }
    done = set()

    def visit(name, path):
        assert name not in path, f"import cycle: {' -> '.join(path + [name])}"
        if name not in done:
            for other in edges[name]:
                visit(other, path + [name])
            done.add(name)

    for name in edges:
        visit(name, [])
    assert "cohomology" in edges["connection"]


def test_object_setattr_is_called_only_in_post_init():
    for name, tree in TREES.items():
        for function, call in calls_in(tree):
            assert function is not None and function.name == "__post_init__", (
                f"{name}.py:{call.lineno} sets an attribute outside __post_init__"
            )


def test_no_renamed_or_built_from_state_is_left():
    assert not hasattr(LieAlgebra, "rename") and not hasattr(LieAlgebra, "_renamed_from")
    for path in PACKAGE.glob("*.py"):
        assert "_built_from" not in path.read_text(), path.name


def test_the_declared_fields():
    assert tuple(f.name for f in fields(FlatConnection)) == ("base", "nonzero_gamma", "label")
    source = {f.name: f for f in fields(SymplecticLieAlgebra)}["source"]
    assert (source.default, source.repr, source.compare) == (None, False, False)


def test_dual_rep_is_defined_with_its_cochains():
    owners = [
        name for name, tree in TREES.items() for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "DualRep"
    ]
    assert owners == ["cohomology"]
    assert cohomology.DualRep.__module__ == "lagext.cohomology"
