"""Every function that perfbench traces still exists in lagext.

``perfbench/tracing.py`` wraps the (module, attribute) pairs of its ``TRACED``
table when a run asks for ``--trace 1``; a name deleted or renamed in lagext
would break those runs and nothing else.  The table is read with ``ast``, so
the benchmark is not imported.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def traced_names(source: str) -> list[tuple[str, str, str]]:
    """The literal value of the module-level ``TRACED`` assignment."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    raise AssertionError("no TRACED table")


def unresolved(entries) -> list[str]:
    """The ``module.attribute`` of each entry that lagext does not define."""
    missing = []
    for module_name, attr, _ in entries:
        target = importlib.import_module(f"lagext.{module_name}")
        for part in attr.split("."):
            target = getattr(target, part, None)
        if not callable(target):
            missing.append(f"{module_name}.{attr}")
    return missing


def test_traced_table_is_read():
    entries = traced_names(TRACING.read_text())
    assert ("linalg", "rref", "linalg.rref") in entries
    assert len(entries) == len(set(entries)) > 20


@pytest.mark.parametrize("entry", traced_names(TRACING.read_text()), ids=lambda e: e[2])
def test_every_traced_name_resolves(entry):
    assert unresolved([entry]) == []


def test_check_sees_a_missing_name():
    entries = [
        ("linalg", "no_such_function", "x"),
        ("linalg", "RatMatrix.no_such_method", "y"),
        ("lie", "LieAlgebra.ad_matrix", "z"),
    ]
    assert unresolved(entries) == [
        "linalg.no_such_function", "linalg.RatMatrix.no_such_method", "lie.LieAlgebra.ad_matrix",
    ]
    assert unresolved([("linalg", "Subspace.from_vectors", "w")]) == []
