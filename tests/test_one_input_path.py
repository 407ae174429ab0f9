"""Catalog rows and spec files share one input path through specfile.py.

Coefficients are evaluated, and tensors assembled, only by the spec-file
builders; a second evaluation loop in the catalog or the command line would
be a second input path whose checks can drift from the spec file's.
"""

import ast
from pathlib import Path

import pytest

import lagext

PACKAGE = Path(lagext.__file__).parent


def method_calls(source: str, names: set[str]) -> list[str]:
    """Each call of ``.name(...)`` or ``name(...)`` for name in names, line-tagged."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in names:
                found.append(f"line {node.lineno}: {name}(...)")
    return found


@pytest.mark.parametrize(
    "name", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "specfile.py")
)
def test_only_specfile_evaluates_coefficients(name):
    assert method_calls((PACKAGE / name).read_text(), {"evaluate"}) == []


@pytest.mark.parametrize("name", ["catalog.py", "cli.py"])
def test_catalog_and_cli_assemble_no_tensors(name):
    assert method_calls((PACKAGE / name).read_text(), {"from_entries", "from_brackets"}) == []


def test_guard_sees_every_call_form():
    for line in (
        "value += term.coeff.evaluate(env)",
        "FlatConnection.from_entries(base, entries)",
        "LieAlgebra.from_brackets(4, {}, 'l')",
        "def f():\n    return [cell.value.evaluate(env) for cell in cells]",
    ):
        assert len(method_calls(line, {"evaluate", "from_entries", "from_brackets"})) == 1, line
    assert method_calls("from .exprs import Expr\nevaluate = None", {"evaluate"}) == []
