"""The tests compare lagext with one oracle, tests/reference.py.

- reference.py imports the standard library only, so no fault in lagext can
  move the oracle together with the code under test;
- no module in tests/ but reference.py defines a ``frozen_*``, ``dense_*`` or
  ``solved_*`` function or a ``Dense*`` or ``Frozen*`` class, the names the
  copies of replaced implementations went by while they served as oracles.
  The four guards that look for dense code in the package keep their
  helpers' names;
- no test module imports from another ``test_*`` module: shared inputs live
  in tests/inputs.py.
"""

import ast
import sys
from pathlib import Path

TESTS = Path(__file__).parent
GUARD_HELPERS = {"dense_operations", "dense_reads", "dense_forms", "dense_omega_paths"}


def imported_modules(source: str) -> list[str]:
    """The modules an ``import`` or ``from ... import`` names, as written."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            found.append("." * node.level + (node.module or ""))
    return found


def oracle_copies(source: str) -> list[str]:
    """Each function named frozen_*, dense_* or solved_* and each class named
    Dense* or Frozen*, apart from the guard helpers."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name.startswith(("frozen_", "dense_", "solved_")) and node.name not in GUARD_HELPERS:
                found.append(f"line {node.lineno}: def {node.name}")
        elif isinstance(node, ast.ClassDef) and node.name.startswith(("Dense", "Frozen")):
            found.append(f"line {node.lineno}: class {node.name}")
    return found


def imported_test_modules(source: str) -> list[str]:
    """The ``test_*`` modules the source imports from."""
    return [m for m in imported_modules(source) if m.rsplit(".", 1)[-1].startswith("test_")]


def test_reference_imports_only_the_standard_library():
    modules = imported_modules((TESTS / "reference.py").read_text())
    assert modules
    assert [m for m in modules if m.split(".")[0] not in sys.stdlib_module_names] == []


def test_no_test_module_keeps_a_copy_of_an_oracle():
    found = {
        path.name: copies
        for path in sorted(TESTS.glob("*.py"))
        if path.name != "reference.py" and (copies := oracle_copies(path.read_text()))
    }
    assert found == {}


def test_no_test_module_imports_another():
    found = {
        path.name: imports
        for path in sorted(TESTS.glob("*.py"))
        if (imports := imported_test_modules(path.read_text()))
    }
    assert found == {}


def test_guards_see_what_they_look_for():
    assert imported_modules("import sympy\nfrom lagext.linalg import rref\nfrom . import x\n") == [
        "sympy", "lagext.linalg", "."
    ]
    for source in (
        "def frozen_sweep(conn):\n    pass",
        "def dense_rref(rows):\n    pass",
        "class T:\n    def solved_gamma(self):\n        pass",
        "class DenseSubspace:\n    pass",
        "class FrozenCopy:\n    pass",
    ):
        assert oracle_copies(source), source
    assert oracle_copies("def dense_reads(source):\n    pass\ndef freeze(t):\n    pass") == []
    for source in ("from test_cli import L26_TEXT", "import test_extension", "from tests.test_x import y"):
        assert imported_test_modules(source), source
    assert imported_test_modules("from inputs import typed\nimport reference\nfrom lagext import tests") == []
