"""Each name has one import route: its module.

``lagext/__init__.py`` holds only its docstring, so ``lagext.cohomology``
is the module whichever way it is imported, and no module relies on the
package having imported the others first.
"""

import ast
import importlib
import sys
from pathlib import Path

import pytest

import lagext

PACKAGE = Path(lagext.__file__).parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")


def test_a_submodule_is_the_module_by_either_import():
    import lagext.cohomology as by_import
    from lagext import cohomology as by_from

    assert by_import is by_from is sys.modules["lagext.cohomology"]
    assert callable(by_import.cohomology)


def test_the_package_defines_no_name():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    [statement] = tree.body
    assert isinstance(statement, ast.Expr) and isinstance(statement.value, ast.Constant)
    assert isinstance(statement.value.value, str)


@pytest.mark.parametrize("name", MODULES)
def test_each_module_imports_on_its_own(name):
    def ours():
        return [n for n in sys.modules if n == "lagext" or n.startswith("lagext.")]

    saved = {n: sys.modules.pop(n) for n in ours()}
    try:
        assert ours() == []
        importlib.import_module(f"lagext.{name}")
    finally:
        for n in ours():
            del sys.modules[n]
        sys.modules.update(saved)
