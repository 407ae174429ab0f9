"""No verdict module may draw from the seeded sampler.

Connection, extension and catalog-sweep verdicts are exact certificates; a
seed in any of them would make a verdict depend on which directions were
drawn.
"""

import ast
from pathlib import Path

import pytest

import lagext

VERDICT_MODULES = ("connection.py", "extension.py", "verify.py")


def sampling_imports(source: str) -> list[str]:
    """Each import of lagext.sampling in the source, as a line-tagged string."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module in ("sampling", "lagext.sampling") or (
                module in ("", "lagext") and any(a.name == "sampling" for a in node.names)
            ):
                found.append(f"line {node.lineno}: from {'.' * node.level}{module} import ...")
        elif isinstance(node, ast.Import):
            found += [
                f"line {node.lineno}: import {a.name}"
                for a in node.names
                if a.name == "lagext.sampling"
            ]
    return found


@pytest.mark.parametrize("name", VERDICT_MODULES)
def test_verdict_module_does_not_import_the_sampler(name):
    source = (Path(lagext.__file__).parent / name).read_text()
    assert sampling_imports(source) == []


def test_guard_sees_every_import_form():
    for line in (
        "from .sampling import rng_for",
        "from . import sampling",
        "from lagext.sampling import random_rational",
        "from lagext import sampling",
        "import lagext.sampling",
        "def f():\n    from .sampling import rng_for",
    ):
        assert len(sampling_imports(line)) == 1, line
    assert sampling_imports("from .linalg import Subspace\nimport random") == []
