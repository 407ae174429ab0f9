"""d1 and d2 are written once, as the sparse rows of cohomology.py.

``coboundary_1`` and ``coboundary_2`` apply the rows of
``_coboundary_1_images`` and ``_coboundary_2_rows``; a dense rho matrix
(``.matrices``) anywhere in the package, or a ``RatMatrix.apply`` in
cohomology.py, would bring back a second copy of a differential whose sign
and ordering conventions could drift from the rows'.  The dense evaluators
live on only as oracles in tests/test_sparse_oracles.py.
"""

import ast
from pathlib import Path

import pytest

import lagext

PACKAGE = Path(lagext.__file__).parent


def dense_forms(source: str, calls: set[str]) -> list[str]:
    """Each read of ``.matrices`` and each call of ``.name(...)`` for name in calls, line-tagged."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "matrices":
            found.append(f"line {node.lineno}: .matrices")
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) in calls:
            found.append(f"line {node.lineno}: .{node.func.attr}(...)")
    return found


@pytest.mark.parametrize("name", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_module_reads_dense_rho_matrices(name):
    assert dense_forms((PACKAGE / name).read_text(), set()) == []


def test_cohomology_applies_no_dense_matrix():
    assert dense_forms((PACKAGE / "cohomology.py").read_text(), {"apply"}) == []


def test_guard_sees_every_dense_form():
    for line in (
        "v = list(rep.matrices[i].apply(alpha.value(j, k)))",
        "rho_i = rep.matrices[i]",
        "mats = self.connection.dual.matrices",
        "def f(m, v):\n    return m.apply(v)",
    ):
        assert dense_forms(line, {"apply"}), line
    assert dense_forms("matrices = ()\napply = None\nx = apply", {"apply"}) == []
