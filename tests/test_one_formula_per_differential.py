"""d1 and d2 are written once, as the sparse rows of cohomology.py.

``coboundary_1`` and ``coboundary_2`` apply the rows of
``_coboundary_1_images`` and ``_coboundary_2_rows``; a dense rho matrix
(``.matrices``) anywhere in the package, or a ``RatMatrix.apply`` in
cohomology.py, would bring back a second copy of a differential whose sign
and ordering conventions could drift from the rows'.  So would a dense d1
matrix: ``coboundary_image`` and ``solve_coboundary`` eliminate the d1 rows
themselves, so cohomology.py calls neither ``solve_linear`` nor
``.transpose()``.  The dense evaluators, the dense d1 matrix and its solve
live on only as oracles in tests/test_sparse_oracles.py.

A 2-cochain is its coordinate vector, the order those rows use; its dense
``.tensor`` is a view for tests and the benchmark, and no module of the
package reads it, so every consumer works on the coordinates.
"""

import ast
from pathlib import Path

import pytest

import lagext

PACKAGE = Path(lagext.__file__).parent


def dense_forms(source: str, calls: set[str], reads=frozenset({"matrices"})) -> list[str]:
    """Each read of ``.name`` for name in reads and each call of ``.name(...)``
    or ``name(...)`` for name in calls, line-tagged."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in reads:
            found.append(f"line {node.lineno}: .{node.attr}")
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "attr", None) or getattr(node.func, "id", None)
            if name in calls:
                found.append(f"line {node.lineno}: {name}(...)")
    return found


@pytest.mark.parametrize("name", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_module_reads_dense_rho_matrices(name):
    assert dense_forms((PACKAGE / name).read_text(), set()) == []


@pytest.mark.parametrize("name", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_module_reads_a_two_cochain_tensor(name):
    assert dense_forms((PACKAGE / name).read_text(), set(), {"tensor"}) == []


def test_cohomology_applies_no_dense_matrix():
    assert dense_forms((PACKAGE / "cohomology.py").read_text(), {"apply"}) == []


def test_cohomology_builds_no_dense_d1_matrix():
    assert dense_forms((PACKAGE / "cohomology.py").read_text(), {"solve_linear", "transpose"}) == []


def test_guard_sees_every_dense_d1_form():
    for line in (
        "coeffs = solve_linear(m, target)",
        "coeffs = linalg.solve_linear(matrix_of_coboundary_1(rep, basis), target)",
        "return RatMatrix(tuple(_dense(r, width) for r in images)).transpose()",
        "images = matrix_of_coboundary_1(rep, basis).transpose().entries",
    ):
        assert dense_forms(line, {"solve_linear", "transpose"}), line
    assert dense_forms(
        "transpose = solve_linear = None\nkept = _eliminate(system)\nx = m.transpose",
        {"solve_linear", "transpose"},
    ) == []


def test_guard_sees_every_dense_form():
    for line in (
        "v = list(rep.matrices[i].apply(alpha.value(j, k)))",
        "rho_i = rep.matrices[i]",
        "mats = self.connection.dual.matrices",
        "def f(m, v):\n    return m.apply(v)",
    ):
        assert dense_forms(line, {"apply"}), line
    assert dense_forms("matrices = ()\napply = None\nx = apply", {"apply"}) == []


def test_guard_sees_every_tensor_read():
    for line in (
        "c[i][j][n + k] = alpha.tensor[i][j][k]",
        "if expected.tensor != t2.cocycle.tensor:\n    raise ValueError",
        "rows = [row for plane in self.tensor for row in plane]",
        "key = (triple.cocycle.tensor,)",
    ):
        assert dense_forms(line, set(), {"tensor"}), line
    assert dense_forms(
        "tensor = ()\nc = _freeze_tensor(tensor)\nx = alpha.values", set(), {"tensor"}
    ) == []
