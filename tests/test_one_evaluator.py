"""omega on vectors has one evaluator, ``omega_row``, and brackets of vectors
one, ``bracket_rows``; extension.py reads no dense vector.

extension.py reads a linear map (psi, the lifts of a reduction) as its
columns in sparse rows and a subspace as its sparse echelon rows.  So it
uses no dense ``basis``, no ``unit_vector``, no ``.col(`` of a matrix, no
``coordinates`` or ``contains`` of a dense vector, no ``from_vectors``, no
``_images`` operator, and neither dense wrapper: ``bracket_vectors`` and
``omega_value`` stay public for the tests and the catalog checks, and the
dense-vector code they replaced lives on only as oracles in
tests/test_sparse_oracles.py.
"""

import ast
from pathlib import Path

import lagext

EXTENSION = Path(lagext.__file__).parent / "extension.py"
DENSE_ATTRIBUTES = {"basis", "bracket_vectors", "omega_value", "col", "coordinates", "contains", "from_vectors"}
DENSE_NAMES = {"bracket_vectors", "omega_value", "unit_vector", "from_vectors", "_images"}


def dense_reads(source: str) -> list[str]:
    """Each read of a dense attribute or name, and each import of one, line-tagged.

    A definition is not a read, so the dense wrapper ``omega_value`` may be
    defined here."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in DENSE_ATTRIBUTES:
            found.append(f"line {node.lineno}: .{node.attr}")
        elif isinstance(node, ast.Name) and node.id in DENSE_NAMES:
            found.append(f"line {node.lineno}: {node.id}")
        elif isinstance(node, ast.alias) and node.name in DENSE_NAMES:
            found.append(f"import {node.name}")
    return found


def test_extension_module_reads_no_dense_vector():
    assert dense_reads(EXTENSION.read_text()) == []


def test_guard_sees_each_dense_read():
    for line in (
        "v = perp.basis[a]",
        "w = s.algebra.bracket_vectors(x, y)",
        "x = s.omega_value(u, v)",
        "e = unit_vector(n, a)",
        "from .linalg import unit_vector",
        "c = psi.col(a)",
        "c = perp.coordinates(v)",
        "ok = all(perp.contains(u) for u in rows)",
        "j = Subspace.from_vectors(r, vectors)",
        "from .linalg import from_vectors",
        "rows = _images((operator,), j.rows)",
        "from .lie import _images",
        "from .lie import bracket_vectors as b",
    ):
        assert dense_reads(line), line
    # What the sparse code does passes, the wrapper's definition included.
    assert dense_reads(
        "def omega_value(self, x, y):\n    return self.pullback([_sparse(x), _sparse(y)])[0]\n"
        "row = s.omega_row(u)\nb = g.algebra.bracket_rows(u, v)\n"
        "keep = j.complement_coordinates()\nform = s.pullback(cols)"
    ) == []
