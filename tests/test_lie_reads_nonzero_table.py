"""No module of the package reads the dense bracket tensor.

An algebra is stored as its nonzero bracket table (``LieAlgebra.pairs``),
and every bracket the package computes is read from it or from the n x n
view ``nonzero_brackets``.  The dense ``.bracket`` tensor is a view decoded
for tests and the benchmark; a read of it in the package would bring back
the n^3 scans that the table replaced.  The dense readers live on only as
oracles in tests/test_sparse_oracles.py.
"""

import ast
from pathlib import Path

import pytest

import lagext

PACKAGE = Path(lagext.__file__).parent

ALLOWED: set[str] = set()


def bracket_reads(source: str, allowed: set[str]) -> list[str]:
    """Each ``.bracket`` read outside the allowed functions, tagged with line and scope."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Attribute) and node.attr == "bracket" and scope not in allowed:
            found.append(f"line {node.lineno} in {scope or '<module>'}: .bracket")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


@pytest.mark.parametrize("name", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_reads_brackets_from_the_nonzero_table(name):
    assert bracket_reads((PACKAGE / name).read_text(), ALLOWED) == []


def test_guard_sees_every_dense_read():
    for line in (
        "rows.append(tuple(algebra.bracket[i][j][k] for i in range(n)))",
        "c = rep.connection.base.bracket",
        "def center(algebra):\n    return algebra.bracket",
        "class LieAlgebra:\n    def rename(self, name):\n"
        "        return LieAlgebra(self.dim, self.bracket, name)",
        "def spec_from_symplectic(name, algebra, omega):\n    v = algebra.bracket[i][j]",
    ):
        assert bracket_reads(line, ALLOWED), line
    allowed = (
        "class LieAlgebra:\n    pairs: tuple\n"
        "    def bracket(self):\n        return self.nonzero_brackets\n"
        "    def rename(self, name):\n        return LieAlgebra(self.dim, self.pairs, name)\n"
        "def f(algebra, x, y):\n    return algebra.bracket_vectors(x, y), algebra.nonzero_brackets"
    )
    assert bracket_reads(allowed, ALLOWED) == []
