"""The Lie, extension and cohomology layers read brackets from the nonzero table.

Every bracket that lie.py, extension.py and cohomology.py compute is read
from ``LieAlgebra.nonzero_brackets``; a read of the dense ``.bracket``
tensor would bring back the n^3 scans that the table replaced.  The tensor
stays the stored form, so it is read where an algebra is checked and
tabulated (``LieAlgebra.__post_init__``, ``nonzero_brackets``), renamed
(``rename``) and where an extension's tensor is assembled (``_build``).
The dense readers live on only as oracles in tests/test_sparse_oracles.py.
"""

import ast
from pathlib import Path

import pytest

import lagext

PACKAGE = Path(lagext.__file__).parent

ALLOWED = {
    "lie.py": {"LieAlgebra.__post_init__", "LieAlgebra.nonzero_brackets", "LieAlgebra.rename"},
    "extension.py": {"_build"},
    "cohomology.py": set(),
}


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


@pytest.mark.parametrize("name", sorted(ALLOWED))
def test_module_reads_brackets_from_the_nonzero_table(name):
    assert bracket_reads((PACKAGE / name).read_text(), ALLOWED[name]) == []


def test_guard_sees_every_dense_read():
    for line in (
        "rows.append(tuple(algebra.bracket[i][j][k] for i in range(n)))",
        "c = rep.connection.base.bracket",
        "def center(algebra):\n    return algebra.bracket",
        "class LieAlgebra:\n    def ad_matrix(self, x):\n        return self.bracket",
        "def _build(triple):\n    def inner(conn):\n        return conn.base.bracket",
    ):
        assert bracket_reads(line, ALLOWED["lie.py"] | {"_build"}), line
    allowed = (
        "class LieAlgebra:\n    bracket: tuple\n"
        "    def rename(self, name):\n        return LieAlgebra(self.dim, self.bracket, name)\n"
        "def f(algebra, x, y):\n    return algebra.bracket_vectors(x, y), algebra.nonzero_brackets"
    )
    assert bracket_reads(allowed, ALLOWED["lie.py"]) == []
