"""No module of the package reads the dense bracket tensor.

An algebra is stored as its nonzero bracket table (``LieAlgebra.pairs``),
and every bracket the package computes is read from it or from its one int
n x n table ``integer_brackets``, mirrored from the scaled pairs; a result
made of Fractions is divided back by the table's D.  The dense ``.bracket``
tensor is a view decoded from the pairs for tests and the benchmark; a
read of it in the package would bring back the n^3 scans that the table
replaced.  The dense tensor is read only by the tests, to compare it with
tests/reference.py.
"""

from pathlib import Path

import pytest

import lagext
from inputs import attribute_reads

PACKAGE = Path(lagext.__file__).parent

ALLOWED: set[str] = set()


@pytest.mark.parametrize("name", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_reads_brackets_from_the_nonzero_table(name):
    assert attribute_reads((PACKAGE / name).read_text(), "bracket", ALLOWED) == []


def test_guard_sees_every_dense_read():
    for line in (
        "rows.append(tuple(algebra.bracket[i][j][k] for i in range(n)))",
        "c = rep.connection.base.bracket",
        "def center(algebra):\n    return algebra.bracket",
        "class LieAlgebra:\n    def rename(self, name):\n"
        "        return LieAlgebra(self.dim, self.bracket, name)",
        "def spec_from_symplectic(name, algebra, omega):\n    v = algebra.bracket[i][j]",
    ):
        assert attribute_reads(line, "bracket", ALLOWED), line
    allowed = (
        "class LieAlgebra:\n    pairs: tuple\n"
        "    def bracket(self):\n        return self.integer_brackets\n"
        "    def rename(self, name):\n        return LieAlgebra(self.dim, self.pairs, name)\n"
        "def f(algebra, x, y):\n    return algebra.bracket_vectors(x, y), algebra.integer_brackets"
    )
    assert attribute_reads(allowed, "bracket", ALLOWED) == []
