"""The connection layer computes its verdicts from the table of nonzero coefficients.

A matrix product or a dense nilpotency power in connection.py would bring
back the n x n products that the table of nonzero gamma entries replaced;
the definitions are computed densely only in tests/reference.py.
extension.py has no matrix product either: it reads each entry of a pullback
Psi^T omega Psi as omega(Psi e_a, Psi e_b).

A connection is stored as that table (``FlatConnection.nonzero_gamma``); the
dense ``.gamma`` tensor is a view decoded for tests and the benchmark, and
no module of the package reads it.
"""

import ast
from pathlib import Path

import pytest

import lagext
from inputs import attribute_reads

PACKAGE = Path(lagext.__file__).parent

ALLOWED: set[str] = set()


def dense_operations(source: str) -> list[str]:
    """Each ``a @ b``, ``a @= b`` and ``.is_nilpotent(...)`` call, line-tagged."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"line {node.lineno}: @")
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "is_nilpotent":
            found.append(f"line {node.lineno}: is_nilpotent(...)")
    return found


def test_connection_module_has_no_matrix_products():
    assert dense_operations((PACKAGE / "connection.py").read_text()) == []


def test_extension_module_has_no_matrix_products():
    # Each entry of a pullback Psi^T omega Psi is read as omega(Psi e_a, Psi e_b).
    assert dense_operations((PACKAGE / "extension.py").read_text()) == []


def test_guard_sees_every_dense_form():
    for line in (
        "commutator = nabla[i] @ nabla[j] - nabla[j] @ nabla[i]",
        "power @= m",
        "nilpotent = tuple(m.is_nilpotent() for m in right)",
        "def f(m):\n    return m.right_mult().is_nilpotent()",
        "pulled = psi.transpose() @ g2.omega @ psi",
    ):
        assert dense_operations(line), line
    assert dense_operations("@dataclass(frozen=True)\nclass A:\n    is_nilpotent: bool") == []


@pytest.mark.parametrize("name", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_reads_gamma_from_the_nonzero_table(name):
    assert attribute_reads((PACKAGE / name).read_text(), "gamma", ALLOWED) == []


def test_gamma_guard_sees_every_dense_read():
    for line in (
        "recovered = induced_flat_connection(ext, ext.lagrangian_ideal).gamma",
        "if t1.connection.gamma != t2.connection.gamma:\n    raise ValueError",
        "def _verdict(conn):\n    return fmt_vector(conn.gamma[i][j])",
        "class FlatConnection:\n    def nabla_matrix(self, i):\n"
        "        return self.gamma[i]",
    ):
        assert attribute_reads(line, "gamma", ALLOWED), line
    allowed = (
        "class FlatConnection:\n    nonzero_gamma: tuple\n"
        "    def gamma(self):\n        return _dense(self.nonzero_gamma)\n"
        "def _omega_solve(s):\n    gamma = []\n    return tuple(gamma)\n"
        "def f(conn):\n    return conn.nonzero_gamma"
    )
    assert attribute_reads(allowed, "gamma", ALLOWED) == []
