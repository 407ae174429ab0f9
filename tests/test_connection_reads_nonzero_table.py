"""The connection layer computes its verdicts from the table of nonzero coefficients.

A matrix product or a dense nilpotency power in connection.py would bring
back the n x n products that the table of nonzero gamma entries replaced;
the dense versions live on only as oracles in tests/test_sparse_oracles.py.
"""

import ast
from pathlib import Path

import lagext

CONNECTION = Path(lagext.__file__).parent / "connection.py"


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
    assert dense_operations(CONNECTION.read_text()) == []


def test_guard_sees_every_dense_form():
    for line in (
        "commutator = nabla[i] @ nabla[j] - nabla[j] @ nabla[i]",
        "power @= m",
        "nilpotent = tuple(m.is_nilpotent() for m in right)",
        "def f(m):\n    return m.right_mult().is_nilpotent()",
    ):
        assert dense_operations(line), line
    assert dense_operations("@dataclass(frozen=True)\nclass A:\n    is_nilpotent: bool") == []
