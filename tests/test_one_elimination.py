"""One elimination, and a subspace stored as the int rows it keeps.

``linalg._echelon`` is the only elimination in the package: the Fraction-row
reduction that ran beside it (``_eliminate``, ``_reduce``, ``_subtract``),
its converters (``_int_rows``, ``_written``) and the Fraction kernel writer
(``_kernel_fractions``) are gone, and no module may bring one back.  A
``Subspace`` stores ``ints``, the coprime int echelon rows of its span, each
positive at its pivot, so equality compares canonical rows: the same span
given in any row order, or with rows scaled by any nonzero rational, is the
same object.  The constructor rejects rows that are not in that form.
"""

import ast
from copy import deepcopy
from fractions import Fraction as F
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import lagext
from inputs import quotient_rows
from lagext.lie import LieAlgebra, quotient_algebra
from lagext.linalg import Subspace, _echelon

PACKAGE = Path(lagext.__file__).parent
DELETED = {"_eliminate", "_reduce", "_subtract", "_int_rows", "_written", "_kernel_fractions"}


def deleted_names(source: str) -> list[str]:
    """Each definition, assignment or import of a deleted name, line-tagged."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [name for alias in node.names for name in {alias.name, alias.asname} if name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        else:
            continue
        found += [f"line {node.lineno}: {name}" for name in names if name in DELETED]
    return found


@pytest.mark.parametrize("name", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_module_defines_or_imports_a_deleted_elimination(name):
    assert deleted_names((PACKAGE / name).read_text()) == []


def test_guard_sees_every_definition_form():
    for source in (
        "def _eliminate(rows, kept=None):\n    return kept",
        "from .linalg import _reduce",
        "from .linalg import (\n    _echelon,\n    _written,\n)",
        "from .linalg import _echelon as _subtract",
        "_int_rows = dict",
        "class Subspace:\n    def _kernel_fractions(self):\n        pass",
    ):
        assert len(deleted_names(source)) == 1, source
    assert deleted_names("from .linalg import _echelon, _kernel_ints\nx = _echelon") == []


def assert_canonical(space):
    for row, p in zip(space.ints, space.pivots):
        assert min(row) == p and row[p] > 0
        assert all(type(x) is int and x for x in row.values())
        assert gcd(*row.values()) == 1


small = st.sampled_from([0] * 8 + [1, -1, 2, -3, 4, 6])
scale = st.builds(F, st.sampled_from([1, -1, 2, -3, 6, -10]), st.sampled_from([1, 3, 4, 7]))


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_equal_spans_give_equal_subspaces(data):
    """The span of int rows, then the same rows reversed, each scaled by a
    nonzero rational (negative ones included): equal objects, equal ints."""
    n = data.draw(st.integers(min_value=0, max_value=6))
    rows = data.draw(st.lists(st.lists(small, min_size=n, max_size=n), max_size=5))
    rows = [{c: x for c, x in enumerate(row) if x} for row in rows]
    factors = data.draw(st.lists(scale, min_size=len(rows), max_size=len(rows)))
    moved = [{c: f * x for c, x in row.items()} for row, f in zip(reversed(rows), factors)]
    first, second = {}, {}
    _echelon(rows, first)
    _echelon(moved, second)
    a, b = Subspace.of(n, first), Subspace.of(n, second)
    assert a == b and a.ints == b.ints
    assert_canonical(a)
    vectors = [[row.get(c, 0) for c in range(n)] for row in moved]
    assert Subspace.from_vectors(n, vectors) == a


def test_a_row_kept_negative_at_its_pivot_is_negated():
    ints = {}
    _echelon([{0: -2, 1: 4, 2: 6}, {1: -3}], ints)
    assert ints[0][0] < 0 or ints[1][1] < 0
    space = Subspace.of(3, ints)
    assert space.ints == ({0: 1, 2: -3}, {1: 1})
    assert space.rows == ({0: 1, 2: F(-3)}, {1: 1})
    assert space == Subspace.from_vectors(3, [(1, 0, -3), (0, 5, 0)])


@pytest.mark.parametrize(
    "n, ints",
    [
        (2, ({0: F(1)},)),                 # a Fraction entry
        (2, ({0: True},)),                 # a bool is not an int entry here
        (2, ({0: 1, 1: 0},)),              # an explicit zero
        (2, ({},)),                        # an empty row
        (2, ({0: -1, 1: 2},)),             # negative at its pivot
        (2, ({0: 2, 1: 4},)),              # not coprime
        (2, ({1: 1}, {0: 1})),             # pivots descending
        (2, ({0: 1}, {0: 1, 1: 1})),       # a repeated pivot
        (2, ({0: 1, 1: 1}, {1: 1})),       # nonzero at another row's pivot
        (2, ({0: 1, 2: 1},)),              # a column outside Q^2
        (0, ({0: 1},)),                    # any row of Q^0
    ],
)
def test_subspace_rejects_rows_that_are_not_canonical(n, ints):
    with pytest.raises(ValueError, match="^echelon row "):
        Subspace(n, ints)


def test_subspace_accepts_canonical_rows():
    assert Subspace(3, ({0: 1, 2: -3}, {1: 2, 2: 5})).pivots == (0, 1)
    assert Subspace(2) == Subspace.zero(2) and Subspace(2, ({0: 1}, {1: 1})) == Subspace.full(2)


def test_readers_leave_a_subspace_s_int_rows_unchanged():
    """Unit pivots make ``_echelon`` reduce a kept row in place, so a reader
    that eliminated against a subspace's shared rows, not a copy, would
    change them: [e_1, e_0 + 3 e_2] = e_2 clears column 2 from both rows."""
    algebra = LieAlgebra.from_brackets(3, {(0, 1): (0, 0, -1)})
    sub = Subspace(3, ({0: 1, 2: 3}, {1: 1, 2: 1}))
    kept = deepcopy(sub.ints)
    assert not algebra.is_ideal(sub)
    assert quotient_rows(Subspace.full(3), sub) == ((0, 0, 1),)
    with pytest.raises(ValueError, match="^subspace is not an ideal$"):
        quotient_algebra(algebra, sub)
    assert sub.ints == kept
