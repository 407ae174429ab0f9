"""The sparse-row elimination kernel and the cohomology path built on it.

Three kinds of check:

- the whole cohomology path against tests/reference.py, which computes Z^2,
  Z^2_L, B^2, B^2_L and the H^2 representatives from their definitions by
  Gauss-Jordan elimination on Fractions.  Results are compared by
  ``repr`` (a summary by ``inputs.summary_text``: its nine dimensions and
  both representative tuples), so values and scalar types must both agree;
- an independent oracle for the kernel: sympy's ``Matrix.rref`` on
  mostly-zero matrices;
- a guard that ``cohomology`` never builds the dense d2 matrix and that
  ``cocycle_bases`` eliminates the nonempty d2 rows exactly once, then the
  cyclic-sum rows once, and reads both kernels off that one elimination.
"""

from fractions import Fraction as F

import pytest
import sympy
from hypothesis import given, settings, strategies as st

import reference
from inputs import (
    brackets,
    expected_cohomology,
    flat_samples,
    rho,
    summary_text,
    truncated_polynomial_connection,
)
import lagext.cohomology as cohomology_module
import lagext.linalg as linalg_module
from lagext.catalog import connection_for
from lagext.cohomology import (
    _cyclic_sum_rows,
    cocycle_bases,
    cohomology,
    matrix_of_coboundary_2,
)
from lagext.connection import FlatConnection, dual_representation
from lagext.extension import ExtensionTriple, build_extension, canonical_connection
from lagext.lie import LieAlgebra
from lagext.linalg import (
    ZERO,
    RatMatrix,
    Subspace,
    kernel_basis,
    rref,
    solve_linear,
    vec,
)

# ---------------------------------------------------------------------------
# the cohomology path against the reference
# ---------------------------------------------------------------------------


def canonical_rep(label):
    ext = build_extension(ExtensionTriple.with_zero_cocycle(connection_for(label)))
    return dual_representation(canonical_connection(ext))


def assert_cohomology_matches_reference(rep):
    assert summary_text(cohomology(rep)) == summary_text(expected_cohomology(rep))
    z2, z2l = cocycle_bases(rep)
    expected_z2, expected_z2l = reference.cocycles(brackets(rep.connection.base), rho(rep.connection))
    assert spelled(z2) == spelled(expected_z2)
    assert spelled(z2l) == spelled(expected_z2l)


def spelled(space):
    """The ambient dimension, dense basis and pivots, each scalar as its repr spells it."""
    return repr((space.ambient_dim, space.basis, space.pivots))


def test_cohomology_matches_frozen_dense_path_on_flat_catalog_rows():
    rows = set()
    checked = 0
    for conn in flat_samples(2):
        rows.add(conn.label)
        assert_cohomology_matches_reference(dual_representation(conn))
        checked += 1
    assert len(rows) == 64
    assert checked > 64


@pytest.mark.parametrize("label", ["l_26", "t_8"])
def test_cohomology_matches_frozen_dense_path_in_dimension_eight(label):
    assert_cohomology_matches_reference(canonical_rep(label))


@pytest.mark.parametrize(
    "conn",
    [
        FlatConnection.zero(LieAlgebra.abelian(1)),  # C^2 has width 0
        truncated_polynomial_connection([F(2, 3)]),
        FlatConnection.zero(LieAlgebra.abelian(2)),  # no triples: d2 is one zero row
        truncated_polynomial_connection([F(-2, 3), F(3)]),
    ],
    ids=["zero-1", "trunc-1", "zero-2", "trunc-2"],
)
def test_cohomology_matches_frozen_dense_path_below_three_dimensions(conn):
    rep = dual_representation(conn)
    assert_cohomology_matches_reference(rep)
    width = (conn.dim * (conn.dim - 1) // 2) * conn.dim
    assert matrix_of_coboundary_2(rep).entries == ((ZERO,) * width,)


# ---------------------------------------------------------------------------
# the kernel against sympy
# ---------------------------------------------------------------------------


def to_sympy(rows, cols):
    return sympy.Matrix(len(rows), cols, [sympy.Rational(x.numerator, x.denominator)
                                          for row in rows for x in row])


def from_sympy(x):
    return F(int(x.p), int(x.q))


def sympy_rref(rows, cols):
    """(nonzero rows, pivots) of the reduced row echelon form, by sympy."""
    if not rows or cols == 0:
        return [], []
    reduced, pivots = to_sympy(rows, cols).rref()
    return (
        [tuple(from_sympy(reduced[i, j]) for j in range(cols)) for i in range(len(pivots))],
        list(pivots),
    )


def assert_fractions(vectors):
    assert all(type(x) is F for v in vectors for x in v)


def assert_kernel_matches_sympy(rows, cols):
    reduced, pivots = rref(rows)
    assert (reduced, pivots) == sympy_rref(rows, cols)
    assert_fractions(reduced)
    # The kernel's echelon basis is the rref of any basis of it, here sympy's.
    # (A matrix without rows has no columns either, so it is skipped.)
    if rows:
        kernel = kernel_basis(RatMatrix(tuple(rows)))
        nullspace = [tuple(from_sympy(x) for x in v) for v in to_sympy(rows, cols).nullspace()]
        assert list(kernel.basis) == sympy_rref(nullspace, cols)[0]
        assert list(kernel.pivots) == sympy_rref(nullspace, cols)[1]
        assert_fractions(kernel.basis)
    space = Subspace.from_vectors(cols, rows)
    assert (list(space.basis), list(space.pivots)) == sympy_rref(rows, cols)


def assert_solve_matches_sympy(rows, b):
    """Consistent iff the augmented column gets no pivot; then x is read off sympy's rref."""
    m = RatMatrix(tuple(rows))
    cols = m.cols  # a matrix without rows has no columns either
    x = solve_linear(m, b)
    augmented = [tuple(row) + (bv,) for row, bv in zip(rows, b)]
    reduced, pivots = sympy_rref(augmented, cols + 1)
    if cols in pivots:
        assert x is None
        return
    expected = [F(0)] * cols
    for row, p in zip(reduced, pivots):
        expected[p] = row[cols]
    assert x == tuple(expected)
    assert_fractions([x])


def assert_inverse_matches_sympy(rows):
    m = RatMatrix(tuple(rows))
    s = to_sympy(rows, len(rows))
    if s.det() == 0:
        with pytest.raises(ValueError, match="^matrix is singular$"):
            m.inverse()
        return
    inverse = s.inv()
    assert m.inverse().entries == tuple(
        tuple(from_sympy(inverse[i, j]) for j in range(len(rows))) for i in range(len(rows))
    )
    assert_fractions(m.inverse().entries)


# Mostly zeros: five entries in six are zero.
NONZERO_ENTRIES = [F(p, q) for p in range(-3, 4) if p for q in (1, 2, 3)]
sparse_entries = st.sampled_from([F(0)] * (5 * len(NONZERO_ENTRIES)) + NONZERO_ENTRIES)


@st.composite
def sparse_rows(draw, max_rows=8, max_cols=12):
    """Mostly-zero rows, with some duplicated and some combinations of earlier rows.

    A combination of earlier rows cancels to zero partway through the
    elimination; a zero column appears wherever no row has an entry.
    """
    cols = draw(st.integers(min_value=0, max_value=max_cols))
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=max_rows))):
        kind = draw(st.sampled_from(["fresh", "fresh", "duplicate", "combination"]))
        if kind == "duplicate" and rows:
            rows.append(draw(st.sampled_from(rows)))
        elif kind == "combination" and len(rows) >= 2:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            f = draw(st.sampled_from(NONZERO_ENTRIES))
            rows.append(tuple(x + f * y for x, y in zip(a, b)))
        else:
            rows.append(tuple(draw(st.lists(sparse_entries, min_size=cols, max_size=cols))))
    return rows, cols


@given(sparse_rows(), st.data())
@settings(max_examples=200, deadline=None)
def test_kernel_matches_sympy_rref_on_mostly_zero_matrices(rows_cols, data):
    rows, cols = rows_cols
    assert_kernel_matches_sympy(rows, cols)
    b = tuple(data.draw(st.lists(sparse_entries, min_size=len(rows), max_size=len(rows))))
    assert_solve_matches_sympy(rows, b)
    if rows and cols >= len(rows):
        assert_inverse_matches_sympy([row[: len(rows)] for row in rows])


EDGE_CASES = {
    "no rows": ([], 3),
    "no columns": ([(), ()], 0),
    "zero columns": ([vec([0, 1, 0, 2]), vec([0, 3, 0, 1])], 4),
    "zero matrix": ([vec([0, 0, 0])] * 2, 3),
    "duplicate rows": ([vec([1, 2, 0]), vec([1, 2, 0]), vec([0, 0, 5])], 3),
    # The third row is the first minus twice the second: it cancels to zero
    # after the first two pivots, before the fourth row arrives.
    "cancels midway": (
        [vec([1, 0, 2, 0]), vec([0, 1, 1, 0]), vec([1, -2, 0, 0]), vec([0, 0, 1, 1])],
        4,
    ),
}


@pytest.mark.parametrize("name", list(EDGE_CASES))
def test_kernel_matches_sympy_rref_on_edge_cases(name):
    rows, cols = EDGE_CASES[name]
    assert_kernel_matches_sympy(rows, cols)
    assert_solve_matches_sympy(rows, vec([1] * len(rows)))


def test_linalg_error_messages_are_unchanged():
    with pytest.raises(ValueError, match="^matrix is singular$"):
        RatMatrix.from_rows([[1, 2], [2, 4]]).inverse()
    with pytest.raises(ValueError, match="^inverse of non-square matrix$"):
        RatMatrix.from_rows([[1, 2]]).inverse()
    with pytest.raises(ValueError, match="^right-hand side length does not match row count$"):
        solve_linear(RatMatrix.from_rows([[1, 0], [0, 1]]), vec([1, 2, 3]))
    with pytest.raises(ValueError, match="^vector length does not match ambient dimension$"):
        Subspace.from_vectors(3, [vec([1, 2])])
    with pytest.raises(TypeError, match=r"^cannot interpret 0\.5 as a rational$"):
        Subspace.from_vectors(2, [(0.5, 0)])


# ---------------------------------------------------------------------------
# guard: no dense d2, and d2 eliminated once
# ---------------------------------------------------------------------------


def test_cohomology_never_builds_dense_d2_and_eliminates_its_rows_once(monkeypatch):
    rep = canonical_rep("l_26")
    dense_builds = []
    fed = []  # every row given to the elimination kernel, in original columns
    emitted = []  # the sparse d2 rows, as emitted

    def no_dense_d2(*args):
        dense_builds.append(args)
        return matrix_of_coboundary_2(*args)

    width = 28 * 8
    real_echelon = linalg_module._echelon

    def counting_echelon(rows, ints):
        rows = list(rows)
        # ``_kernel`` relabels column c as width - 1 - c; read each row back.
        fed.extend({width - 1 - c: x for c, x in row.items()} for row in rows)
        return real_echelon(rows, ints)

    real_d2_rows = cohomology_module._coboundary_2_rows

    def recording_d2_rows(rep):
        rows = real_d2_rows(rep)
        emitted.extend(dict(row) for row in rows)
        return rows

    monkeypatch.setattr(cohomology_module, "matrix_of_coboundary_2", no_dense_d2)
    monkeypatch.setattr(cohomology_module, "_coboundary_2_rows", recording_d2_rows)
    monkeypatch.setattr(linalg_module, "_echelon", counting_echelon)

    z2, z2l = cocycle_bases(rep)
    assert not dense_builds
    assert len(emitted) == 56 * 8  # one row per (triple, t), empty ones kept in place
    nonempty = [row for row in emitted if row]
    assert len(nonempty) == 173
    # The kernel took each nonempty d2 row once, then the 56 cyclic-sum rows
    # once; Z^2 and Z^2_L are read off that one elimination, so no kernel
    # vector is fed.
    assert len(fed) == len(nonempty) + 56
    assert fed[:len(nonempty)] == nonempty
    assert fed[len(nonempty):] == _cyclic_sum_rows(8)

    # The d2 rows are built once per representation: a second pass over the
    # same one emits none, and a fresh one emits them all again.
    fresh = canonical_rep("l_26")
    fed.clear()
    emitted.clear()
    assert cocycle_bases(rep) == (z2, z2l)
    assert not emitted
    assert len(fed) == 173 + 56
    summary = cohomology(fresh)
    assert not dense_builds
    assert len(emitted) == 56 * 8
    assert (summary.dim_z2, summary.dim_z2_lagrangian) == (123, 82)
