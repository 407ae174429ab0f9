from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import reference
from inputs import sparse_vector, typed
from lagext.connection import _uniform_nilindex
from lagext.linalg import (
    RatMatrix,
    Subspace,
    kernel_basis,
    quotient_basis,
    rat,
    rref,
    solve_linear,
    vec,
)

IDENTITY_2 = RatMatrix.from_rows([[1, 0], [0, 1]])


def test_rat_parsing_and_formatting():
    assert rat("3/6") == F(1, 2)
    assert rat("-2") == F(-2)
    assert str(rat("4/6")) == "2/3"
    assert str(F(0)) == "0"
    with pytest.raises(TypeError):
        rat(1.5)


def test_kernel_of_identity_is_trivial():
    assert kernel_basis(IDENTITY_2).dim == 0


def test_kernel_of_rank_one_row():
    ker = kernel_basis(RatMatrix.from_rows([[1, 1]]))
    assert ker.basis == (vec([1, -1]),)


def test_kernel_of_zero_map_is_everything():
    ker = kernel_basis(RatMatrix.from_rows([[0] * 5] * 3))
    assert ker.dim == 5


def test_solve_identity():
    m = RatMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert solve_linear(m, vec([1, 2, 3])) == vec([1, 2, 3])


def test_solve_underdetermined_prefers_pivot_variables():
    m = RatMatrix.from_rows([[1, 1]])
    assert solve_linear(m, vec([2])) == vec([2, 0])


def test_solve_inconsistent_returns_none():
    m = RatMatrix.from_rows([[0, 0]])
    assert solve_linear(m, vec([1])) is None


def test_rref_pivots_ascending():
    rows, pivots = rref([vec([0, 2, 1]), vec([1, 1, 0]), vec([1, 3, 1])])
    assert pivots == [0, 1]
    assert rows[0][0] == 1 and rows[1][1] == 1


def test_quotient_basis_trivial_and_line():
    w = Subspace.full(2)
    v = Subspace.from_vectors(2, [vec([1, 0])])
    reps = quotient_basis(w, v)
    assert reps == (vec([0, 1]),)
    assert quotient_basis(v, v) == ()


def test_quotient_basis_requires_containment():
    w = Subspace.from_vectors(3, [vec([1, 0, 0])])
    v = Subspace.from_vectors(3, [vec([0, 1, 0])])
    with pytest.raises(ValueError):
        quotient_basis(w, v)


def test_subspace_reduce_clears_pivots():
    v = Subspace.from_vectors(3, [vec([1, 2, 0]), vec([0, 0, 1])])
    reduced = v.reduce(vec([3, 6, 5]))
    assert reduced == vec([0, 0, 0])
    assert v.contains(vec([2, 4, 7]))
    assert not v.contains(vec([0, 1, 0]))


def test_matrix_inverse_and_nilpotent():
    m = RatMatrix.from_rows([[1, 2], [3, 4]])
    inv = m.inverse()
    assert (m @ inv).entries == IDENTITY_2.entries
    # The nilpotency reading of the connection layer, on the int columns of
    # N = [[0, 1], [0, 0]] and of m.
    assert _uniform_nilindex([((), ((0, 1),))]) == 2
    assert _uniform_nilindex([(((0, 1), (1, 3)), ((0, 2), (1, 4)))]) is None


small_fractions = st.fractions(
    min_value=-3, max_value=3, max_denominator=3
)


@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=5),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_rank_nullity_with_independent_transpose_rank(rows, cols, data):
    entries = [
        [data.draw(small_fractions) for _ in range(cols)] for _ in range(rows)
    ]
    m = RatMatrix.from_rows(entries)
    ker = kernel_basis(m)
    # independent rank via row reduction of the transpose
    rank_t = len(rref(m.transpose().entries)[1])
    assert ker.dim + rank_t == cols
    for v in ker.basis:
        assert all(x == 0 for x in m.apply(v))


@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_solve_linear_solutions_are_exact(rows, cols, data):
    entries = [
        [data.draw(small_fractions) for _ in range(cols)] for _ in range(rows)
    ]
    m = RatMatrix.from_rows(entries)
    x_true = vec([data.draw(small_fractions) for _ in range(cols)])
    b = m.apply(x_true)
    x = solve_linear(m, b)
    assert x is not None
    assert m.apply(x) == b


@given(st.integers(min_value=1, max_value=4), st.data())
@settings(max_examples=40, deadline=None)
def test_quotient_representatives_span_with_v(ambient, data):
    vectors = [
        vec([data.draw(small_fractions) for _ in range(ambient)])
        for _ in range(data.draw(st.integers(min_value=0, max_value=ambient)))
    ]
    w_extra = [
        vec([data.draw(small_fractions) for _ in range(ambient)])
        for _ in range(data.draw(st.integers(min_value=0, max_value=ambient)))
    ]
    v = Subspace.from_vectors(ambient, vectors)
    w = Subspace.from_vectors(ambient, list(v.basis) + w_extra)
    reps = quotient_basis(w, v)
    assert len(reps) == w.dim - v.dim
    joined = Subspace.from_vectors(ambient, list(reps) + list(v.basis))
    assert joined.dim == w.dim
    for r in reps:
        assert w.contains(r)
        # reduced against V: zero at V's pivot coordinates
        assert all(r[p] == 0 for p in v.pivots)


# Mostly zeros, like the coboundary matrices: three entries in four are zero.
NONZERO_ENTRIES = [F(p, q) for p in range(-3, 4) if p for q in (1, 2, 3)]
sparse_entries = st.sampled_from([F(0)] * (3 * len(NONZERO_ENTRIES)) + NONZERO_ENTRIES)


def sparse_matrix(data, max_rows=8, max_cols=12, square=False):
    rows = data.draw(st.integers(min_value=1, max_value=max_rows))
    cols = rows if square else data.draw(st.integers(min_value=1, max_value=max_cols))
    vectors = st.lists(sparse_vector(cols, sparse_entries), min_size=rows, max_size=rows)
    return RatMatrix(tuple(data.draw(vectors)))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_rref_kernel_and_solve_match_dense_elimination(data):
    m = sparse_matrix(data)
    assert typed(rref(m.entries)) == typed(reference.rref(m.entries, m.cols))
    assert typed(kernel_basis(m)) == typed(reference.kernel(m.entries, m.cols))
    b = data.draw(sparse_vector(m.rows, sparse_entries))
    assert typed(solve_linear(m, b)) == typed(reference.solve(m.entries, b, m.cols))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_subspace_reduce_matches_dense_elimination(data):
    m = sparse_matrix(data)
    space = Subspace.from_vectors(m.cols, m.entries)
    expected = reference.span(m.cols, m.entries)
    assert typed(space) == typed(expected)
    for v in data.draw(st.lists(sparse_vector(m.cols, sparse_entries), min_size=1, max_size=3)):
        assert typed(space.reduce(v)) == typed(reference.reduce(expected, v))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_inverse_matches_dense_elimination(data):
    m = sparse_matrix(data, square=True)
    expected = reference.inverse(m.entries)
    if expected is None:
        with pytest.raises(ValueError, match="^matrix is singular$"):
            m.inverse()
    else:
        assert typed(m.inverse().entries) == typed(expected)
