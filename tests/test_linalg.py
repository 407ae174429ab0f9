from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from lagext.linalg import (
    RatMatrix,
    Subspace,
    kernel_basis,
    quotient_basis,
    rat,
    rref,
    solve_linear,
    unit_vector,
    vec,
)
from test_sparse_oracles import DenseSubspace


def test_rat_parsing_and_formatting():
    assert rat("3/6") == F(1, 2)
    assert rat("-2") == F(-2)
    assert str(rat("4/6")) == "2/3"
    assert str(F(0)) == "0"
    with pytest.raises(TypeError):
        rat(1.5)


def test_kernel_of_identity_is_trivial():
    assert kernel_basis(RatMatrix.identity(2)).dim == 0


def test_kernel_of_rank_one_row():
    ker = kernel_basis(RatMatrix.from_rows([[1, 1]]))
    assert ker.basis == (vec([1, -1]),)


def test_kernel_of_zero_map_is_everything():
    ker = kernel_basis(RatMatrix.zero(3, 5))
    assert ker.dim == 5


def test_solve_identity():
    m = RatMatrix.identity(3)
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
    assert (m @ inv).entries == RatMatrix.identity(2).entries
    n = RatMatrix.from_rows([[0, 1], [0, 0]])
    assert n.is_nilpotent()
    assert not m.is_nilpotent()


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


# Differential oracle: the dense elimination as it stood before elimination
# learned to skip the zero columns of the pivot row.  Every column of every
# touched row is recomputed, so a - f * 0 is evaluated rather than assumed.


def dense_rref_rows(rows):
    if not rows:
        return rows, []
    n_rows, n_cols = len(rows), len(rows[0])
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = F(1) / rows[r][c]
        if inv != 1:
            rows[r] = [x * inv for x in rows[r]]
        for i in range(n_rows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return rows, pivots


def dense_rref(rows):
    reduced, pivots = dense_rref_rows([list(row) for row in rows])
    return [tuple(reduced[i]) for i in range(len(pivots))], pivots


def dense_subspace(ambient_dim, vectors):
    basis, pivots = dense_rref(vectors)
    return DenseSubspace(ambient_dim, tuple(basis), tuple(pivots))


def dense_kernel_basis(m):
    reduced, pivots = dense_rref(m.entries)
    vectors = []
    for fc in (c for c in range(m.cols) if c not in pivots):
        v = [F(0)] * m.cols
        v[fc] = F(1)
        for row, p in zip(reduced, pivots):
            v[p] = -row[fc]
        vectors.append(tuple(v))
    return dense_subspace(m.cols, vectors)


def dense_solve_linear(m, b):
    reduced, pivots = dense_rref_rows([list(row) + [bv] for row, bv in zip(m.entries, b)])
    n_cols = m.cols
    for row in reduced:
        if all(x == 0 for x in row[:n_cols]) and row[n_cols] != 0:
            return None
    if n_cols in pivots:
        return None
    x = [F(0)] * n_cols
    for row, p in zip(reduced, pivots):
        x[p] = row[n_cols]
    return tuple(x)


def dense_reduce(space, v):
    w = list(v)
    for row, p in zip(space.basis, space.pivots):
        if w[p] != 0:
            f = w[p]
            w = [a - f * b for a, b in zip(w, row)]
    return tuple(w)


def dense_inverse(m):
    n = m.rows
    if n != m.cols:
        raise ValueError("inverse of non-square matrix")
    aug = [list(m.entries[i]) + list(unit_vector(n, i)) for i in range(n)]
    reduced, pivots = dense_rref_rows(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple(row[n:]) for row in reduced)


def typed(value):
    """Nested tuples with each scalar paired with its type, so 0 != Fraction(0)."""
    if isinstance(value, (tuple, list)):
        return tuple(typed(x) for x in value)
    if isinstance(value, (Subspace, DenseSubspace)):
        return (value.ambient_dim, typed(value.basis), value.pivots)
    return (type(value), value)


# Mostly zeros, like the coboundary matrices: three entries in four are zero.
NONZERO_ENTRIES = [F(p, q) for p in range(-3, 4) if p for q in (1, 2, 3)]
sparse_entries = st.sampled_from([F(0)] * (3 * len(NONZERO_ENTRIES)) + NONZERO_ENTRIES)


def sparse_vector(n):
    return st.lists(sparse_entries, min_size=n, max_size=n).map(tuple)


def sparse_matrix(data, max_rows=8, max_cols=12, square=False):
    rows = data.draw(st.integers(min_value=1, max_value=max_rows))
    cols = rows if square else data.draw(st.integers(min_value=1, max_value=max_cols))
    return RatMatrix(tuple(data.draw(st.lists(sparse_vector(cols), min_size=rows, max_size=rows))))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_rref_kernel_and_solve_match_dense_elimination(data):
    m = sparse_matrix(data)
    assert typed(rref(m.entries)) == typed(dense_rref(m.entries))
    assert typed(kernel_basis(m)) == typed(dense_kernel_basis(m))
    b = data.draw(sparse_vector(m.rows))
    assert typed(solve_linear(m, b)) == typed(dense_solve_linear(m, b))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_subspace_reduce_matches_dense_elimination(data):
    m = sparse_matrix(data)
    space = Subspace.from_vectors(m.cols, m.entries)
    assert typed(space) == typed(dense_subspace(m.cols, m.entries))
    for v in data.draw(st.lists(sparse_vector(m.cols), min_size=1, max_size=3)):
        assert typed(space.reduce(v)) == typed(dense_reduce(space, v))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_inverse_matches_dense_elimination(data):
    m = sparse_matrix(data, square=True)
    try:
        expected = dense_inverse(m)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            m.inverse()
        assert str(raised.value) == str(exc)
    else:
        assert typed(m.inverse().entries) == typed(expected)
