"""The descending flag on int tables against its definition on dense Fractions.

``lie.descending_flag`` runs on operator tables scaled by a positive D to
ints and returns each term as coprime int echelon rows {pivot: row}.  Here
every flag the package reads is recomputed from its definition by
``reference.descending_flag``, on dense operators of the unscaled Fractions:
V_0 = Q^n and V_{r+1} the span of M v over the operators M and a basis v of
V_r, down to 0 or to the first step that does not shrink.  Each int term, written out as Fraction
echelon rows, must equal that span (basis, pivots and types), and must
itself be reduced: each row coprime, nonzero at its pivot, its lowest
column, and zero at every other pivot.

The flags covered are the lower central series (the ad_{e_j} of
``integer_brackets``), the Engel flag of nabla_{e_1..e_n} and the flag of
each right multiplication R_{e_j} (both read off the connection's
``integer_tables``), on every flat ``--samples 3`` catalog sample, the zero
and a seeded Z2_L class extension of each, a table with denominators, and
inputs whose flags stop above 0.  n = 0, no operators and zero operators
are checked in ``tests/test_sparse_oracles.py``, and on random operator sets
below.  The nilpotency of each R_{e_j} is also read off its n-th power.
"""

from fractions import Fraction as F
from math import gcd

from hypothesis import given, settings, strategies as st

import reference
from inputs import (
    brackets,
    flat_samples,
    gamma,
    random_lagrangian_cocycle,
    scaled_operators,
    typed,
)
from lagext import specfile
from lagext.catalog import connection_for
from lagext.connection import _uniform_nilindex
from lagext.extension import ExtensionTriple, build_extension, extension_nilpotency
from lagext.lie import (
    LieAlgebra,
    _lcs_dims,
    descending_flag,
    fingerprint,
    is_nilpotent,
    lower_central_series,
    nilpotency_class,
)
from lagext.linalg import RatMatrix, Subspace
from lagext.sampling import rng_for

AFF = "algebra aff dim 2\nbracket e1 e2 -> 1 e2\nconnection e1 e2 -> 1 e2\n"


def written(flag, n):
    return tuple(Subspace.of(n, step) for step in flag)


def assert_reduced(flag, n):
    """Each term is coprime int echelon rows, keyed by their pivots."""
    for step in flag:
        for p, row in step.items():
            assert min(row) == p and all(0 <= j < n for j in row)
            assert all(type(x) is int and x for x in row.values())
            assert gcd(*row.values()) == 1
            assert not any(q in row for q in step if q != p)


def assert_flag_matches_dense(operators, matrices, n):
    """The int flag of ``operators`` is the reference flag of ``matrices``;
    returns the flag's length when it reaches 0, else None."""
    flag = descending_flag(operators, n)
    assert_reduced(flag, n)
    assert typed(written(flag, n)) == typed(reference.descending_flag(matrices, n))
    return None if flag[-1] else len(flag) - 1


def assert_series_matches_dense(algebra):
    n = algebra.dim
    flag = algebra.integer_central_series
    assert_reduced(flag, n)
    c = brackets(algebra)
    dense = reference.lower_central_series(c)
    assert typed(written(flag, n)) == typed(dense)
    ads = [reference.ad(c, unit) for unit in reference.units(n)]
    assert typed(written(descending_flag(algebra.integer_brackets[1], n), n)) == typed(
        reference.descending_flag(ads, n)
    )
    dims = tuple(s.dim for s in dense)
    assert _lcs_dims(algebra) == dims
    assert is_nilpotent(algebra) == (dims[-1] == 0)
    assert nilpotency_class(algebra) == (len(dims) - 1 if dims[-1] == 0 else None)
    assert fingerprint(algebra).lcs_dims == dims
    # The public series is the written flag.
    assert typed(lower_central_series(algebra)) == typed(dense)


def assert_connection_flags_match_dense(conn):
    """The Engel flag of nabla and the flag of each R_{e_j}, on the scaled gamma."""
    n = conn.dim
    _, cols, _ = conn.integer_tables
    g = gamma(conn)
    nabla = [reference.nabla(g, e) for e in reference.units(n)]
    index = assert_flag_matches_dense(cols, nabla, n)
    assert index == _uniform_nilindex(cols) == reference.nilindex(nabla, n)
    assert conn.completeness.nabla_nilindex == index
    right = tuple(zip(*cols))
    nilpotent = []
    for j, r in enumerate(right):
        m = reference.right(g, reference.unit(n, j))
        index = assert_flag_matches_dense([r], [m], n)
        assert index == reference.nilindex([m], n)
        nilpotent.append(index is not None)
        assert (index is not None) == reference.is_nilpotent(m)
    assert conn.completeness.right_mult_nilpotent == tuple(nilpotent)


def test_every_flag_of_every_flat_sample_matches_its_definition():
    rng = rng_for(97, "int-flag")
    checked = 0
    for conn in flat_samples():
        assert_series_matches_dense(conn.base)
        assert_connection_flags_match_dense(conn)
        alpha = random_lagrangian_cocycle(conn, rng)
        for triple in (ExtensionTriple.with_zero_cocycle(conn), ExtensionTriple(conn, alpha)):
            algebra = build_extension(triple).algebra
            assert_series_matches_dense(algebra)
            assert extension_nilpotency(triple).lcs_dims == _lcs_dims(algebra)
        checked += 1
    assert checked == 108


def test_a_table_with_denominators_gives_the_rational_flags():
    """l_17 at t = 1/3 scales gamma by D = 9, and its extension's bracket by D > 1."""
    conn = connection_for("l_17", t=F(1, 3))
    assert conn.integer_tables[0] == 9
    assert_connection_flags_match_dense(conn)
    assert_series_matches_dense(conn.base)
    algebra = build_extension(ExtensionTriple.with_zero_cocycle(conn)).algebra
    assert algebra.integer_brackets[0] > 1
    assert_series_matches_dense(algebra)


def test_flags_that_stop_above_zero():
    solvable = LieAlgebra.from_brackets(2, {(0, 1): (0, 1)}, "aff")
    assert_series_matches_dense(solvable)
    assert _lcs_dims(solvable) == (2, 1) and nilpotency_class(solvable) is None
    spec = specfile.parse_spec(AFF)
    conn = specfile.build_connection(spec, specfile.build_algebra(spec))
    assert_connection_flags_match_dense(conn)
    assert conn.completeness.nabla_nilindex is None  # nabla_{e1} is not nilpotent
    extension = build_extension(ExtensionTriple.with_zero_cocycle(conn)).algebra
    assert_series_matches_dense(extension)
    assert _lcs_dims(extension) == (4, 2)


rationals = st.builds(F, st.integers(-3, 3), st.sampled_from([1, 1, 1, 2, 3, 6]))


@st.composite
def operator_sets(draw):
    """Up to three n x n rational matrices, n <= 4, many of them nilpotent."""
    n = draw(st.integers(0, 4))
    count = draw(st.integers(0, 3))
    matrices = []
    for _ in range(count):
        upper = draw(st.booleans())
        matrices.append(RatMatrix(tuple(
            tuple(draw(rationals) if not upper or j > i else F(0) for j in range(n))
            for i in range(n)
        )))
    return n, matrices


@given(operator_sets())
@settings(max_examples=150, deadline=None)
def test_flag_of_scaled_operators_is_the_rational_flag(case):
    """Scaling by the lcm D of the denominators changes no term and no stop."""
    n, matrices = case
    operators = scaled_operators(matrices)
    assert all(type(x) is int for op in operators for col in op for _, x in col)
    matrices = [m.entries for m in matrices]
    index = assert_flag_matches_dense(operators, matrices, n)
    if matrices:
        assert index == reference.nilindex(matrices, n)
