"""Kernels and quotients read off one echelon form, and d1 over the integer tables.

``_kernel`` eliminates its rows once, with the columns relabelled so each
pivot is its row's highest column, and reads the reduced echelon basis of
the kernel straight off the result, as Fractions (``_kernel``) or as coprime
int rows (``_kernel_ints``); ``_quotient_pivots`` checks V <= W exactly
and then returns the pivots V lacks, at which W's echelon rows represent W/V.  Each is checked
here against sympy, which shares no code with lagext: the kernel against
``nullspace`` reduced to echelon form, the quotient against the echelon
basis of {w in W : w vanishes at V's pivots}.  d1 is evaluated over the
tables scaled by D, so the evaluators that return values are checked on a
connection with D > 1 against tests/reference.py.
"""

import importlib
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

import reference
from inputs import (
    brackets,
    flat_samples,
    quotient_rows,
    rho,
    seeded_one_cochains,
    summary,
    summary_text,
    typed,
    unit_cochain,
)
from lagext.catalog import connection_for
from lagext.cohomology import (
    OneCochain,
    TwoCochain,
    cocycle_bases,
    coboundary_1,
    coboundary_image,
    cohomology,
    solve_coboundary,
    two_cochain_from_coefficients,
)
from lagext.connection import FlatConnection, dual_representation
from lagext.extension import ExtensionTriple, build_extension, symplectic_orthogonal
from lagext.lie import LieAlgebra, center, derivation_space
from lagext.linalg import (
    RatMatrix,
    Subspace,
    _dense,
    _free_columns,
    _kernel,
    _kernel_ints,
    _normalised,
    kernel_basis,
    vec,
)
from lagext.sampling import random_rational, rng_for

linalg_module = importlib.import_module("lagext.linalg")


# ---------------------------------------------------------------------------
# sympy oracles
# ---------------------------------------------------------------------------


def to_fraction(x):
    return F(int(x.numerator), int(x.denominator))


def sympy_echelon(vectors, width):
    """(basis, pivots) of the reduced row echelon form of the vectors, by sympy."""
    if not vectors or width == 0:
        return (), ()
    m = DomainMatrix([[QQ(x.numerator, x.denominator) for x in v] for v in vectors],
                     (len(vectors), width), QQ)
    reduced, pivots = m.rref()
    rows = reduced.to_list()
    return tuple(tuple(to_fraction(x) for x in rows[i]) for i in range(len(pivots))), tuple(pivots)


def sympy_kernel(rows, width):
    """(basis, pivots) of the reduced echelon basis of {v : row . v = 0 for each row}:
    sympy's nullspace, reduced to echelon form."""
    if width == 0:
        return (), ()
    if not rows:
        null = [tuple(F(int(i == j)) for j in range(width)) for i in range(width)]
    else:
        m = DomainMatrix([[QQ(x.numerator, x.denominator) for x in row] for row in rows],
                         (len(rows), width), QQ)
        null = [tuple(to_fraction(x) for x in v) for v in m.nullspace().to_list()]
    return sympy_echelon(null, width)


def sympy_quotient(w, v):
    """The reduced echelon basis of {x in W : x vanishes at V's pivots}, by sympy:
    the combinations c of W's basis with (c B)_p = 0 at each pivot p of V."""
    basis = w.basis
    if not basis:
        return ()
    if v.pivots:
        constraints = [tuple(b[p] for b in basis) for p in v.pivots]
        coefficients, _ = sympy_kernel(constraints, len(basis))
    else:
        coefficients = [tuple(F(int(i == j)) for j in range(len(basis))) for i in range(len(basis))]
    vectors = [tuple(sum((c * b[k] for c, b in zip(coeffs, basis)), F(0))
                     for k in range(w.ambient_dim)) for coeffs in coefficients]
    return sympy_echelon(vectors, w.ambient_dim)[0]


def as_pair(space):
    return space.basis, space.pivots


# ---------------------------------------------------------------------------
# the kernel read off one elimination
# ---------------------------------------------------------------------------

NONZERO = [F(p, q) for p in range(-3, 4) if p for q in (1, 2, 3)]
entries = st.sampled_from([F(0)] * (3 * len(NONZERO)) + NONZERO)


@st.composite
def matrices(draw, max_rows=7, max_cols=9):
    """Mostly-zero rows, some duplicated or combined, and sometimes a full
    column rank block stacked on top."""
    width = draw(st.integers(min_value=0, max_value=max_cols))
    rows = []
    if width and draw(st.booleans()):
        # Full column rank: a unit upper triangular block.
        for i in range(width):
            rows.append(tuple(F(1) if j == i else (draw(entries) if j > i else F(0))
                              for j in range(width)))
    for _ in range(draw(st.integers(min_value=0, max_value=max_rows))):
        kind = draw(st.sampled_from(["fresh", "fresh", "zero", "combination"]))
        if kind == "zero":
            rows.append((F(0),) * width)
        elif kind == "combination" and len(rows) >= 2:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            f = draw(st.sampled_from(NONZERO))
            rows.append(tuple(x + f * y for x, y in zip(a, b)))
        else:
            rows.append(tuple(draw(st.lists(entries, min_size=width, max_size=width))))
    return draw(st.permutations(rows)), width


def assert_kernel_matches_sympy(rows, width):
    """``_kernel`` of the rows, and ``kernel_basis`` where a matrix can hold
    them, equal sympy's; the entries are Fractions."""
    kernel = _kernel([{j: x for j, x in enumerate(row) if x} for row in rows], width)
    assert as_pair(kernel) == sympy_kernel(rows, width)
    assert all(type(x) is F for v in kernel.basis for x in v)
    if rows:
        assert kernel_basis(RatMatrix(tuple(rows))) == kernel


@given(matrices())
@settings(max_examples=300, deadline=None)
def test_kernel_matches_sympy_nullspace(rows_width):
    assert_kernel_matches_sympy(*rows_width)


@given(matrices(), matrices())
@settings(max_examples=100, deadline=None)
def test_kernel_continues_an_earlier_elimination(first, second):
    """Passing the int rows of one ``_free_columns`` call to the next gives the
    kernel of both row sets."""
    rows, width = first
    more = [row[:width] + (F(0),) * (width - len(row)) for row in second[0]]
    ints = {}

    def kernel(sparse):
        return Subspace.of(width, _kernel_ints(_free_columns(sparse, width, ints)))

    sparse = [{j: x for j, x in enumerate(row) if x} for row in rows]
    assert as_pair(kernel(sparse)) == sympy_kernel(rows, width)
    sparse_more = [{j: x for j, x in enumerate(row) if x} for row in more]
    assert as_pair(kernel(sparse_more)) == sympy_kernel(rows + more, width)


def assert_int_kernel_is_the_kernel_on_coprime_ints(rows, width):
    """``_kernel_ints`` of the rows: a valid ``_echelon`` form (each row coprime,
    positive at its pivot, its lowest column, zero at every other pivot) whose
    rows divided by their pivot entries are sympy's kernel basis."""
    sparse = [{j: x for j, x in enumerate(row) if x} for row in rows]
    kernel = _kernel_ints(_free_columns(sparse, width, {}))
    for c, row in kernel.items():
        assert all(type(x) is int for x in row.values())
        assert gcd(*row.values()) == 1 and min(row) == c and row[c] > 0
        assert not any(p in row for p in kernel if p != c)
    basis = tuple(_dense(_normalised(kernel[c], c), width) for c in sorted(kernel))
    assert (basis, tuple(sorted(kernel))) == sympy_kernel(rows, width)


@given(matrices())
@settings(max_examples=300, deadline=None)
def test_int_kernel_matches_sympy_nullspace(rows_width):
    assert_int_kernel_is_the_kernel_on_coprime_ints(*rows_width)


def test_int_kernel_divides_each_row_by_its_content():
    """(2, 3, 2) pivots at column 2 with entry 2: the vector of free column 0
    is e_0 - e_2, twice that before the division, (2, 0, -2)."""
    rows = [vec([2, 3, 2])]
    assert_int_kernel_is_the_kernel_on_coprime_ints(rows, 3)
    assert _kernel_ints(_free_columns([{0: 2, 1: 3, 2: 2}], 3, {})) == {0: {0: 1, 2: -1},
                                                                        1: {1: 2, 2: -3}}


KERNEL_EDGES = {
    "width 0, no rows": ([], 0),
    "width 0, two rows": ([(), ()], 0),
    "no rows": ([], 3),
    "all-zero rows": ([vec([0, 0, 0, 0])] * 3, 4),
    "full column rank": ([vec([2, 1, 0]), vec([0, 1, 5]), vec([1, 0, 1])], 3),
    "full column rank, tall": ([vec([1, 0]), vec([1, 1]), vec([0, 3]), vec([1, 2])], 2),
}


@pytest.mark.parametrize("name", list(KERNEL_EDGES))
def test_kernel_matches_sympy_on_edge_cases(name):
    assert_kernel_matches_sympy(*KERNEL_EDGES[name])
    assert_int_kernel_is_the_kernel_on_coprime_ints(*KERNEL_EDGES[name])


def test_kernel_of_a_row_of_ones_is_read_off_in_echelon_form():
    # The row's pivot is its highest column, 2, so the free columns 0 and 1
    # give (1, 0, -1) and (0, 1, -1) with no second elimination.
    kernel = kernel_basis(RatMatrix.from_rows([[1, 1, 1]]))
    assert kernel.basis == (vec([1, 0, -1]), vec([0, 1, -1]))
    assert kernel.pivots == (0, 1)
    assert _kernel([], 0) == Subspace.zero(0)
    assert _kernel([], 3) == Subspace.full(3)


def test_kernel_eliminates_once(monkeypatch):
    calls = []
    real_echelon = linalg_module._echelon

    def counting_echelon(rows, ints):
        calls.append(1)
        return real_echelon(rows, ints)

    monkeypatch.setattr(linalg_module, "_echelon", counting_echelon)
    kernel = kernel_basis(RatMatrix.from_rows([[1, 2, 0, 1], [0, 0, 1, 3], [1, 2, 1, 4]]))
    assert len(calls) == 1
    assert kernel.dim == 2


def test_lie_and_extension_kernels_match_sympy_on_every_flat_catalog_sample():
    checked = 0
    for conn in flat_samples():
        algebra = conn.base
        n = algebra.dim
        c = brackets(algebra)
        assert as_pair(center(algebra)) == sympy_kernel(reference.center_rows(c), n)
        assert as_pair(derivation_space(algebra)) == sympy_kernel(reference.derivation_rows(c), n * n)
        ext = build_extension(ExtensionTriple.with_zero_cocycle(conn))
        omega = ext.omega.entries
        for j in (ext.lagrangian_ideal, Subspace.zero(ext.dim), Subspace.full(ext.dim)):
            rows = [tuple(sum((u[p] * omega[p][q] for p in range(ext.dim)), F(0))
                          for q in range(ext.dim)) for u in j.basis]
            assert as_pair(symplectic_orthogonal(ext, j)) == sympy_kernel(rows, ext.dim)
        checked += 1
    assert checked == 108


def test_symplectic_orthogonal_of_the_zero_dimensional_extension():
    conn = FlatConnection.from_entries(LieAlgebra.abelian(0), {})
    ext = build_extension(ExtensionTriple.with_zero_cocycle(conn))
    assert ext.dim == 0
    assert symplectic_orthogonal(ext, ext.lagrangian_ideal) == Subspace.zero(0)


# ---------------------------------------------------------------------------
# quotients read off W's echelon rows
# ---------------------------------------------------------------------------


def test_quotient_refuses_v_with_pivots_among_w_but_outside_w():
    """V's pivots {0} lie among W's {0, 1}, but e1 + e3 is not in W: only
    the exact check, not a comparison of pivot sets, can see it."""
    w = Subspace.from_vectors(3, [vec([1, 0, 0]), vec([0, 1, 0])])
    v = Subspace.from_vectors(3, [vec([1, 0, 1])])
    assert set(v.pivots) <= set(w.pivots)
    assert reference.quotient(w, v) is None
    with pytest.raises(ValueError, match="^V is not contained in W$"):
        quotient_rows(w, v)


@st.composite
def nested_subspaces(draw, max_width=8):
    """(W, V) with V <= W: V spanned by combinations of W's spanning vectors."""
    width = draw(st.integers(min_value=0, max_value=max_width))
    spanning = [tuple(draw(st.lists(entries, min_size=width, max_size=width)))
                for _ in range(draw(st.integers(min_value=0, max_value=5)))]
    inner = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        coeffs = draw(st.lists(entries, min_size=len(spanning), max_size=len(spanning)))
        inner.append(tuple(sum((c * s[k] for c, s in zip(coeffs, spanning)), F(0))
                           for k in range(width)))
    return Subspace.from_vectors(width, spanning), Subspace.from_vectors(width, inner)


@given(nested_subspaces())
@settings(max_examples=200, deadline=None)
def test_quotient_basis_matches_sympy(wv):
    w, v = wv
    reps = quotient_rows(w, v)
    assert reps == sympy_quotient(w, v) == reference.quotient(w, v)
    assert len(reps) == w.dim - v.dim
    assert Subspace.from_vectors(w.ambient_dim, v.basis + reps) == w


def test_h2_representatives_match_sympy_on_every_flat_catalog_sample():
    checked = 0
    for conn in flat_samples():
        rep = dual_representation(conn)
        summary = cohomology(rep)
        z2, z2l = cocycle_bases(rep)
        for reps, z, lagrangian in (
            (summary.h2_representatives, z2, False),
            (summary.h2_lagrangian_representatives, z2l, True),
        ):
            expected = sympy_quotient(z, coboundary_image(rep, lagrangian))
            assert tuple(r.values for r in reps) == expected
        checked += 1
    assert checked == 108


# ---------------------------------------------------------------------------
# edge cases of the whole path, and d1 over tables scaled by D > 1
# ---------------------------------------------------------------------------

E1, E2 = TwoCochain(2, (F(1), F(0))), TwoCochain(2, (F(0), F(1)))
ABELIAN_SUMMARIES = {
    0: summary(0, 0, 0, 0, 0, 0, 0, 0, 0, (), ()),
    1: summary(1, 1, 0, 0, 0, 0, 0, 0, 0, (), ()),
    2: summary(4, 3, 2, 0, 0, 2, 2, 2, 2, (E1, E2), (E1, E2)),
}


@pytest.mark.parametrize("n", sorted(ABELIAN_SUMMARIES))
def test_cohomology_of_small_abelian_algebras(n):
    """Width 0 (n < 2) and no triples (n < 3) give the summaries they always did."""
    rep = dual_representation(FlatConnection.from_entries(LieAlgebra.abelian(n), {}))
    assert summary_text(cohomology(rep)) == summary_text(ABELIAN_SUMMARIES[n])


def test_d1_evaluators_divide_the_scale_back_when_d_exceeds_one():
    """l_17 at t = 1/3 has D = 9: the values match the Fraction evaluators."""
    rep = dual_representation(connection_for("l_17", t=F(1, 3)))
    assert rep.integer_tables[0] == 9
    n = rep.dim
    c, rhos = brackets(rep.connection.base), rho(rep.connection)
    rng = rng_for(83, "d1-scale")
    for lagrangian in (False, True):
        assert typed(coboundary_image(rep, lagrangian)) == typed(reference.coboundaries(c, rhos, lagrangian))
    z2, z2l = cocycle_bases(rep)
    summary = cohomology(rep)
    solved = 0
    for sigma in seeded_one_cochains(n, rng) + [OneCochain.zero(n)]:
        image = coboundary_1(rep, sigma)
        assert typed(image.values) == typed(reference.d1(c, rhos, sigma.entries))
        for space in (z2l, z2):
            coeffs = tuple(random_rational(rng) for _ in range(space.dim))
            alpha = two_cochain_from_coefficients(space, coeffs, n)
            beta = alpha - image
            for flag in (False, True):
                sigma_found = solve_coboundary(rep, alpha, beta, flag)
                expected = reference.solve_coboundary(c, rhos, alpha.values, beta.values, flag)
                assert typed(None if sigma_found is None else sigma_found.entries) == typed(expected)
                solved += sigma_found is not None
    for r in summary.h2_representatives + summary.h2_lagrangian_representatives:
        assert solve_coboundary(rep, r, TwoCochain.zero(n)) is None
        assert reference.solve_coboundary(c, rhos, r.values, TwoCochain.zero(n).values, False) is None
    assert solved > 0
    # Pinned, as the Fraction evaluator gave it: d(E_01), nonzero coordinates.
    values = coboundary_1(rep, unit_cochain(n, 0, 1)).values
    assert {c: x for c, x in enumerate(values) if x} == {8: F(1, 3), 11: F(1, 9)}
