from fractions import Fraction as F
from itertools import combinations

import pytest
import sympy

import reference
from inputs import brackets, flat_samples, rho, truncated_polynomial_connection, unit_cochain
from lagext.catalog import connection_for
from lagext.cohomology import (
    OneCochain,
    TwoCochain,
    _coboundary_1_images,
    _one_cochain_rows,
    coboundary_1,
    coboundary_2,
    coboundary_image,
    cocycle_bases,
    cohomology,
    matrix_of_coboundary_2,
    solve_coboundary,
    two_cochain_from_coefficients,
)
from lagext.connection import FlatConnection, dual_representation
from lagext.extension import ExtensionTriple, build_extension, canonical_connection
from lagext.lie import LieAlgebra
from lagext.linalg import Subspace, _dense
from lagext.sampling import random_rational, rng_for


def zero_rep(n):
    return dual_representation(FlatConnection.zero(LieAlgebra.abelian(n)))


def random_one_cochain(rng, n, symmetric=False):
    rows = [[random_rational(rng) for _ in range(n)] for _ in range(n)]
    if symmetric:
        for i in range(n):
            for k in range(i):
                rows[i][k] = rows[k][i]
    return OneCochain.from_rows(rows)


def test_coboundary_1_vanishes_for_trivial_representation():
    rep = zero_rep(4)
    rng = rng_for(1, "c1-zero")
    for _ in range(5):
        assert coboundary_1(rep, random_one_cochain(rng, 4)).is_zero()


def test_coboundary_1_unit_e33_on_l26():
    rep = dual_representation(connection_for("l_26"))
    d = coboundary_1(rep, unit_cochain(4, 2, 2))
    assert d.tensor[0][1] == (0, 0, F(-1), 0)
    assert d.tensor[0][2] == (0, F(-1, 2), 0, 0)
    assert d.tensor[1][2] == (F(1, 2), 0, 0, 0)
    assert d.tensor[0][3] == (0, 0, 0, 0)
    assert d.tensor[1][3] == (0, 0, 0, 0)
    assert d.tensor[2][3] == (0, 0, 0, 0)


def test_coboundary_1_unit_e12_on_l26_vanishes():
    rep = dual_representation(connection_for("l_26"))
    assert coboundary_1(rep, unit_cochain(4, 0, 1)).is_zero()


def test_coboundary_2_trivial_representation():
    rep = zero_rep(4)
    rng = rng_for(2, "c2-zero")
    for _ in range(5):
        alpha = TwoCochain.from_pairs(
            4,
            {
                (i, j): tuple(random_rational(rng) for _ in range(4))
                for i in range(4)
                for j in range(i + 1, 4)
            },
        )
        assert coboundary_2(rep, alpha).is_zero()


def test_coboundary_2_kills_coboundaries():
    # d2 o d1 = 0 on random 1-cochains across several connections
    rng = rng_for(3, "complex")
    for label in ("l_26", "a_3", "t_8", "l_38"):
        rep = dual_representation(connection_for(label))
        for _ in range(5):
            sigma = random_one_cochain(rng, 4)
            assert coboundary_2(rep, coboundary_1(rep, sigma)).is_zero()


def test_coboundary_2_single_pair_example_on_l26():
    rep = dual_representation(connection_for("l_26"))
    alpha = TwoCochain.from_pairs(4, {(0, 1): (0, 0, 0, 1)})
    assert coboundary_2(rep, alpha).is_zero()


def test_symmetric_cochains_map_into_lagrangian_cochains():
    rng = rng_for(4, "lagrangian-image")
    for label in ("l_26", "t_8", "a_3"):
        rep = dual_representation(connection_for(label))
        for _ in range(8):
            sigma = random_one_cochain(rng, 4, symmetric=True)
            image = coboundary_1(rep, sigma)
            assert image.is_lagrangian


@pytest.mark.parametrize(
    "n,z2_expected,z2l_expected",
    [(2, 2, 2), (3, 9, 8), (4, 24, 20)],
)
def test_zero_connection_cocycle_dims(n, z2_expected, z2l_expected):
    z2, z2l = cocycle_bases(zero_rep(n))
    assert z2.dim == z2_expected == n * n * (n - 1) // 2
    assert z2l.dim == z2l_expected == n * n * (n - 1) // 2 - (n * (n - 1) * (n - 2)) // 6


def test_zero_connection_cohomology_summary():
    s = cohomology(zero_rep(4))
    assert (s.dim_h2, s.dim_h2_lagrangian) == (24, 20)
    assert s.dim_b2 == s.dim_b2_lagrangian == 0
    assert s.dim_c1 == 16 and s.dim_c1_lagrangian == 10


# Golden values established by the independent rank oracle below on first
# verified run; frozen here.
L26_DIMS = dict(z2=18, z2l=14, b2=5, b2l=4, h2=13, h2l=10, natural=10)


def test_l26_cohomology_golden_values():
    s = cohomology(dual_representation(connection_for("l_26")))
    assert s.dim_z2 == L26_DIMS["z2"]
    assert s.dim_z2_lagrangian == L26_DIMS["z2l"]
    assert s.dim_b2 == L26_DIMS["b2"]
    assert s.dim_b2_lagrangian == L26_DIMS["b2l"]
    assert s.dim_h2 == L26_DIMS["h2"]
    assert s.dim_h2_lagrangian == L26_DIMS["h2l"]
    assert s.natural_map_rank == L26_DIMS["natural"]
    # internal consistency
    assert s.dim_h2 == s.dim_z2 - s.dim_b2
    assert s.dim_h2_lagrangian == s.dim_z2_lagrangian - s.dim_b2_lagrangian
    assert len(s.h2_representatives) == s.dim_h2
    assert all(r.is_lagrangian for r in s.h2_lagrangian_representatives)


def independent_coboundary_matrices(conn):
    """d1, d2 and the cyclic-sum rows as sympy matrices, from gamma and the bracket alone.

    rho(e_x) = -transpose(nabla_{e_x}), so rho(e_x)[t][s] = -gamma[x][t][s], and

        (d sigma)(x, y) = rho(x) sigma(y) - rho(y) sigma(x) - sigma([x, y]),
        (d a)(x, y, z) = sum_cyc rho(x) a(y, z) + a(x, [y, z]),

    in the coordinates a(e_i, e_j)_k, i < j, and sigma(e_a)_b.
    """
    n = conn.dim
    gamma, c = conn.gamma, conn.base.bracket
    pairs = list(combinations(range(n), 2))
    triples = list(combinations(range(n), 3))

    def coord(i, j, k):  # column of a(e_i, e_j)_k and its sign
        if i < j:
            return pairs.index((i, j)) * n + k, 1
        return pairs.index((j, i)) * n + k, -1

    def rational(x):
        return sympy.Rational(x.numerator, x.denominator)

    d1 = sympy.zeros(len(pairs) * n, n * n)
    for p, (x, y) in enumerate(pairs):
        for t in range(n):
            row = p * n + t
            for s in range(n):
                d1[row, y * n + s] += rational(-gamma[x][t][s])
                d1[row, x * n + s] -= rational(-gamma[y][t][s])
            for m in range(n):
                d1[row, m * n + t] -= rational(c[x][y][m])

    d2 = sympy.zeros(len(triples) * n, len(pairs) * n)
    cyclic = sympy.zeros(len(triples), len(pairs) * n)
    for r, (i, j, k) in enumerate(triples):
        for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
            for t in range(n):
                for s in range(n):
                    col, sign = coord(y, z, s)
                    d2[r * n + t, col] += sign * rational(-gamma[x][t][s])
                for m in range(n):
                    if m != x:
                        col, sign = coord(x, m, t)
                        d2[r * n + t, col] += sign * rational(c[y][z][m])
            col, sign = coord(x, y, z)
            cyclic[r, col] += sign
    return d1, d2, cyclic


@pytest.mark.parametrize("label", ["l_26", "l_38", "t_8", "a_3"])
def test_dims_against_independent_sympy_ranks(label):
    conn = connection_for(label)
    s = cohomology(dual_representation(conn))
    d1, d2, cyc = independent_coboundary_matrices(conn)
    assert s.dim_z2 == 24 - d2.rank()
    assert s.dim_z2_lagrangian == 24 - d2.col_join(cyc).rank()
    assert s.dim_b2 == d1.rank()


def test_cocycle_space_members_are_cocycles():
    rep = dual_representation(connection_for("t_8"))
    z2, z2l = cocycle_bases(rep)
    for v in z2.basis:
        assert coboundary_2(rep, TwoCochain.unflatten(4, v)).is_zero()
    for v in z2l.basis:
        alpha = TwoCochain.unflatten(4, v)
        assert coboundary_2(rep, alpha).is_zero()
        assert alpha.is_lagrangian


def test_solve_coboundary_identity_case():
    rep = dual_representation(connection_for("l_26"))
    alpha = TwoCochain.from_pairs(4, {(0, 1): (0, 0, 0, 1)})
    sigma = solve_coboundary(rep, alpha, alpha)
    assert sigma is not None
    assert coboundary_1(rep, sigma).is_zero()


def test_solve_coboundary_recovers_constructed_shift():
    rng = rng_for(6, "solve")
    for label in ("l_26", "t_8"):
        rep = dual_representation(connection_for(label))
        for _ in range(5):
            sigma0 = random_one_cochain(rng, 4)
            alpha = TwoCochain.zero(4)
            beta = alpha - coboundary_1(rep, sigma0)
            sigma = solve_coboundary(rep, alpha, beta)
            assert sigma is not None
            assert coboundary_1(rep, sigma).tensor == coboundary_1(rep, sigma0).tensor


def test_solve_coboundary_lagrangian_flag_returns_symmetric():
    rng = rng_for(7, "solve-lagrangian")
    rep = dual_representation(connection_for("l_26"))
    sigma0 = random_one_cochain(rng, 4, symmetric=True)
    alpha = TwoCochain.zero(4)
    beta = alpha - coboundary_1(rep, sigma0)
    sigma = solve_coboundary(rep, alpha, beta, lagrangian_only=True)
    assert sigma is not None
    assert sigma.is_symmetric
    assert coboundary_1(rep, sigma).tensor == coboundary_1(rep, sigma0).tensor


def test_solve_coboundary_none_when_not_cohomologous():
    rep = zero_rep(4)  # coboundary map vanishes, distinct cocycles never related
    alpha = TwoCochain.from_pairs(4, {(0, 1): (1, 0, 0, 0)})
    beta = TwoCochain.zero(4)
    assert solve_coboundary(rep, alpha, beta) is None


def test_quotient_representatives_of_l26_lagrangian_cohomology():
    # representatives joined with the coboundary image must span Z2_L
    rep = dual_representation(connection_for("l_26"))
    _, z2l = cocycle_bases(rep)
    b2l = coboundary_image(rep, lagrangian=True)
    s = cohomology(rep)
    reps = [c.flatten() for c in s.h2_lagrangian_representatives]
    joined = Subspace.from_vectors(z2l.ambient_dim, reps + list(b2l.basis))
    assert joined.dim == z2l.dim


@pytest.mark.parametrize("length", [0, 23, 25])
def test_unflatten_rejects_a_vector_of_the_wrong_length(length):
    with pytest.raises(ValueError, match="^vector length does not match the 2-cochain coordinates$"):
        TwoCochain.unflatten(4, (F(1),) * length)


def test_two_cochain_from_coefficients_roundtrip():
    rep = dual_representation(connection_for("l_26"))
    z2, _ = cocycle_bases(rep)
    rng = rng_for(8, "combo")
    coeffs = tuple(random_rational(rng) for _ in range(z2.dim))
    alpha = two_cochain_from_coefficients(z2, coeffs, 4)
    assert coboundary_2(rep, alpha).is_zero()


def canonical_rep(label):
    """Dual representation of the canonical connection of the zero-cocycle extension."""
    ext = build_extension(ExtensionTriple.with_zero_cocycle(connection_for(label)))
    return dual_representation(canonical_connection(ext))


def unit_columns_d2(rep):
    """d2 column by column: the reference's d2 of every unit 2-cochain, in flattened order."""
    c, rhos = brackets(rep.connection.base), rho(rep.connection)
    width = reference.cochain_width(rep.dim)
    return tuple(zip(*(sum(reference.d2(c, rhos, reference.unit(width, q)), ()) for q in range(width))))


def assert_assembly_matches_cochain_maps(rep):
    """The sparse rows of d1 and d2, densified, against the reference's evaluators."""
    assert matrix_of_coboundary_2(rep).entries == unit_columns_d2(rep)
    c, rhos = brackets(rep.connection.base), rho(rep.connection)
    for lagrangian in (False, True):
        images = [reference.d1(c, rhos, s) for s in reference.one_cochain_basis(rep.dim, lagrangian)]
        # The rows are read off the tables scaled by D, so they are D times the images.
        d = rep.integer_tables[0]
        rows = _coboundary_1_images(rep, _one_cochain_rows(rep.dim, lagrangian))
        assert [_dense({j: x / d for j, x in row.items()}, len(images[0])) for row in rows] == images
        assert coboundary_image(rep, lagrangian) == Subspace.from_vectors(len(images[0]), images)


def test_assembled_coboundaries_match_cochain_maps_on_catalog_rows():
    conns = list(flat_samples(1))
    assert len(conns) == 64
    for conn in conns:
        assert_assembly_matches_cochain_maps(dual_representation(conn))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_assembled_coboundaries_match_cochain_maps_on_truncated_polynomials(n):
    lambdas = [F(-2, 3), F(3), F(1, 2), F(-1), F(5, 2), F(2, 3)][:n]
    assert_assembly_matches_cochain_maps(
        dual_representation(truncated_polynomial_connection(lambdas))
    )


def test_assembled_coboundaries_match_cochain_maps_in_dimension_eight():
    assert_assembly_matches_cochain_maps(canonical_rep("t_8"))


@pytest.mark.parametrize(
    "label,dims",
    [("l_26", (123, 82, 30, 93, 65)), ("t_8", (88, 56, 42, 46, 28))],
)
def test_eight_dimensional_canonical_connection_cohomology(label, dims):
    s = cohomology(canonical_rep(label))
    assert (s.dim_z2, s.dim_z2_lagrangian, s.dim_b2, s.dim_h2, s.dim_h2_lagrangian) == dims
