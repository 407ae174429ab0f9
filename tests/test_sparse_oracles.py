"""The Lie, connection, cochain and symplectic layers against ``reference``.

Every comparison here runs lagext's int kernels and the Fraction reference
of tests/reference.py on the same inputs: each flat ``--samples 3`` catalog
sample, the zero class and seeded Z2_L and Z2 classes of their extensions,
the canonical connections of those extensions (the 8-dim ones of ``l_26``
and ``t_8`` among them), connections moved off them by one cell, the low
dimensions n = 0..3, and hypothesis-drawn sparse tables.  Values are compared
with their types (``inputs.typed``), so a 0 that is not a Fraction fails;
a refusal is compared by its exception type and its message, written out.
"""

import importlib
from collections import Counter
from dataclasses import replace
from fractions import Fraction as F
from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings, strategies as st

import reference
from inputs import (
    brackets,
    expected_cohomology,
    flat_row_extensions,
    flat_samples,
    form,
    gamma,
    outcome,
    perturbed,
    random_cocycle,
    random_lagrangian_cocycle,
    rho,
    seeded_directions,
    seeded_one_cochains,
    seeded_unitriangular,
    spanned,
    sparse_vector,
    summary_text,
    typed,
    vector_text,
)
from lagext import specfile
from lagext.catalog import base_algebra, connection_for, instantiate, sample_parameters, table1_entries
from lagext.cohomology import (
    TwoCochain,
    _one_cochain_rows,
    coboundary_1,
    coboundary_2,
    coboundary_image,
    cocycle_bases,
    cohomology,
    pair_list,
    solve_coboundary,
    two_cochain_from_coefficients,
)
from lagext.connection import (
    FlatConnection,
    _completeness,
    _dual,
    _uniform_nilindex,
    check_flat_torsion_free,
    dual_representation,
    induced_bracket,
    is_geodesically_complete,
)
from lagext.extension import (
    CocycleError,
    ExtensionTriple,
    IdealVerdict,
    SymplecticForm,
    SymplecticLieAlgebra,
    _omega_solve,
    adjusted_symplectic_form,
    build_extension,
    canonical_connection,
    classify_and_reduce,
    d_omega,
    dual_subspace,
    equivalence_map_psi,
    induced_flat_connection,
    is_lagrangian_ideal,
    standard_form,
    symplectic_orthogonal,
)
from lagext.lie import (
    LieAlgebra,
    bracket_of_subspaces,
    center,
    check_jacobi,
    derivation_space,
    descending_flag,
    lower_central_series,
    quotient_algebra,
    require_jacobi,
    transform,
)
from lagext.linalg import RatMatrix, Subspace, _dense, _echelon, _sparse, unit_vector, vec_sub
from lagext.sampling import random_rational, rng_for

linalg_module = importlib.import_module("lagext.linalg")


# ---------------------------------------------------------------------------
# the connection layer
# ---------------------------------------------------------------------------


def assert_connection_layer_matches_reference(conn):
    """The sweep (witness lines included), the dual's law check and the
    completeness evidence, any connection."""
    c, g = brackets(conn.base), gamma(conn)
    report = assert_sweep_matches_reference(conn)
    evidence = _completeness(conn)
    complete, traces, nilindex, right_nilpotent = reference.completeness(g)
    assert (evidence.complete, typed(evidence.traces)) == (complete, typed(traces))
    assert (evidence.nabla_nilindex, evidence.right_mult_nilpotent) == (nilindex, right_nilpotent)
    rhos = reference.rho(g)
    if reference.representation_law(c, rhos):
        d, entries, _ = _dual(conn).integer_tables
        assert typed(tuple(tuple((r, s, F(x, d)) for r, s, x in m) for m in entries)) == typed(tuple(
            tuple((r, s, x) for r, row in enumerate(m) for s, x in enumerate(row) if x) for m in rhos
        ))
    else:
        with pytest.raises(RuntimeError, match="^dual representation law failed despite flatness$"):
            _dual(conn)
    return report


def test_connection_layer_matches_dense_code_on_every_catalog_sample():
    """The sweep, with the witnesses of the defective rows byte for byte, the
    completeness evidence and the dual's law check.  Jacobi and Z2, Z2_L of
    the same samples are checked by
    ``test_integer_kernels_match_the_fraction_kernels_on_every_catalog_sample``."""
    first_torsion = {}
    checked = ok = 0
    for entry in table1_entries():
        for sample in sample_parameters(entry, 3):
            conn = instantiate(entry, sample)
            if not isinstance(conn, FlatConnection):
                continue
            report = assert_connection_layer_matches_reference(conn)
            checked += 1
            ok += report.ok
            if report.torsion:
                first_torsion.setdefault(entry.label, []).append(sweep_lines(
                    (report.torsion, report.curvature, report.associator))[0])
    assert (checked, ok) == (113, 108)
    assert first_torsion == {
        "t_6": ["T(e2,e4) = (0, 0, -1/6, 0)"],
        "t_7": ["T(e2,e4) = (0, 0, -1/6, 0)"],
        "t_20": ["T(e2,e3) = (0, 0, -1, 0)", "T(e2,e3) = (0, 0, -2, 0)", "T(e2,e3) = (0, 0, -1/3, 0)"],
    }


def test_connection_layer_matches_dense_code_on_canonical_and_induced_connections():
    extensions = 0
    for ext in flat_row_extensions():
        canonical = canonical_connection(ext)
        assert canonical.dim == 8
        assert assert_connection_layer_matches_reference(canonical).ok
        induced = induced_flat_connection(ext, ext.lagrangian_ideal)
        assert assert_connection_layer_matches_reference(induced).ok
        extensions += 1
    assert extensions == 64


def test_connection_layer_matches_dense_code_on_single_cell_perturbations():
    rng = rng_for(53, "sparse-oracles-perturbations")
    # Zero connections on the catalog bases give torsion whose bracket terms
    # meet planes that neither nabla_{e_i} nor nabla_{e_j} reaches.
    bases = [FlatConnection.zero(base_algebra(code)) for code in "alt"] * 4
    bases += flat_samples()
    bases += [canonical_connection(ext) for ext in list(flat_row_extensions())[::8]]
    seen = {"torsion": 0, "curvature": 0, "associator": 0, "curvature only": 0}
    for conn in bases:
        for _ in range(2):
            report = assert_connection_layer_matches_reference(perturbed(conn, rng))
            seen["torsion"] += bool(report.torsion)
            seen["curvature"] += bool(report.curvature)
            seen["associator"] += bool(report.associator)
            seen["curvature only"] += bool(report.curvature and not report.torsion)
    assert all(seen.values()), seen


def test_sweep_matches_the_reference_on_canonical_connections_of_nonzero_classes():
    """The sweep builds its commutators from the table of operator products;
    here on the 8-dim canonical connections of extensions by seeded nonzero
    classes of H2_L, whose gamma tables are not those of a zero extension.
    Each class is a combination of the H2_L representatives with nonzero
    seeded coefficients: they are independent modulo B2_L."""
    rng = rng_for(59, "sweep-nonzero-classes")
    checked = 0
    for conn in list(flat_samples(1))[::4]:
        representatives = cohomology(conn.dual).h2_lagrangian_representatives
        if not representatives:
            continue
        coefficients = [F(rng.choice((-2, -1, 1, 2)), rng.choice((1, 2, 3))) for _ in representatives]
        values = tuple(
            sum((c * r.values[t] for c, r in zip(coefficients, representatives)), F(0))
            for t in range(len(representatives[0].values))
        )
        ext = build_extension(ExtensionTriple(conn, TwoCochain(conn.dim, values)))
        canonical = canonical_connection(ext)
        assert canonical.dim == 8
        assert assert_sweep_matches_reference(canonical).ok
        checked += 1
    assert checked == 16


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_sweep_matches_the_reference_on_tables_neither_flat_nor_torsion_free(data):
    """Drawn sparse bracket and gamma tables, kept when the reference finds
    both torsion and curvature: every witness, in its (i, j, s) order."""
    n = data.draw(st.integers(min_value=3, max_value=6))
    vector = sparse_vector(n, sparse_entries)
    pairs = {(i, j): data.draw(vector) for i, j in combinations(range(n), 2)}
    base = LieAlgebra.from_brackets(n, pairs, "drawn")
    cells = {(i, j): data.draw(vector) for i in range(n) for j in range(n)}
    conn = FlatConnection.from_entries(base, cells, label="drawn")
    c, g = brackets(base), gamma(conn)
    assume(reference.torsion(c, g) and reference.curvature(c, g))
    report = assert_sweep_matches_reference(conn)
    assert not (report.torsion_free or report.flat)


def test_engel_flag_evidence_matches_frozen_seeded_evidence():
    """The Engel flag against the definitions, and against nabla_x at the
    eight seeded directions the sampled evidence once read."""
    checked = 0
    for conn in flat_samples():
        n = conn.dim
        g = gamma(conn)
        evidence = is_geodesically_complete(conn)
        complete, traces, nilindex, right_nilpotent = reference.completeness(g)
        all_nilpotent = nilindex is not None and all(right_nilpotent)
        directions = seeded_directions("flat-conn-directions", conn.label or "conn", n, 8)
        sampled = (
            all(reference.nilindex([reference.nabla(g, e)], n) is not None for e in reference.units(n))
            and all(right_nilpotent)
            and all(reference.nilindex([reference.nabla(g, x)], n) is not None for x in directions)
        )
        assert (evidence.complete, evidence.traces, evidence.right_mult_nilpotent) == (
            complete, traces, right_nilpotent
        )
        assert evidence.all_nilpotent == all_nilpotent == sampled
        # rho = -nabla^T has the same uniform index as nabla.
        assert evidence.nabla_nilindex == reference.nilindex(reference.rho(g), n)
        checked += 1
    assert checked == 108


# ---------------------------------------------------------------------------
# the Lie layer and the omega solves
# ---------------------------------------------------------------------------


def assert_lie_layer_matches_reference(algebra, vectors, subspaces):
    n = algebra.dim
    c = brackets(algebra)
    units = [unit_vector(n, i) for i in range(n)]
    for x in units + vectors:
        for y in units + vectors:
            assert typed(_dense(algebra.bracket_rows(_sparse(x), _sparse(y)), n)) == typed(
                reference.bilinear(c, x, y)
            )
    jacobi = tuple((v.triple, v.residual) for v in check_jacobi(algebra))
    assert typed(jacobi) == typed(reference.jacobi(c))
    series = lower_central_series(algebra)
    assert typed(series) == typed(reference.lower_central_series(c))
    for sub in list(subspaces) + list(series):
        assert algebra.is_ideal(sub) == reference.is_ideal(c, spanned(sub))


def assert_kernels_match_reference(algebra):
    """The center, the derivations and the lower central series: basis, pivots and types."""
    c = brackets(algebra)
    assert typed(center(algebra)) == typed(reference.center(c))
    assert typed(derivation_space(algebra)) == typed(reference.derivations(c))
    assert typed(lower_central_series(algebra)) == typed(reference.lower_central_series(c))


def assert_extension_matches_reference(ext, rng):
    n = ext.dim
    vectors = [tuple(random_rational(rng) for _ in range(n)) for _ in range(2)]
    j = ext.lagrangian_ideal
    assert_lie_layer_matches_reference(ext.algebra, vectors, [j, symplectic_orthogonal(ext, j)])
    c, omega = brackets(ext.algebra), form(ext)
    assert typed(d_omega(ext).residuals) == typed(reference.d_omega(c, omega))
    assert typed(induced_flat_connection(ext, j).gamma) == typed(
        reference.induced_gamma(c, omega, spanned(j))
    )


def canonical_gamma(ext):
    return reference.canonical_gamma(brackets(ext.algebra), form(ext))


# Mostly zeros: seven entries in eight are zero.
NONZERO_ENTRIES = [F(p, q) for p in range(-3, 4) if p for q in (1, 2, 3)]
sparse_entries = st.sampled_from([F(0)] * (7 * len(NONZERO_ENTRIES)) + NONZERO_ENTRIES)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_lie_layer_matches_dense_code_on_sparse_tensors(data):
    n = data.draw(st.integers(min_value=1, max_value=8))
    entries = {
        (i, j): data.draw(sparse_vector(n, sparse_entries)) for i, j in combinations(range(n), 2)
    }
    algebra = LieAlgebra.from_brackets(n, entries, "sparse")
    vectors = data.draw(st.lists(sparse_vector(n, sparse_entries), min_size=1, max_size=3))
    coordinates = data.draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
    subspaces = [
        Subspace.from_vectors(n, vectors),
        Subspace.from_vectors(n, [unit_vector(n, k) for k in sorted(coordinates)]),
    ]
    assert_lie_layer_matches_reference(algebra, vectors, subspaces)
    assert_kernels_match_reference(algebra)


def test_every_flat_catalog_extension_matches_dense_code():
    rng = rng_for(41, "sparse-oracles")
    checked = 0
    for conn in flat_samples():
        ext = build_extension(ExtensionTriple.with_zero_cocycle(conn))
        assert_extension_matches_reference(ext, rng)
        assert typed(quotient_algebra(ext.algebra, ext.lagrangian_ideal).bracket) == typed(
            conn.base.bracket
        )
        checked += 1
    assert checked == 108


def test_seeded_cocycle_extensions_match_dense_code():
    rng = rng_for(43, "sparse-oracles-cocycles")
    for label in ("l_26", "a_3", "t_8", "t_18", "a_10", "l_38"):
        conn = connection_for(label)
        z2, z2l = cocycle_bases(dual_representation(conn))
        for basis in (z2l, z2):
            coeffs = tuple(random_rational(rng) for _ in range(basis.dim))
            alpha = two_cochain_from_coefficients(basis, coeffs, conn.dim)
            ext = build_extension(ExtensionTriple(conn, alpha), name=f"{label}_ext")
            assert_extension_matches_reference(ext, rng)
            if basis is z2l:  # a Lagrangian cocycle keeps omega closed
                assert typed(canonical_connection(ext).gamma) == typed(canonical_gamma(ext))


def test_eight_dimensional_canonical_connections_match_dense_code():
    rng = rng_for(47, "sparse-oracles-canonical")
    for label in ("l_26", "t_8"):
        ext = build_extension(ExtensionTriple.with_zero_cocycle(connection_for(label)))
        canonical = canonical_connection(ext)
        assert typed(canonical.gamma) == typed(canonical_gamma(ext))
        algebra = canonical.base
        vectors = [tuple(random_rational(rng) for _ in range(8)) for _ in range(2)]
        assert_lie_layer_matches_reference(algebra, vectors, [ext.lagrangian_ideal])


def test_lagrangian_ideal_verdict_is_kept_and_matches_a_fresh_classification():
    ext = build_extension(ExtensionTriple.with_zero_cocycle(connection_for("l_26")))
    verdict = is_lagrangian_ideal(ext, ext.lagrangian_ideal)
    assert verdict is is_lagrangian_ideal(ext, ext.lagrangian_ideal)
    # An equal subspace built afresh gets the kept verdict; another subspace
    # is classified on its own.
    same = Subspace.from_vectors(8, [unit_vector(8, 4 + i) for i in range(4)])
    assert is_lagrangian_ideal(ext, same) is verdict
    other = Subspace.from_vectors(8, [unit_vector(8, 0)])
    assert is_lagrangian_ideal(ext, other).status == "not_ideal"


def test_induced_connection_rejects_a_degenerate_pairing():
    # With omega = 0 every half-dimensional subspace of an abelian algebra is
    # a Lagrangian ideal by the dimension count, and the pairing is singular.
    s = SymplecticLieAlgebra(
        LieAlgebra.abelian(2), SymplecticForm(2, (F(0),)), Subspace.from_vectors(2, [unit_vector(2, 1)])
    )
    with pytest.raises(ValueError, match="^pairing between quotient and ideal is degenerate$"):
        induced_flat_connection(s, s.lagrangian_ideal)


def test_lower_central_series_is_kept_per_algebra():
    triple = ExtensionTriple.with_zero_cocycle(connection_for("t_8"))
    algebra = build_extension(triple).algebra
    assert algebra.integer_central_series is algebra.integer_central_series
    named = build_extension(triple, name="named")
    assert named.algebra is algebra
    assert named.algebra.integer_central_series is algebra.integer_central_series


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_vec_sub_matches_entrywise_arithmetic(data):
    n = data.draw(st.integers(min_value=0, max_value=8))
    a, b = (data.draw(sparse_vector(n, sparse_entries)) for _ in range(2))
    assert typed(vec_sub(a, b)) == typed(tuple(x - y for x, y in zip(a, b)))


# ---------------------------------------------------------------------------
# the differentials and the 2-cochain
# ---------------------------------------------------------------------------


def seeded_two_cochains(conn, z2, z2l, rng):
    """Seeded cochains in Z2_L, in Z2, off Z2 along one coordinate, and dense
    random ones, each paired with its coordinates as the reference makes them
    from the same input."""
    n = conn.dim
    twins = []
    for space in (z2l, z2l, z2):
        coeffs = tuple(random_rational(rng) for _ in range(space.dim))
        alpha = two_cochain_from_coefficients(space, coeffs, n)
        twins.append((alpha, reference.combination(coeffs, space.basis, space.ambient_dim)))
    width = len(pair_list(n)) * n
    for alpha, _ in twins[:2]:
        bump = [F(0)] * width
        bump[rng.randrange(width)] = F(rng.choice((-2, -1, 1, 3)), rng.choice((1, 2, 5)))
        moved = tuple(a + b for a, b in zip(alpha.flatten(), bump))
        twins.append((TwoCochain.unflatten(n, moved), moved))
    pairs = {pair: tuple(random_rational(rng) for _ in range(n)) for pair in pair_list(n)}
    twins.append((TwoCochain.from_pairs(n, pairs), reference.cochain_from_pairs(n, pairs)))
    return twins


def assert_differentials_match_reference(conn, rng):
    """coboundary_1, coboundary_2, CocycleError and the extension against the reference.

    Returns how many of the seeded cochains were closed, not closed, Lagrangian and not.
    """
    n = conn.dim
    rep = dual_representation(conn)
    c, rhos = brackets(conn.base), rho(conn)
    z2, z2l = cocycle_bases(rep)
    for sigma in seeded_one_cochains(n, rng):
        d1, values = coboundary_1(rep, sigma), reference.d1(c, rhos, sigma.entries)
        assert typed(d1.values) == typed(values)
        assert typed(d1.tensor) == typed(reference.cochain_tensor(n, values))
    buildable = check_flat_torsion_free(conn).ok
    seen = Counter()
    for alpha, values in seeded_two_cochains(conn, z2, z2l, rng):
        residual, expected = coboundary_2(rep, alpha), reference.d2(c, rhos, values)
        assert typed(residual.values) == typed(expected)
        closed = not any(map(any, expected))
        seen["closed" if closed else "not closed"] += 1
        seen["Lagrangian" if alpha.is_lagrangian else "not Lagrangian"] += 1
        if buildable and not closed:
            with pytest.raises(CocycleError) as excinfo:
                build_extension(ExtensionTriple(conn, alpha))
            witnesses = tuple(
                ((i + 1, j + 1, k + 1), v)
                for (i, j, k), v in zip(combinations(range(n), 3), expected) if any(v)
            )
            assert typed(excinfo.value.witnesses) == typed(witnesses)
    if buildable:
        for v in [(F(0),) * z2l.ambient_dim] + list(z2l.basis):
            alpha = TwoCochain.unflatten(n, v)
            assert typed(alpha.tensor) == typed(reference.cochain_tensor(n, v))
            triple = ExtensionTriple(conn, alpha)
            assert typed(build_extension(triple).algebra.bracket) == typed(
                reference.extension_tensor(c, rhos, v)
            )
    return seen


def test_differentials_match_frozen_dense_code_on_every_catalog_sample():
    rng = rng_for(59, "sparse-oracles-differentials")
    flat = 0
    seen = Counter()
    for entry in table1_entries():
        for sample in sample_parameters(entry, 3):
            conn = instantiate(entry, sample)
            if isinstance(conn, FlatConnection) and check_flat_torsion_free(conn).flat:
                seen += assert_differentials_match_reference(conn, rng)
                flat += 1
    assert flat == 108
    assert len(seen) == 4, seen


@pytest.mark.parametrize("label", ["l_26", "t_8"])
def test_differentials_match_frozen_dense_code_on_eight_dimensional_canonical_connections(label):
    ext = build_extension(ExtensionTriple.with_zero_cocycle(connection_for(label)))
    seen = assert_differentials_match_reference(canonical_connection(ext), rng_for(61, label))
    assert len(seen) == 4, seen


@pytest.mark.parametrize("n", range(4))
def test_kernels_match_frozen_code_on_abelian_algebras(n):
    algebra = LieAlgebra.abelian(n)
    assert_kernels_match_reference(algebra)
    assert derivation_space(algebra).dim == n * n and center(algebra).dim == n


def assert_psi_matches_reference(triple, sigma):
    """psi against the reference matrix, which preserves the brackets of the
    two extensions and, for symmetric sigma, pulls omega back to itself."""
    rep = dual_representation(triple.connection)
    moved = ExtensionTriple(triple.connection, triple.cocycle - coboundary_1(rep, sigma))
    psi = equivalence_map_psi(triple, moved, sigma)
    expected = reference.psi_matrix(sigma.entries)
    assert typed(psi) == typed(expected)
    c1, c2 = brackets(build_extension(triple).algebra), brackets(build_extension(moved).algebra)
    assert reference.preserves_brackets(c1, c2, expected) is None
    if sigma.is_symmetric:
        omega = reference.standard_omega(triple.connection.dim)
        assert reference.pullback(omega, reference.transpose(expected)) == omega


def test_nonzero_table_readers_match_frozen_code_on_every_flat_row():
    """Bases and extensions of every flat row at two samples, for the zero class
    and one seeded Z2_L class: kernels, both connections, and psi for a
    symmetric and a non-symmetric sigma."""
    rng = rng_for(67, "sparse-oracles-nonzero-table")
    checked = Counter()
    for conn in flat_samples(2):
        assert_kernels_match_reference(conn.base)
        n = conn.dim
        seeded = random_lagrangian_cocycle(conn, rng)
        for alpha in (TwoCochain.zero(n), seeded):
            triple = ExtensionTriple(conn, alpha)
            ext = build_extension(triple)
            assert_kernels_match_reference(ext.algebra)
            assert typed(canonical_connection(ext).gamma) == typed(canonical_gamma(ext))
            j = ext.lagrangian_ideal
            assert typed(induced_flat_connection(ext, j).gamma) == typed(
                reference.induced_gamma(brackets(ext.algebra), form(ext), spanned(j))
            )
            checked["extensions"] += 1
            checked["nonzero classes"] += not alpha.is_zero()
        sigma, symmetric, _ = seeded_one_cochains(n, rng)
        assert not sigma.is_symmetric and symmetric.is_symmetric
        for s in (sigma, symmetric):
            assert_psi_matches_reference(ExtensionTriple(conn, seeded), s)
        checked["rows"] += 1
    assert checked == {"rows": 86, "extensions": 172, "nonzero classes": 86}


def assert_two_cochains_match_reference(twins):
    """Each TwoCochain against the reference's decoding of its coordinates:
    the tensor, the coordinates, the predicates, differences and
    equality, with Fraction types."""
    for alpha, values in twins:
        n = alpha.dim
        tensor = reference.cochain_tensor(n, values)
        assert typed(alpha.tensor) == typed(tensor)
        assert typed(alpha.flatten()) == typed(reference.cochain_values(n, tensor))
        assert (alpha.is_lagrangian, alpha.is_zero()) == (
            not any(reference.cyclic_sums(n, values)), not any(values)
        )
    # Each cochain against itself and its neighbour in the list.
    for (a, va), (b, vb) in zip(twins, twins[1:] + twins[:1]):
        for (x, vx), (y, vy) in (((a, va), (a, va)), ((a, va), (b, vb))):
            assert (x == y) == (x.dim == y.dim and tuple(vx) == tuple(vy))
            difference = tuple(p - q for p, q in zip(vx, vy))
            tensor = reference.cochain_tensor(x.dim, difference)
            assert typed((x - y).tensor) == typed(tensor)
            assert typed((x - y).flatten()) == typed(reference.cochain_values(x.dim, tensor))


def test_two_cochain_matches_frozen_dense_class_on_every_catalog_sample():
    rng = rng_for(71, "sparse-oracles-two-cochains")
    seen = Counter()
    for conn in flat_samples():
        z2, z2l = cocycle_bases(dual_representation(conn))
        twins = seeded_two_cochains(conn, z2, z2l, rng)
        assert_two_cochains_match_reference(twins)
        seen.update("Lagrangian" if a.is_lagrangian else "not Lagrangian" for a, _ in twins)
        seen["samples"] += 1
    assert seen["samples"] == 108 and seen["Lagrangian"] and seen["not Lagrangian"]


@pytest.mark.parametrize("n", range(4))
def test_two_cochain_matches_frozen_dense_class_in_low_dimension(n):
    """Zero cochains, and for n >= 2 seeded ones from Fractions and from ints;
    n < 3 has no triples."""
    rng = rng_for(73, f"two-cochains-{n}")
    zeros = [F(0)] * (len(pair_list(n)) * n)
    twins = [
        (TwoCochain.zero(n), zeros),
        (TwoCochain.from_pairs(n, {}), reference.cochain_from_pairs(n, {})),
        (TwoCochain.unflatten(n, zeros), zeros),
    ]
    if n >= 2:
        pairs = {pair: tuple(random_rational(rng) for _ in range(n)) for pair in pair_list(n)}
        twins.append((TwoCochain.from_pairs(n, pairs), reference.cochain_from_pairs(n, pairs)))
        ints = [rng.randint(-2, 2) for _ in zeros]
        twins.append((TwoCochain.unflatten(n, ints), ints))
        pairs = {pair: tuple(rng.randint(-2, 2) for _ in range(n)) for pair in pair_list(n)}
        twins.append((TwoCochain.from_pairs(n, pairs), reference.cochain_from_pairs(n, pairs)))
    assert_two_cochains_match_reference(twins)
    if n < 3:
        assert all(alpha.is_lagrangian for alpha, _ in twins)


@pytest.mark.parametrize("label", ["l_26", "t_8"])
def test_cohomology_representatives_match_frozen_dense_decoding(label):
    """two_cochain_from_coefficients and the H2 and H2_L representatives of an
    8-dim rung against the reference's coordinates."""
    ext = build_extension(ExtensionTriple.with_zero_cocycle(connection_for(label)))
    rep = dual_representation(canonical_connection(ext))
    n = rep.dim
    summary = cohomology(rep)
    z2, z2l = cocycle_bases(rep)
    rng = rng_for(79, label)
    for space in (z2, z2l):
        coeffs = tuple(random_rational(rng) for _ in range(space.dim))
        assert_two_cochains_match_reference([(
            two_cochain_from_coefficients(space, coeffs, n),
            reference.combination(coeffs, space.basis, space.ambient_dim),
        )])
    expected = reference.cohomology(brackets(rep.connection.base), rho(rep.connection))
    for reps, values in (
        (summary.h2_representatives, expected.h2_representatives),
        (summary.h2_lagrangian_representatives, expected.h2_lagrangian_representatives),
    ):
        assert len(reps) == len(values) > 0
        assert_two_cochains_match_reference(list(zip(reps, values)))


# ---------------------------------------------------------------------------
# the Lie algebra and the flat connection as tables
# ---------------------------------------------------------------------------


def assert_fraction_tensor(tensor):
    assert all(type(x) is F for plane in tensor for row in plane for x in row)


def assert_algebras_match_reference(twins):
    """Each LieAlgebra against its (dim, bracket tensor, name) from the
    reference: the dense view, the int n x n table divided back by its D,
    and the name, with Fraction types; equality and hashes."""
    for algebra, (dim, tensor, name) in twins:
        assert (algebra.dim, algebra.name) == (dim, name)
        assert algebra.bracket == tensor
        assert_fraction_tensor(algebra.bracket)
        assert_fraction_tensor(tensor)
        d, table = algebra.integer_brackets
        divided = tuple(tuple(tuple((k, F(c, d)) for k, c in cell) for cell in row) for row in table)
        assert typed(divided) == typed(reference.table(tensor))
        # A canonical table (k ascending, no zero c) makes table equality
        # the same as tensor equality.
        for terms in algebra.pairs:
            ks = [k for k, _ in terms]
            assert ks == sorted(set(ks)) and all(type(c) is F and c for _, c in terms)
        copy = replace(algebra)
        assert copy == algebra and hash(copy) == hash(algebra)
        assert copy.bracket == algebra.bracket
    for (a, da), (b, db) in zip(twins, twins[1:] + twins[:1]):
        assert (a == b) == (da == db)
        assert a != b or hash(a) == hash(b)


def lie_twins(algebra, expected, rng):
    """The pair itself and its seeded change of basis, each with the reference's."""
    p = seeded_unitriangular(algebra.dim, rng)
    moved = transform(algebra, p, "moved")
    return [(algebra, expected), (moved, (
        algebra.dim, reference.transform_tensor(brackets(algebra), p.entries), "moved"
    ))]


BASE_ENTRIES = {
    "a": {},
    "l": {(0, 1): (0, 0, 1, 0)},
    "t": {(0, 3): (0, -1, 0, 0), (1, 3): (0, 0, -1, 0)},
}


def test_lie_algebra_matches_frozen_dense_class_on_every_flat_catalog_sample():
    """The bases, the zero-class and one seeded-class extension of every flat
    sample, their quotients by the Lagrangian ideal, the induced brackets, and
    a seeded change of basis of the bases and of every eighth sample's extensions."""
    rng = rng_for(83, "sparse-oracles-lie-algebra")
    twins = []
    for code, entries in BASE_ENTRIES.items():
        expected = (4, reference.antisymmetric_tensor(4, entries), code)
        twins += lie_twins(base_algebra(code), expected, rng)
        assert base_algebra(code) == LieAlgebra.from_brackets(4, entries, code)
    seen = Counter()
    for conn in flat_samples():
        n = conn.dim
        c, rhos = brackets(conn.base), rho(conn)
        twins.append((induced_bracket(conn, "induced"), (
            n, reference.induced_bracket_tensor(gamma(conn)), "induced"
        )))
        for alpha in (TwoCochain.zero(n), random_lagrangian_cocycle(conn, rng)):
            ext = build_extension(ExtensionTriple(conn, alpha))
            twin = (ext.algebra, (
                2 * n, reference.extension_tensor(c, rhos, alpha.values), f"ext({conn.label})"
            ))
            twins += lie_twins(*twin, rng) if seen["samples"] % 8 == 0 else [twin]
            j = ext.lagrangian_ideal
            quotient = quotient_algebra(ext.algebra, j, conn.base.name)
            assert quotient == conn.base
            twins.append((quotient, (
                n, reference.quotient_tensor(brackets(ext.algebra), spanned(j)), conn.base.name
            )))
            seen["nonzero classes"] += not alpha.is_zero()
        seen["samples"] += 1
    assert seen == {"samples": 108, "nonzero classes": 108}
    assert_algebras_match_reference(twins)


@pytest.mark.parametrize("n", range(4))
def test_lie_algebra_matches_frozen_dense_class_in_low_dimension(n):
    """Abelian algebras, seeded brackets from Fractions and from ints, their
    induced brackets and changes of basis, and quotients by the center."""
    rng = rng_for(89, f"lie-algebra-{n}")
    pairs = list(combinations(range(n), 2))
    inputs = [
        {},
        {pair: tuple(random_rational(rng) for _ in range(n)) for pair in pairs},
        {pair: tuple(rng.randint(-1, 1) for _ in range(n)) for pair in pairs},
    ]
    twins = []
    for entries in inputs:
        algebra = LieAlgebra.from_brackets(n, entries, "low")
        twins += lie_twins(algebra, (n, reference.antisymmetric_tensor(n, entries), "low"), rng)
        cells = {
            pair: tuple(rng.randint(-1, 1) for _ in range(n)) for pair in product(range(n), repeat=2)
        }
        conn = FlatConnection.from_entries(algebra, cells)
        twins.append((induced_bracket(conn), (
            n, reference.induced_bracket_tensor(reference.cell_tensor(n, cells)), ""
        )))
    for algebra in (LieAlgebra.abelian(n), LieAlgebra.from_brackets(n, inputs[1])):
        if check_jacobi(algebra) == ():
            z = center(algebra)
            expected = reference.quotient_tensor(brackets(algebra), spanned(z))
            twins.append((quotient_algebra(algebra, z), (len(expected), expected, "")))
    assert_algebras_match_reference(twins)


def assert_canonical_table(table, n):
    """k strictly ascending in range(n) and every value a nonzero Fraction."""
    for terms in table:
        ks = [k for k, _ in terms]
        assert ks == sorted(set(ks)) and all(0 <= k < n for k in ks), terms
        assert all(type(v) is F and v for _, v in terms), terms


def assert_connections_match_reference(twins):
    """Each FlatConnection against its (base, gamma tensor, label) from
    the reference: the dense view, the table, the fields and the induced
    bracket, with Fraction types; equality and hashes of each with a copy and
    with its neighbour in the list."""
    for conn, (base, tensor, label) in twins:
        assert (conn.base, conn.label) == (base, label)
        assert typed(conn.gamma) == typed(tensor)
        assert_fraction_tensor(conn.gamma)
        assert typed(conn.nonzero_gamma) == typed(reference.table(tensor))
        for plane in conn.nonzero_gamma:
            assert_canonical_table(plane, conn.dim)
        induced = induced_bracket(conn, "induced")
        assert typed(induced.pairs) == typed(
            reference.pairs_of(reference.induced_bracket_tensor(tensor))
        )
        assert_canonical_table(induced.pairs, conn.dim)
        copy = replace(conn)
        assert copy == conn and hash(copy) == hash(conn)
    for (a, da), (b, db) in zip(twins, twins[1:] + twins[:1]):
        assert (a == b) == (da == db)
        assert a != b or hash(a) == hash(b)


class CellsOf:
    """Stands in for FlatConnection in specfile: the connection's fields as
    the reference reads the cells it would be built from."""

    @staticmethod
    def from_entries(base, entries, label=""):
        return base, reference.cell_tensor(base.dim, entries), label


def catalog_twin(entry, sample, monkeypatch):
    """A catalog sample and the reference's fields for the same spec-file cells."""
    conn = instantiate(entry, sample)
    with monkeypatch.context() as patch:
        patch.setattr(specfile, "FlatConnection", CellsOf)
        expected = instantiate(entry, sample)
    return conn, expected


def test_flat_connection_matches_frozen_dense_class_on_every_flat_catalog_sample(monkeypatch):
    """Every flat sample at 3 samples, and the canonical and induced connections
    of its zero-class and seeded-Z2_L-class extensions."""
    rng = rng_for(97, "sparse-oracles-flat-connection")
    twins = []
    seen = Counter()
    for entry in table1_entries():
        if entry.suspect:
            continue
        for sample in sample_parameters(entry, 3):
            conn, expected = catalog_twin(entry, sample, monkeypatch)
            if not check_flat_torsion_free(conn).ok:
                continue
            assert type(expected) is tuple
            twins.append((conn, expected))
            n = conn.dim
            for alpha in (TwoCochain.zero(n), random_lagrangian_cocycle(conn, rng)):
                ext = build_extension(ExtensionTriple(conn, alpha))
                canonical = canonical_connection(ext)
                twins.append((canonical, (ext.algebra, canonical_gamma(ext), canonical.label)))
                j = ext.lagrangian_ideal
                induced = induced_flat_connection(ext, j)
                twins.append((induced, (
                    induced.base,
                    reference.induced_gamma(brackets(ext.algebra), form(ext), spanned(j)),
                    induced.label,
                )))
                seen["nonzero classes"] += not alpha.is_zero()
            seen["samples"] += 1
    assert seen == {"samples": 108, "nonzero classes": 108}
    assert_connections_match_reference(twins)


@pytest.mark.parametrize("n", range(4))
def test_flat_connection_matches_frozen_dense_class_in_low_dimension(n):
    """The zero connection on the abelian algebra, and seeded entries from
    Fractions and from ints over it."""
    rng = rng_for(101, f"flat-connection-{n}")
    base = LieAlgebra.abelian(n)
    cells = list(product(range(n), repeat=2))
    inputs = [
        {},
        {cell: tuple(random_rational(rng) for _ in range(n)) for cell in cells},
        {cell: tuple(rng.randint(-1, 1) for _ in range(n)) for cell in cells},
    ]
    twins = [(FlatConnection.zero(base, "zero"), (base, reference.cell_tensor(n, {}), "zero"))]
    for entries in inputs:
        twins.append((
            FlatConnection.from_entries(base, entries, "low"),
            (base, reference.cell_tensor(n, entries), "low"),
        ))
    assert_connections_match_reference(twins)


# ---------------------------------------------------------------------------
# d1, the coboundary solve and the two flag loops
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", range(5))
def test_one_cochain_rows_are_the_frozen_bases(n):
    for lagrangian in (False, True):
        rows = _one_cochain_rows(n, lagrangian)
        expected = [sum(s, ()) for s in reference.one_cochain_basis(n, lagrangian)]
        assert rows == [{c: x for c, x in enumerate(v) if x} for v in expected]
        assert all(type(x) is F for row in rows for x in row.values())


def d1_targets(rep, rng):
    """(alpha, beta) pairs: shifts by seeded sigmas of three Z2 classes, and
    pairs that are not cohomologous (an H2 representative; a non-cocycle)."""
    n = rep.dim
    z2, z2l = cocycle_bases(rep)
    alphas = [TwoCochain.zero(n)]
    for space in (z2l, z2):
        coeffs = tuple(random_rational(rng) for _ in range(space.dim))
        alphas.append(two_cochain_from_coefficients(space, coeffs, n))
    pairs = [
        (alpha, alpha - coboundary_1(rep, sigma))
        for alpha in alphas
        for sigma in seeded_one_cochains(n, rng)
    ]
    summary = cohomology(rep)
    for r in summary.h2_representatives[:1] + summary.h2_lagrangian_representatives[:1]:
        pairs.append((r, TwoCochain.zero(n)))
    off = {pair: tuple(random_rational(rng) for _ in range(n)) for pair in pair_list(n)}
    pairs.append((TwoCochain.from_pairs(n, off), TwoCochain.zero(n)))
    return pairs


def solved(rep, alpha, beta, lagrangian):
    """The reference's sigma, as solve_coboundary's entries, or None."""
    c, rhos = brackets(rep.connection.base), rho(rep.connection)
    return reference.solve_coboundary(c, rhos, alpha.values, beta.values, lagrangian)


def assert_d1_matches_reference(rep, rng):
    """B^2, B^2_L, the cohomology summary and every solve against the reference.

    Returns how often each flag found a sigma and how often it found none.
    """
    h = reference.cohomology(brackets(rep.connection.base), rho(rep.connection))
    expected = expected_cohomology(rep)
    for lagrangian, space in ((False, h.b2), (True, h.b2_lagrangian)):
        assert typed(coboundary_image(rep, lagrangian)) == typed(space)
    assert summary_text(cohomology(rep)) == summary_text(expected)
    seen = Counter()
    for alpha, beta in d1_targets(rep, rng):
        for flag in (False, True):
            sigma = solve_coboundary(rep, alpha, beta, flag)
            assert typed(None if sigma is None else sigma.entries) == typed(
                solved(rep, alpha, beta, flag)
            )
            seen[flag, sigma is None] += 1
    return seen


def test_d1_matches_frozen_dense_path_on_every_flat_sample_and_canonical_connection():
    rng = rng_for(103, "sparse-oracles-d1")
    reps = [dual_representation(conn) for conn in flat_samples()]
    for label in ("l_26", "t_8"):
        ext = build_extension(ExtensionTriple.with_zero_cocycle(connection_for(label)))
        reps.append(dual_representation(canonical_connection(ext)))
    seen = Counter()
    for rep in reps:
        seen += assert_d1_matches_reference(rep, rng)
    assert len(reps) == 110
    # Both flags find a sigma and find none.
    assert len(seen) == 4, seen


@pytest.mark.parametrize("n", [0, 3])
def test_solve_coboundary_matches_frozen_on_the_zero_representation(n):
    rep = dual_representation(FlatConnection.zero(LieAlgebra.abelian(n)))
    zero = TwoCochain.zero(n)
    unit = TwoCochain.unflatten(n, [F(int(c == 0)) for c in range(len(pair_list(n)) * n)])
    for alpha in [zero, unit] if n else [zero]:
        for flag in (False, True):
            sigma = solve_coboundary(rep, alpha, zero, flag)
            assert typed(None if sigma is None else sigma.entries) == typed(
                solved(rep, alpha, zero, flag)
            )


def test_solve_coboundary_raises_as_the_frozen_path_on_a_cochain_of_another_dimension():
    """The solve names the cochain, as coboundary_1 and coboundary_2 do, for
    alpha and for beta."""
    rep = dual_representation(connection_for("l_26"))
    other, same = TwoCochain.zero(3), TwoCochain.zero(4)
    for alpha, beta in ((other, other), (other, same), (same, other)):
        with pytest.raises(
            ValueError, match="^cochain dimension does not match the representation$"
        ):
            solve_coboundary(rep, alpha, beta)


def zero_columns(n):
    """An operator on Q^n that is zero, as its n empty columns."""
    return ((),) * n


@pytest.mark.parametrize("n", range(4))
def test_descending_flag_on_no_operators_and_zero_operators(n):
    """n = 0, no operators and zero operators: the flag is Q^n, then 0 if n > 0,
    the series of the abelian algebra, and the index is that of a zero matrix.
    The flag's int steps are compared as the subspaces they span."""
    abelian = reference.lower_central_series(brackets(LieAlgebra.abelian(n)))
    zero = ((F(0),) * n,) * n
    for operators in ((), (zero_columns(n),), (zero_columns(n),) * 2):
        flag = descending_flag(operators, n)
        assert typed(tuple(Subspace.of(n, step) for step in flag)) == typed(abelian)
        assert len(flag) - 1 == reference.nilindex([zero], n)
    flag = descending_flag(LieAlgebra.abelian(n).integer_brackets[1], n)
    assert typed(tuple(Subspace.of(n, step) for step in flag)) == typed(abelian)
    assert _uniform_nilindex([zero_columns(n)]) == reference.nilindex([zero], n)
    # No operators at all: the index of the empty set is 0, as n is read off them.
    assert _uniform_nilindex([]) == 0


def assert_adjusted_form_matches_reference(triple, sigma, sigma_l):
    """The adjusted form against psi^T omega psi, which is closed on the
    extension by alpha - d(sigma)."""
    expected = reference.adjusted_form(sigma.entries, sigma_l.entries)
    assert typed(adjusted_symplectic_form(triple, sigma, sigma_l)) == typed(expected)
    conn = triple.connection
    c, rhos = brackets(conn.base), rho(conn)
    d1 = reference.d1(c, rhos, sigma.entries)
    shifted = reference.extension_tensor(c, rhos, tuple(a - d for a, d in zip(triple.cocycle.values, d1)))
    assert not any(v for _, v in reference.d_omega(shifted, expected))


def test_pullbacks_match_frozen_dense_products_on_every_flat_row():
    """equivalence_map_psi with a symmetric and a non-symmetric sigma, and the
    adjusted form, against the reference, on every flat row's zero class."""
    rng = rng_for(107, "sparse-oracles-pullback")
    checked = 0
    for conn in flat_samples(1):
        triple = ExtensionTriple.with_zero_cocycle(conn)
        sigma, symmetric, _ = seeded_one_cochains(conn.dim, rng)
        for s in (sigma, symmetric):
            assert_psi_matches_reference(triple, s)
        assert_adjusted_form_matches_reference(triple, sigma, symmetric)
        checked += 1
    assert checked == 64


# ---------------------------------------------------------------------------
# the subspace as its sparse rows, omega as its pair coordinates
# ---------------------------------------------------------------------------


def algebra_value(value):
    """A Lie algebra as (dim, pairs, name); anything else as it is."""
    if isinstance(value, LieAlgebra):
        return value.dim, value.pairs, value.name
    return value


def expected_reduction(reduction, name):
    """The reduction by J as the reference's ``reduction`` gives it:
    ((dim, pairs, name) of orth(J)/J, its form's matrix), None when J is not
    a normal isotropic ideal, or the type and message it raises."""
    kind, *rest = reduction.outcome
    if kind in ("refused", "abnormal"):
        return None
    if kind == "degenerate":
        return ValueError, "omega is degenerate"
    if kind == "open":
        (a, b, d), value = rest
        return ValueError, f"omega is not closed: d_omega({a},{b},{d}) = {value}"
    tensor, reduced_omega = rest
    return (len(tensor), reference.pairs_of(tensor), f"{name}/red"), reduced_omega


def subspace_battery(s, rng):
    """Spanning sets of subspaces of s, of every verdict: 0, both halves, e^1,
    e1, the plane they span, a seeded line, the lower central series and the
    center."""
    n2 = s.dim
    n = n2 // 2
    e = [unit_vector(n2, i) for i in range(n2)]
    sets = [[], e[n:], e[:n], e[n:n + 1], e[:1], e[:1] + e[n:n + 1]]
    sets.append([tuple(random_rational(rng) for _ in range(n2))])
    sets += [list(space.basis) for space in lower_central_series(s.algebra)[1:]]
    sets.append(list(center(s.algebra).basis))
    return sets


def assert_form_matches_reference(s, omega, rng):
    """The form and its views, and dw of the own and of explicit forms."""
    n = s.dim
    c = brackets(s.algebra)
    assert typed(s.omega) == typed(omega)
    assert typed(s.form.values) == typed(reference.pair_coordinates(omega))
    assert typed(d_omega(s).residuals) == typed(reference.d_omega(c, omega))
    seeded = [[random_rational(rng) for _ in range(n)] for _ in range(n)]
    skew = tuple(tuple(seeded[i][j] - seeded[j][i] for j in range(n)) for i in range(n))
    for m in (omega, tuple(tuple(2 * x for x in row) for row in omega), skew):
        assert typed(d_omega(s, RatMatrix(m)).residuals) == typed(reference.d_omega(c, m))
    # A matrix an algebra of omega's size must reject: omega with its last
    # row's first entry moved, and one size too large.
    if n:
        bent = [list(row) for row in omega]
        bent[n - 1][0] += 1
        bent = RatMatrix(tuple(map(tuple, bent)))
        assert outcome(lambda: d_omega(s, bent)) == (ValueError, "omega is not antisymmetric")
    large = RatMatrix(((F(0),) * (n + 1),) * (n + 1))
    assert outcome(lambda: d_omega(s, large)) == (
        ValueError, "omega shape does not match algebra dimension"
    )


def spaces_of(s, omega, sets):
    """Each spanning set as its Subspace J, checked against the reference's
    echelon span of it, with that span and the reference's reduction by it."""
    c = brackets(s.algebra)
    spaces = []
    for vectors in sets:
        j = Subspace.from_vectors(s.dim, vectors)
        expected_j = reference.span(s.dim, vectors)
        assert typed(j) == typed(expected_j)
        spaces.append((j, expected_j, reference.reduction(c, omega, expected_j)))
    return spaces


def assert_subspace_forms_match_reference(s, c, omega, space, seen):
    """The orthogonal of J, its verdict, the quotient, the reduction and, for
    a Lagrangian ideal, the induced table; c is the bracket tensor of s."""
    j, expected_j, reduction = space
    assert typed(symplectic_orthogonal(s, j)) == typed(reduction.orthogonal)
    verdict = is_lagrangian_ideal(s, j)
    assert (verdict.status, verdict.normal) == reduction.verdict
    seen["verdict", verdict.status, verdict.normal] += 1
    quotient = outcome(lambda: quotient_algebra(s.algebra, j, "q"))
    if reduction.is_ideal:
        tensor = reference.quotient_tensor(c, expected_j)
        assert typed(algebra_value(quotient)) == typed((len(tensor), reference.pairs_of(tensor), "q"))
    else:
        assert quotient == (ValueError, "subspace is not an ideal")
    reduced = outcome(lambda: classify_and_reduce(s, j))
    if isinstance(reduced[0], IdealVerdict):
        assert (reduced[0].status, reduced[0].normal) == reduction.verdict
        reduced = reduced[1]
    expected = expected_reduction(reduction, s.algebra.name)
    if isinstance(reduced, SymplecticLieAlgebra):
        algebra, reduced_omega = expected
        assert typed(algebra_value(reduced.algebra)) == typed(algebra)
        assert typed(reduced.omega) == typed(reduced_omega)
        assert typed(reduced.form.values) == typed(reference.pair_coordinates(reduced_omega))
        seen["reduced", reduced.dim] += 1
    else:
        assert reduced == expected
    if verdict.is_lagrangian:
        assert typed(induced_flat_connection(s, j).gamma) == typed(
            reference.induced_gamma(c, omega, expected_j)
        )


def assert_symplectic_layer_matches_reference(s, omega, sets, rng, seen):
    """The form and its views, dw of the own and of explicit forms, and for each
    spanning set: the echelon basis, the orthogonal, the verdict, the
    quotient, the reduction and, for a Lagrangian ideal, the induced table."""
    assert_form_matches_reference(s, omega, rng)
    c = brackets(s.algebra)
    for space in spaces_of(s, omega, sets):
        assert_subspace_forms_match_reference(s, c, omega, space, seen)


def assert_lagrangian_tables_match_reference(triple, ext, omega, rng, seen):
    """For a Lagrangian class: the canonical table, psi for a symmetric and a
    non-symmetric sigma, and the adjusted form."""
    if triple.cocycle.is_lagrangian:
        assert typed(canonical_connection(ext).gamma) == typed(
            reference.canonical_gamma(brackets(ext.algebra), omega)
        )
        sigma, symmetric, _ = seeded_one_cochains(triple.connection.dim, rng)
        for s in (sigma, symmetric):
            assert_psi_matches_reference(triple, s)
        assert_adjusted_form_matches_reference(triple, sigma, symmetric)
        seen["lagrangian classes"] += 1


def assert_extension_forms_match_reference(triple, rng, seen):
    """The symplectic layer of the triple's extension, its canonical table, psi
    for a symmetric and a non-symmetric sigma, and the adjusted form."""
    ext = build_extension(triple)
    omega = reference.standard_omega(triple.connection.dim)
    assert_symplectic_layer_matches_reference(ext, omega, subspace_battery(ext, rng), rng, seen)
    assert_lagrangian_tables_match_reference(triple, ext, omega, rng, seen)


def assert_zero_class_matches_reference(conn, form_rng, maps_rng, form_seen, maps_seen):
    """The zero-class extension of conn under both ``assert_extension_forms_match_reference``
    (drawing from form_rng) and ``assert_sparse_maps_match_reference`` (drawing
    from maps_rng), each stream drawn in the order those draw it.  The
    subspaces of both batteries are checked once: all but their seeded lines
    coincide."""
    triple = ExtensionTriple(conn, TwoCochain.zero(conn.dim))
    ext = build_extension(triple)
    omega = reference.standard_omega(conn.dim)
    form_sets = subspace_battery(ext, form_rng)
    assert_form_matches_reference(ext, omega, form_rng)
    assert_lagrangian_tables_match_reference(triple, ext, omega, form_rng, form_seen)
    assert_solves_match_reference(triple, ext, maps_rng, maps_seen)
    maps_sets = subspace_battery(ext, maps_rng)
    spaces = spaces_of(ext, omega, form_sets + [v for v in maps_sets if v not in form_sets])
    c = brackets(ext.algebra)
    for space in spaces:
        assert_subspace_forms_match_reference(ext, c, omega, space, form_seen)
        assert_subspace_maps_match_reference(ext, c, space, spaces[1:3], maps_seen)


def test_forms_and_subspaces_match_frozen_dense_code_on_every_flat_catalog_sample():
    """Every flat sample at 3 samples: its zero-class extension under the
    symplectic layer and under the linear maps as sparse columns, and a seeded
    Z2_L-class one under the symplectic layer.  The seeded classes under the
    linear maps are checked by
    ``test_sparse_maps_match_the_dense_vector_code_on_every_flat_catalog_sample``."""
    form_rng = rng_for(113, "sparse-oracles-form")
    maps_rng = rng_for(173, "sparse-maps-catalog", "zero class")
    form_seen, maps_seen = Counter(), Counter()
    for conn in flat_samples(3):
        form_class = random_lagrangian_cocycle(conn, form_rng)
        assert_zero_class_matches_reference(conn, form_rng, maps_rng, form_seen, maps_seen)
        assert_extension_forms_match_reference(ExtensionTriple(conn, form_class), form_rng, form_seen)
    assert form_seen["lagrangian classes"] == 216
    assert maps_seen["lagrangian classes"] == 108
    # Every status, with a normal and an abnormal orthogonal, and reductions
    # to 0 and to dimension 6.
    verdicts = {key[1:] for key in form_seen if key[0] == "verdict"}
    assert {status for status, _ in verdicts} == {
        "not_ideal", "not_isotropic", "isotropic", "lagrangian"
    }
    assert {normal for _, normal in verdicts} == {True, False}
    assert form_seen["reduced", 0] and form_seen["reduced", 6]
    # Refused reductions, and reductions to 0, to 6 and to the whole algebra.
    assert all(maps_seen["reduced", dim] for dim in (None, 0, 6, 8))


def test_sparse_maps_match_the_dense_vector_code_on_every_flat_catalog_sample():
    """A seeded Z2_L-class extension of every flat sample at 3 samples under
    the linear maps as sparse columns.  The zero-class ones are checked by
    ``test_forms_and_subspaces_match_frozen_dense_code_on_every_flat_catalog_sample``."""
    rng = rng_for(173, "sparse-maps-catalog")
    seen = Counter()
    for conn in flat_samples(3):
        alpha = random_lagrangian_cocycle(conn, rng)
        assert_sparse_maps_match_reference(ExtensionTriple(conn, alpha), rng, seen)
    assert seen["lagrangian classes"] == 108
    # Refused reductions, and reductions to 0, to 6 and to the whole algebra.
    assert all(seen["reduced", dim] for dim in (None, 0, 6, 8))


@pytest.mark.parametrize("label", ["l_26", "t_8"])
def test_forms_and_subspaces_match_frozen_dense_code_on_eight_dimensional_canonical_connections(
    label,
):
    rng = rng_for(127, "sparse-oracles-form-canonical", label)
    ext = build_extension(ExtensionTriple.with_zero_cocycle(connection_for(label)))
    canonical = canonical_connection(ext)
    seen = Counter()
    for alpha in (TwoCochain.zero(8), random_lagrangian_cocycle(canonical, rng)):
        assert_extension_forms_match_reference(ExtensionTriple(canonical, alpha), rng, seen)
    assert seen["lagrangian classes"] == 2


def test_forms_match_frozen_dense_code_in_a_seeded_basis():
    """omega = P^T omega_0 P, not the standard form, and the Lagrangian ideal moved by P^-1."""
    rng = rng_for(131, "sparse-oracles-form-basis")
    seen = Counter()
    for label in ("l_26", "a_3", "t_8", "t_18"):
        ext = build_extension(ExtensionTriple.with_zero_cocycle(connection_for(label)))
        p = seeded_unitriangular(8, rng)
        pm = p.entries
        omega = reference.matmul(reference.matmul(reference.transpose(pm), reference.standard_omega(4)), pm)
        moved_form = SymplecticForm(8, reference.pair_coordinates(omega))
        s = SymplecticLieAlgebra(transform(ext.algebra, p), moved_form)
        moved = list(reference.transpose(reference.inverse(pm))[4:])
        assert_symplectic_layer_matches_reference(s, omega, subspace_battery(s, rng) + [moved], rng, seen)
    assert seen["verdict", "lagrangian", True] >= 4


@pytest.mark.parametrize("n", range(4))
def test_forms_and_subspaces_match_frozen_dense_code_in_low_dimension(n):
    rng = rng_for(137, "sparse-oracles-form-low", str(n))
    assert typed(standard_form(n)) == typed(
        SymplecticForm(2 * n, reference.pair_coordinates(reference.standard_omega(n)))
    )
    assert standard_form(0) == SymplecticForm(0, ())
    for space, expected in (
        (Subspace.full(n), reference.full(n)),
        (Subspace.zero(n), reference.Span(n)),
        (dual_subspace(n), reference.span(2 * n, [reference.unit(2 * n, n + i) for i in range(n)])),
    ):
        assert typed(space) == typed(expected)
    seen = Counter()
    # The abelian algebra of dimension 2n with the standard form, n = 0 included;
    # for n > 0 also the extension of the zero connection, which is that algebra.
    s = SymplecticLieAlgebra(LieAlgebra.abelian(2 * n), standard_form(n), dual_subspace(n))
    omega = reference.standard_omega(n)
    assert_symplectic_layer_matches_reference(s, omega, subspace_battery(s, rng), rng, seen)
    if n:
        triple = ExtensionTriple.with_zero_cocycle(FlatConnection.zero(LieAlgebra.abelian(n)))
        assert_extension_forms_match_reference(triple, rng, seen)


def test_build_omega_matches_the_frozen_dense_matrix():
    """Each extension's spec file gives back the standard form, by value and
    type; a line given the other way round is mirrored; no omega block raises."""
    checked = 0
    standard = reference.pair_coordinates(reference.standard_omega(4))
    for conn in flat_samples(1):
        ext = build_extension(ExtensionTriple.with_zero_cocycle(conn))
        text = specfile.serialize_spec(specfile.spec_from_symplectic("x", ext.algebra, ext.omega))
        spec = specfile.parse_spec(text)
        assert typed(specfile.build_omega(spec)) == typed(SymplecticForm(8, standard))
        checked += 1
    assert checked == 64
    # omega(e^1, e1) = 2 in dimension 4, e^1 the third basis vector: omega(e1, e^1) = -2.
    spec = specfile.parse_spec("algebra s dim 4\nomega e^1 e1 -> 2\nomega e2 e2 -> 0\n")
    expected = reference.pair_coordinates(reference.form_matrix(4, (0, -2, 0, 0, 0, 0)))
    assert typed(specfile.build_omega(spec)) == typed(SymplecticForm(4, expected))
    bare = specfile.parse_spec("algebra s dim 2\n")
    assert outcome(lambda: specfile.build_omega(bare)) == (ValueError, "spec file has no omega block")


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_subspaces_match_the_frozen_dense_construction(data):
    """from_vectors by basis, pivots and type, and contains against the
    reference's reduction."""
    n = data.draw(st.integers(min_value=0, max_value=8))
    vectors = data.draw(st.lists(sparse_vector(n, sparse_entries), max_size=5))
    others = data.draw(st.lists(sparse_vector(n, sparse_entries), max_size=3))
    space, expected = Subspace.from_vectors(n, vectors), reference.span(n, vectors)
    assert typed(space) == typed(expected) and space.dim == expected.dim
    for v in others:
        rest = reference.reduce(expected, v)
        assert space.contains(v) == reference.contains(expected, v)
        assert space.contains(tuple(x - y for x, y in zip(v, rest)))


# ---------------------------------------------------------------------------
# the integer kernels against the reference
# ---------------------------------------------------------------------------


def sweep_lines(report):
    """Every residual of a sweep as the verify records write the first one."""
    torsion, curvature, associator = report
    return (
        [f"T(e{i},e{j}) = {vector_text(v)}" for (i, j), v in torsion]
        + [f"R(e{i},e{j})e{s} = {vector_text(v)}" for (i, j, s), v in curvature]
        + [f"A(e{i},e{j},e{s}) = {vector_text(v)}" for (i, j, s), v in associator]
    )


def assert_sweep_matches_reference(conn):
    report = check_flat_torsion_free(conn)
    live = (report.torsion, report.curvature, report.associator)
    c, g = brackets(conn.base), gamma(conn)
    expected = (reference.torsion(c, g), reference.curvature(c, g), reference.associator(g))
    assert typed(live) == typed(expected)
    assert sweep_lines(live) == sweep_lines(expected)
    return report


def assert_jacobi_matches_reference(algebra):
    live = tuple((v.triple, v.residual) for v in check_jacobi(algebra))
    expected = reference.jacobi(brackets(algebra))
    assert typed(live) == typed(expected)
    if expected:
        (triple, residual), *_ = expected
        with pytest.raises(ValueError) as raised:
            require_jacobi(algebra)
        assert str(raised.value) == (
            f"Jacobi identity fails at {triple}: residual {vector_text(residual)}"
        )
    return live


def assert_d_omega_matches_reference(s):
    result = s.d_omega_result
    expected = reference.d_omega(brackets(s.algebra), form(s))
    assert typed(result.residuals) == typed(expected)
    first = [f"d_omega({i},{j},{k}) = {v}" for (i, j, k), v in expected if v][:1]
    assert result.first_witness() == "".join(first)
    return result


def with_bracket_shifted(algebra, p, k, shift):
    """algebra with the coefficient of e_k in its p-th pair moved by shift."""
    terms = dict(algebra.pairs[p])
    terms[k] = terms.get(k, F(0)) + shift
    pairs = list(algebra.pairs)
    pairs[p] = tuple(sorted((t, c) for t, c in terms.items() if c))
    return LieAlgebra(algebra.dim, tuple(pairs), algebra.name)


def sparse_rows(vectors):
    return {r: {j: x for j, x in enumerate(v) if x} for r, v in enumerate(vectors)}


def assert_elimination_matches_reference(rep):
    live = cocycle_bases(rep)
    expected = reference.cocycles(brackets(rep.connection.base), rho(rep.connection))
    assert typed(live) == typed(expected)
    assert [typed_kept(dict(enumerate(space.rows))) for space in live] == [
        typed_kept(sparse_rows(space.basis)) for space in expected
    ]
    return live


def test_integer_kernels_match_the_fraction_kernels_on_every_catalog_sample():
    """Jacobi on each base and on a seeded corruption of it, and Z2, Z2_L of
    each flat sample.  The sweep of the same samples is compared by
    ``test_connection_layer_matches_dense_code_on_every_catalog_sample``."""
    rng = rng_for(151, "integer-kernels-catalog")
    checked = flat = 0
    for entry in table1_entries():
        for sample in sample_parameters(entry, 3):
            conn = instantiate(entry, sample)
            if not isinstance(conn, FlatConnection):
                continue
            checked += 1
            base = conn.base
            assert_jacobi_matches_reference(base)
            if base.dim >= 3:
                p = rng.randrange(len(base.pairs))
                shifted_base = with_bracket_shifted(base, p, rng.randrange(base.dim), F(rng.choice([1, -2]), 3))
                assert_jacobi_matches_reference(shifted_base)
            if check_flat_torsion_free(conn).flat:
                flat += 1
                assert_elimination_matches_reference(conn.dual)
    assert (checked, flat) == (113, 108)


def test_integer_kernels_match_the_fraction_kernels_on_perturbed_connections():
    """Single-cell perturbations give torsion, curvature and associator witnesses."""
    rng = rng_for(157, "integer-kernels-perturbed")
    seen = Counter()
    for conn in list(flat_samples(1)) + [
        canonical_connection(ext) for ext in list(flat_row_extensions())[::16]
    ]:
        for _ in range(2):
            report = assert_sweep_matches_reference(perturbed(conn, rng))
            seen.update(name for name in ("torsion", "curvature", "associator") if getattr(report, name))
    assert set(seen) == {"torsion", "curvature", "associator"}, seen


def test_integer_kernels_match_the_fraction_kernels_on_zero_and_seeded_extensions():
    """Jacobi and d(omega) of the zero extension and of two seeded classes of
    every flat row, the sweep of their canonical connections, and the
    d(omega) witnesses of the classes that are not Lagrangian.  The second
    class is a seeded Z2 cocycle, which leaves omega not closed unless it
    happens to be Lagrangian."""
    rng = rng_for(163, "integer-kernels-extensions")
    open_forms = checked = 0
    for ext in flat_row_extensions():
        conn = induced_flat_connection(ext, ext.lagrangian_ideal)
        classes = [random_lagrangian_cocycle(conn, rng), random_cocycle(conn, rng)]
        for s in (ext, *(build_extension(ExtensionTriple(conn, alpha)) for alpha in classes)):
            assert assert_jacobi_matches_reference(s.algebra) == ()
            result = assert_d_omega_matches_reference(s)
            if result.is_zero():
                assert_sweep_matches_reference(canonical_connection(s))
            else:
                open_forms += 1
            broken = with_bracket_shifted(s.algebra, rng.randrange(len(s.algebra.pairs)),
                                          rng.randrange(s.dim), F(1, 7))
            assert_jacobi_matches_reference(broken)
            assert_d_omega_matches_reference(SymplecticLieAlgebra(broken, s.form))
            checked += 1
    assert checked == 3 * 64
    assert open_forms > 32


@pytest.mark.parametrize("label", ["l_26", "t_8"])
def test_integer_kernels_match_the_fraction_kernels_on_eight_dimensional_canonical_connections(label):
    rng = rng_for(167, "integer-kernels-canonical", label)
    ext = build_extension(ExtensionTriple.with_zero_cocycle(connection_for(label)))
    canonical = canonical_connection(ext)
    assert assert_sweep_matches_reference(canonical).ok
    assert assert_sweep_matches_reference(perturbed(canonical, rng)).torsion
    assert assert_jacobi_matches_reference(canonical.base) == ()
    assert_d_omega_matches_reference(ext)
    z2, z2l = assert_elimination_matches_reference(canonical.dual)
    assert (z2.dim, z2l.dim) == {"l_26": (123, 82), "t_8": (88, 56)}[label]


# Primes above 2^61, as denominators no product of small ones reaches.
LARGE_PRIMES = (
    2305843009213693967, 2305843009213693973, 2305843009213694009,
    2305843009213694017, 2305843009213694087, 2305843009213694149,
)


def sympy_rref_rows(rows, width):
    """{pivot: {column: Fraction}} of the reduced row echelon form, by sympy."""
    import sympy

    if not rows or not width:
        return {}
    matrix = sympy.Matrix(len(rows), width, lambda r, c: sympy.Rational(
        rows[r].get(c, 0).numerator, rows[r].get(c, 0).denominator))
    reduced, pivots = matrix.rref()
    return {
        p: {c: F(int(x.p), int(x.q)) for c in range(width) if (x := reduced[r, c]) != 0}
        for r, p in enumerate(pivots)
    }


def typed_kept(kept):
    return sorted((p, sorted((c, type(x), x) for c, x in row.items())) for p, row in kept.items())


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_elimination_gives_one_rref_for_fraction_int_and_mixed_rows(data):
    """Each row is drawn as ints and scaled by a seeded nonzero rational, with
    denominators among primes above 2^61, which leaves its span alone; the
    rows are then given as Fractions, as ints, mixed, and in two batches
    through one ``_echelon`` store.  Every form, written out as the Fraction
    rows of ``Subspace.of``, gives the reference's RREF and sympy's."""
    width = data.draw(st.integers(min_value=0, max_value=7))
    small = st.sampled_from([0] * 12 + [1, -1, 2, -3, 5, 7])
    ints = data.draw(st.lists(st.lists(small, min_size=width, max_size=width), max_size=6))
    ints = [{c: x for c, x in enumerate(row) if x} for row in ints]
    scale = st.builds(
        F,
        st.sampled_from([1, -1, 3, -2, LARGE_PRIMES[0], -LARGE_PRIMES[1]]),
        st.sampled_from((1, 6) + LARGE_PRIMES),
    )
    fractions = []
    for row in ints:
        f = data.draw(scale)
        fractions.append({c: f * x for c, x in row.items()})
    mixed = [
        {c: (int(x) if x.denominator == 1 and data.draw(st.booleans()) else x) for c, x in row.items()}
        for row in fractions
    ]
    reduced, pivots = reference.rref(
        [tuple(row.get(c, 0) for c in range(width)) for row in fractions], width
    )
    expected = {p: {c: x for c, x in enumerate(row) if x} for row, p in zip(reduced, pivots)}
    assert typed_kept(expected) == typed_kept(sympy_rref_rows(fractions, width))

    def written(store):
        space = Subspace.of(width, store)
        return dict(zip(space.pivots, space.rows))

    alternating = [row if r % 2 else fractions[r] for r, row in enumerate(ints)]
    for rows in (fractions, ints, mixed, alternating):
        kept = {}
        _echelon(rows, kept)
        assert typed_kept(written(kept)) == typed_kept(expected)
    cut = data.draw(st.integers(min_value=0, max_value=len(mixed)))
    kept = {}
    _echelon(fractions[:cut], kept)
    _echelon(mixed[cut:], kept)  # continues the first batch's int rows in place
    assert typed_kept(written(kept)) == typed_kept(expected)


def test_cocycle_bases_makes_a_fraction_only_for_each_entry_the_kernel_writes_out(monkeypatch):
    """A Fraction inner loop in the kernel makes a Fraction per operation;
    the integer kernel makes none, as a subspace stores int rows, and reading
    its Fraction ``rows`` makes one per off-pivot entry at most.  It
    eliminates twice: the d2 rows, then the cyclic sums."""
    ext = build_extension(ExtensionTriple.with_zero_cocycle(connection_for("l_26")))
    rep = canonical_connection(ext).dual
    eliminations = [0]
    real_echelon = linalg_module._echelon

    def counting_echelon(rows, ints):
        eliminations[0] += 1
        return real_echelon(rows, ints)

    made = [0]
    real_new = F.__new__

    def counting_new(cls, *args, **kwargs):
        made[0] += 1
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(linalg_module, "_echelon", counting_echelon)
    monkeypatch.setattr(F, "__new__", counting_new)
    z2, z2l = cocycle_bases(rep)
    made_by_kernel = made[0]
    rows = [row for space in (z2, z2l) for row in space.rows]
    monkeypatch.undo()
    assert (z2.dim, z2l.dim) == (123, 82)
    assert eliminations[0] == 2
    assert made_by_kernel == 0
    assert 0 < made[0] <= sum(len(row) - 1 for row in rows)


# ---------------------------------------------------------------------------
# linear maps as sparse columns against the reference
# ---------------------------------------------------------------------------


def expected_classify_and_reduce(reduction, name):
    """classify_and_reduce of J as the reference's ``reduction`` gives it, in
    the form of ``reduction_value``, or the type and message it raises."""
    expected = expected_reduction(reduction, name)
    if expected is None:
        return reduction.verdict, None
    if expected[0] is ValueError:
        return expected
    algebra, reduced_omega = expected
    return reduction.verdict, typed(algebra), typed(reference.pair_coordinates(reduced_omega))


def reduction_value(result):
    """classify_and_reduce's (verdict, reduction) as plain typed values."""
    verdict, reduced = result
    verdict = (verdict.status, verdict.normal)
    if reduced is None:
        return verdict, None
    return verdict, typed(algebra_value(reduced.algebra)), typed(reduced.form.values)


def assert_solves_match_reference(triple, ext, rng, seen):
    """Both omega solves, and for a Lagrangian class psi for three sigmas and
    the adjusted form."""
    n2 = ext.dim
    c, omega = brackets(ext.algebra), form(ext)
    j = ext.lagrangian_ideal
    expected_j = spanned(j)
    assert typed(_omega_solve(ext, j.complement_coordinates(), j.rows)) == typed(reference.table(
        reference.omega_solve(c, omega, reference.complement(expected_j), expected_j.basis)
    ))
    if triple.cocycle.is_lagrangian:
        units = [{m: F(1)} for m in range(n2)]
        assert typed(_omega_solve(ext, range(n2), units)) == typed(
            reference.table(reference.canonical_gamma(c, omega))
        )
        rep = dual_representation(triple.connection)
        sigmas = seeded_one_cochains(triple.connection.dim, rng)
        for sigma in sigmas:
            moved = ExtensionTriple(triple.connection, triple.cocycle - coboundary_1(rep, sigma))
            assert typed(outcome(lambda: equivalence_map_psi(triple, moved, sigma))) == typed(
                reference.psi_matrix(sigma.entries)
            )
        for sigma_l in sigmas:
            adjusted = outcome(lambda: adjusted_symplectic_form(triple, sigmas[0], sigma_l))
            if sigma_l.is_symmetric:
                assert typed(adjusted) == typed(
                    reference.adjusted_form(sigmas[0].entries, sigma_l.entries)
                )
            else:
                assert adjusted == (ValueError, "sigma_l must be a symmetric (Lagrangian) 1-cochain")
        seen["lagrangian classes"] += 1


def assert_subspace_maps_match_reference(ext, c, space, halves, seen):
    """The orthogonal of J, its verdict and reduction by ``classify_and_reduce``,
    and its brackets with each of the halves (spaces as ``spaces_of`` gives
    them); c is the bracket tensor of ext."""
    j, expected_j, reduction = space
    assert typed(symplectic_orthogonal(ext, j)) == typed(reduction.orthogonal)
    live = outcome(lambda: reduction_value(classify_and_reduce(ext, j)))
    assert live == expected_classify_and_reduce(reduction, ext.algebra.name)
    if isinstance(live[0], type):
        seen["raised", live] += 1
    else:  # None, or the dimension of the reduction
        seen["reduced", live[1] and live[1][0][1]] += 1
    for half, expected_half, _ in halves:
        assert typed(bracket_of_subspaces(ext.algebra, half, j)) == typed(
            reference.bracket_span(c, expected_half, expected_j)
        )


def assert_sparse_maps_match_reference(triple, rng, seen):
    """Both omega solves, psi for three sigmas, the adjusted form, and for a
    battery of subspaces the orthogonal, the verdict and reduction, and the
    brackets with each half of the extension."""
    ext = build_extension(triple)
    assert_solves_match_reference(triple, ext, rng, seen)
    spaces = spaces_of(ext, form(ext), subspace_battery(ext, rng))
    c = brackets(ext.algebra)
    for space in spaces:
        assert_subspace_maps_match_reference(ext, c, space, spaces[1:3], seen)


def test_sparse_maps_match_the_dense_vector_code_on_seeded_extensions():
    """Seeded Z2 classes, whose omega is not closed: the induced solve, the
    orthogonals and the refused or failing reductions."""
    rng = rng_for(179, "sparse-maps-seeded")
    seen = Counter()
    for label in ("l_26", "a_3", "t_8", "t_18", "a_10", "l_38"):
        conn = connection_for(label)
        alpha = random_cocycle(conn, rng)
        assert not alpha.is_lagrangian
        assert_sparse_maps_match_reference(ExtensionTriple(conn, alpha), rng, seen)
    assert seen["lagrangian classes"] == 0
    assert any(key[0] == "raised" for key in seen)  # reductions whose form is not closed


@pytest.mark.parametrize("label", ["l_26", "t_8"])
def test_sparse_maps_match_the_dense_vector_code_on_eight_dimensional_canonical_connections(label):
    rng = rng_for(181, "sparse-maps-canonical", label)
    canonical = canonical_connection(build_extension(ExtensionTriple.with_zero_cocycle(connection_for(label))))
    seen = Counter()
    for alpha in (TwoCochain.zero(8), random_lagrangian_cocycle(canonical, rng)):
        assert_sparse_maps_match_reference(ExtensionTriple(canonical, alpha), rng, seen)
    assert seen["lagrangian classes"] == 2


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_bracket_rows_and_pullback_match_the_dense_formulas(data):
    """On a random table and a random antisymmetric form, not Jacobi or closed:
    bracket_rows, omega_row and pullback on sparse rows against the reference's
    bilinear maps."""
    n = data.draw(st.integers(min_value=0, max_value=8))
    vector = sparse_vector(n, sparse_entries)
    entries = {(i, j): data.draw(vector) for i, j in combinations(range(n), 2)}
    algebra = LieAlgebra.from_brackets(n, entries, "sparse")
    form_values = data.draw(st.lists(sparse_entries, min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    s = SymplecticLieAlgebra(algebra, SymplecticForm(n, tuple(form_values)))
    c, omega = brackets(algebra), reference.form_matrix(n, form_values)
    vectors = data.draw(st.lists(vector, max_size=4))
    rows = [_sparse(v) for v in vectors]
    for x, u in zip(vectors, rows):
        row = s.form.omega_row(u)
        assert all(row.values())
        assert typed(_dense(row, n)) == typed(
            tuple(reference.omega_value(omega, x, e) for e in reference.units(n))
        )
        for y, v in zip(vectors, rows):
            bracket = algebra.bracket_rows(u, v)
            assert all(bracket.values())
            assert typed(_dense(bracket, n)) == typed(reference.bilinear(c, x, y))
    assert typed(s.form.pullback(rows)) == typed(
        reference.pair_coordinates(reference.pullback(omega, vectors))
    )
    assert rows == [_sparse(v) for v in vectors]  # the rows are only read
