"""The omega identities of extension.py against their definitions.

extension.py evaluates dw, both omega solves, the pullback and psi's checks
on ints, through one scaled copy of the form's rows (``integer_omega``) and
one table W[a][u] = D omega([e_a, e_u], .) per form
(``integer_omega_brackets``).  Here each is computed again from its
definition by tests/reference.py, on dense Fraction vectors and matrices
built from the algebra's bracket pairs and the form's pair coordinates:

- dw(x, y, z) = w(x, [y, z]) + w(y, [z, x]) + w(z, [x, y]);
- nabla solves omega(nabla_x y, u) = -omega(y, [x, u]) for every test vector u,
  by Gauss-Jordan elimination of the pairing;
- the pullback is omega(c_a, c_b) for a < b;
- psi(x, xi) = (x, xi + sigma(x)) must satisfy psi([x, y]_1) = [psi x, psi y]_2
  on every basis pair, and for symmetric sigma omega(psi x, psi y) = omega(x, y).

Values are compared with their types, so a 0 that is not a Fraction, or an
int where a Fraction belongs, fails.  The last test pins the counts: W is
built once per form, and the solves and psi read no vector evaluator.
"""

from collections import Counter
from fractions import Fraction as F
from itertools import combinations

import pytest

import reference
from inputs import brackets, flat_samples, form, outcome, random_lagrangian_cocycle, typed
from lagext import extension, linalg
from lagext.catalog import connection_for
from lagext.cohomology import OneCochain, TwoCochain, coboundary_1
from lagext.connection import FlatConnection, dual_representation
from lagext.extension import (
    ExtensionTriple,
    IntegrityError,
    SymplecticLieAlgebra,
    _omega_solve,
    _psi_columns,
    adjusted_symplectic_form,
    build_extension,
    canonical_connection,
    d_omega,
    dual_subspace,
    equivalence_map_psi,
    extension_nilpotency,
    induced_flat_connection,
    is_lagrangian_ideal,
    standard_form,
)
from lagext.lie import LieAlgebra, transform
from lagext.linalg import RatMatrix, Subspace, _sparse
from lagext.sampling import random_rational, rng_for

ZERO = F(0)


# ---------------------------------------------------------------------------
# the definitions, from tests/reference.py
# ---------------------------------------------------------------------------


def vector_of(row, n):
    """A sparse row {index: value} as a vector of Q^n."""
    return tuple(row.get(i, ZERO) for i in range(n))


def defined_solve(s, lifts, tests):
    """The omega solve's table from the reference, or None when its pairing is singular."""
    gamma = reference.omega_solve(
        brackets(s.algebra), form(s), tuple(lifts), [vector_of(u, s.dim) for u in tests]
    )
    return None if gamma is None else reference.table(gamma)


def defined_pullback(s, columns):
    vectors = [vector_of(col, s.dim) for col in columns]
    return reference.pair_coordinates(reference.pullback(form(s), vectors))


def defined_psi(g1, g2, sigma):
    """psi's matrix, or the IntegrityError its bracket check or, for symmetric
    sigma, its pullback check raises, with the messages of extension.py."""
    psi = reference.psi_matrix(sigma.entries)
    pair = reference.preserves_brackets(brackets(g1.algebra), brackets(g2.algebra), psi)
    if pair:
        return IntegrityError, "bracket preservation fails at basis pair ({},{})".format(*pair)
    if reference.is_symmetric(sigma.entries):
        if reference.pullback(form(g2), reference.transpose(psi)) != form(g1):
            return IntegrityError, "pullback of omega under a Lagrangian shift must be omega"
    return psi


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------


def units(n):
    return [{m: F(1)} for m in range(n)]


def assert_solves_match(s, j=None):
    """Both omega solves of s, called directly, j the kept Lagrangian ideal by
    default; a singular pairing raises ValueError."""
    j = s.lagrangian_ideal if j is None else j
    for args in ((s, j.complement_coordinates(), j.rows), (s, range(s.dim), units(s.dim))):
        live = outcome(lambda: _omega_solve(*args))
        defined = defined_solve(*args)
        if defined is None:
            assert live == (ValueError, "matrix is singular")
        else:
            assert typed(live) == typed(defined)


def seeded_sigma(n, rng, symmetric):
    rows = [[random_rational(rng) for _ in range(n)] for _ in range(n)]
    if symmetric:
        rows = [[rows[min(i, k)][max(i, k)] for k in range(n)] for i in range(n)]
    return OneCochain.from_rows(rows)


def assert_extension_matches(triple, rng, seen):
    """dw, the induced and (when closed) canonical connections, and psi with
    a symmetric and a non-symmetric seeded sigma, with its pullback."""
    ext = build_extension(triple)
    assert typed(d_omega(ext).residuals) == typed(reference.d_omega(brackets(ext.algebra), form(ext)))
    j = ext.lagrangian_ideal
    recovered = induced_flat_connection(ext, j)
    assert typed(recovered.nonzero_gamma) == typed(
        defined_solve(ext, j.complement_coordinates(), j.rows)
    )
    if ext.d_omega_result.is_zero():
        assert typed(canonical_connection(ext).nonzero_gamma) == typed(
            defined_solve(ext, range(ext.dim), units(ext.dim))
        )
        seen["canonical"] += 1
    n = triple.connection.dim
    rep = dual_representation(triple.connection)
    for symmetric in (True, False):
        sigma = seeded_sigma(n, rng, symmetric)
        shifted = ExtensionTriple(triple.connection, triple.cocycle - coboundary_1(rep, sigma))
        psi = equivalence_map_psi(triple, shifted, sigma)
        g2 = build_extension(shifted)
        assert typed(psi.entries) == typed(defined_psi(ext, g2, sigma))
        columns = _psi_columns(sigma)
        assert typed(g2.pullback(columns)) == typed(defined_pullback(g2, columns))
        seen["psi"] += 1


def test_zero_extension_of_every_flat_sample_matches_the_definitions():
    rng = rng_for(211, "omega-table-zero")
    seen = Counter()
    for conn in flat_samples(3):
        assert_extension_matches(ExtensionTriple.with_zero_cocycle(conn), rng, seen)
    assert seen == {"canonical": 108, "psi": 216}


def test_a_seeded_lagrangian_class_of_every_flat_row_matches_the_definitions():
    seen = Counter()
    for conn in flat_samples(1):
        label = conn.label
        rng = rng_for(223, "omega-table-class", label)
        alpha = random_lagrangian_cocycle(conn, rng)
        assert any(alpha.values)
        assert_extension_matches(ExtensionTriple(conn, alpha), rng, seen)
    assert seen == {"canonical": 64, "psi": 128}


@pytest.mark.parametrize("label", ["l_26", "t_8"])
def test_the_canonical_connection_algebras_match_the_definitions(label):
    """The 16-dimensional extensions of the canonical connection of ext(label)."""
    rng = rng_for(227, "omega-table-canonical", label)
    canonical = canonical_connection(
        build_extension(ExtensionTriple.with_zero_cocycle(connection_for(label)))
    )
    seen = Counter()
    for alpha in (TwoCochain.zero(8), random_lagrangian_cocycle(canonical, rng)):
        assert_extension_matches(ExtensionTriple(canonical, alpha), rng, seen)
    assert seen == {"canonical": 2, "psi": 4}


def test_forms_with_denominators_match_the_definitions():
    """A scaled standard form (closed), a block of 1/2 and 1/3 (not closed in
    general), and adjusted forms, whose h x h block has denominators."""
    rng = rng_for(229, "omega-table-denominators")
    closed = 0
    for label in ("l_26", "t_8", "a_3", "t_18", "l_38"):
        ext = build_extension(ExtensionTriple.with_zero_cocycle(connection_for(label)))
        n = ext.dim // 2
        halves = tuple(F(-1, 2) if x else x for x in ext.form)
        block = tuple(
            (F(-1, 2) if i % 2 else F(-1, 3)) if j == n + i else ZERO
            for i, j in combinations(range(2 * n), 2)
        )
        conn = connection_for(label)
        rep = dual_representation(conn)
        alpha = random_lagrangian_cocycle(conn, rng)
        triple = ExtensionTriple(conn, alpha)
        sigma = OneCochain.from_rows([[F(1, 2), F(-1, 3), ZERO, F(2)]] + [[F(k, 3)] * 4 for k in range(3)])
        sigma_l = seeded_sigma(n, rng, symmetric=True)
        adjusted = adjusted_symplectic_form(triple, sigma, sigma_l)
        bar = build_extension(ExtensionTriple(conn, triple.cocycle - coboundary_1(rep, sigma)))
        adjusted_form = tuple(adjusted[i, j] for i, j in combinations(range(2 * n), 2))
        assert any(x.denominator > 1 for x in adjusted_form)
        for coordinates in (halves, block, adjusted_form):
            algebra = bar.algebra if coordinates is adjusted_form else ext.algebra
            s = SymplecticLieAlgebra(algebra, coordinates, dual_subspace(n))
            assert typed(s.d_omega_result.residuals) == typed(
                reference.d_omega(brackets(s.algebra), form(s))
            )
            assert_solves_match(s)
            columns = [_sparse(row) for row in adjusted.entries[:3]] + [{}, {0: F(2, 3)}]
            assert typed(s.pullback(columns)) == typed(defined_pullback(s, columns))
            if s.d_omega_result.is_zero():
                assert typed(canonical_connection(s).nonzero_gamma) == typed(
                    defined_solve(s, range(s.dim), units(s.dim))
                )
                closed += 1
    assert closed >= 10  # the scaled and the adjusted forms, on every row


def test_a_lagrangian_ideal_with_non_unit_rows_matches_the_definitions():
    """The zero extension in the basis f = P e, P = [[I, T], [0, I]] with T
    symmetric: P preserves omega, so the algebra transform(g, P) keeps the
    standard form, and h* is the Lagrangian ideal spanned by
    e^k - sum_i T_ik e_i in the new coordinates."""
    rng = rng_for(233, "omega-table-sheared")
    checked = 0
    for label in ("l_26", "t_8", "a_3", "t_18"):
        ext = build_extension(ExtensionTriple.with_zero_cocycle(connection_for(label)))
        n = ext.dim // 2
        for _ in range(2):
            t = seeded_sigma(n, rng, symmetric=True).entries
            p = RatMatrix(tuple(
                tuple(F(int(i == c)) if c < n or i >= n else t[i][c - n] for c in range(2 * n))
                for i in range(2 * n)
            ))
            j = Subspace.from_vectors(2 * n, [
                tuple(-t[i][k] for i in range(n)) + tuple(F(int(i == k)) for i in range(n))
                for k in range(n)
            ])
            assert any(x != 1 for row in j.rows for x in row.values())
            s = SymplecticLieAlgebra(transform(ext.algebra, p, "sheared"), standard_form(n), j)
            assert is_lagrangian_ideal(s, j).is_lagrangian
            assert typed(d_omega(s).residuals) == typed(reference.d_omega(brackets(s.algebra), form(s)))
            assert typed(induced_flat_connection(s, j).nonzero_gamma) == typed(
                defined_solve(s, j.complement_coordinates(), j.rows)
            )
            assert typed(canonical_connection(s).nonzero_gamma) == typed(
                defined_solve(s, range(s.dim), units(s.dim))
            )
            assert_solves_match(ext, j)  # J as the test space of another algebra
            checked += 1
    assert checked == 8


@pytest.mark.parametrize("n", [0, 1])
def test_the_smallest_extensions_match_the_definitions(n):
    rng = rng_for(239, "omega-table-small", n)
    triple = ExtensionTriple.with_zero_cocycle(FlatConnection.zero(LieAlgebra.abelian(n)))
    seen = Counter()
    assert_extension_matches(triple, rng, seen)
    assert seen == {"canonical": 1, "psi": 2}
    ext = build_extension(triple)
    assert_solves_match(ext)
    assert ext.pullback([]) == ()
    assert typed(ext.pullback([{}])) == ()
    if n:
        assert typed(ext.pullback([{}, {0: F(3, 2)}, {1: F(-1, 2)}])) == typed(
            (ZERO, ZERO, F(3, 4))
        )


def test_a_degenerate_pairing_still_raises():
    # On the abelian algebra every half-dimensional subspace is an ideal; with
    # omega = e1 ^ e2 the span of e3, e4 is isotropic, hence Lagrangian by the
    # dimension count, and it pairs with nothing.
    e12 = tuple(F(1) if (i, j) == (0, 1) else ZERO for i, j in combinations(range(4), 2))
    j = Subspace.from_vectors(4, [reference.unit(4, 2), reference.unit(4, 3)])
    s = SymplecticLieAlgebra(LieAlgebra.abelian(4), e12, j)
    with pytest.raises(ValueError, match="^pairing between quotient and ideal is degenerate$"):
        induced_flat_connection(s, j)
    assert defined_solve(s, j.complement_coordinates(), j.rows) is None
    zero = SymplecticLieAlgebra(
        LieAlgebra.abelian(2), (ZERO,), Subspace.from_vectors(2, [reference.unit(2, 1)])
    )
    with pytest.raises(ValueError, match="^pairing between quotient and ideal is degenerate$"):
        induced_flat_connection(zero, zero.lagrangian_ideal)


def test_a_mismatched_sigma_raises_at_the_first_failing_basis_pair(monkeypatch):
    """The second extension is built from another cocycle than the triple
    carries, so the coboundary check passes and the bracket check fails; the
    definitions find the same first pair."""
    built = extension.build_extension
    swapped = {}
    monkeypatch.setattr(
        extension, "build_extension", lambda t, name="": built(swapped.get(id(t), t), name)
    )
    rng = rng_for(241, "omega-table-mismatch")
    pairs = set()
    for label in ("l_26", "t_8", "a_3", "t_18", "l_38", "a_10"):
        conn = connection_for(label)
        rep = dual_representation(conn)
        t1 = ExtensionTriple(conn, random_lagrangian_cocycle(conn, rng))
        for symmetric in (True, False):
            sigma = seeded_sigma(conn.dim, rng, symmetric)
            t2 = ExtensionTriple(conn, t1.cocycle - coboundary_1(rep, sigma))
            for other in (t1, ExtensionTriple(conn, random_lagrangian_cocycle(conn, rng))):
                swapped.clear()
                swapped[id(t2)] = other
                live = outcome(lambda: equivalence_map_psi(t1, t2, sigma))
                assert live[0] is IntegrityError
                assert live == outcome(lambda: defined_psi(built(t1), built(other), sigma))
                pairs.add(live[1])
    assert len(pairs) > 1


@pytest.mark.parametrize("label", ["l_26", "t_8"])
def test_a_second_extension_with_one_moved_bracket_fails_at_that_pair(monkeypatch, label):
    """A genuine shift, with the second extension's bracket moved at the
    p-th basis pair only, the last pair of two dual vectors included.  For
    sigma = 0 psi is the identity and fails at that pair; for a seeded sigma
    the definitions find the first failing pair."""
    built = extension.build_extension
    moved = {}

    def patched(t, name=""):
        s = built(t, name)
        if t is not moved["triple"]:
            return s
        p, pairs = moved["pair"], list(s.algebra.pairs)
        cell = dict(pairs[p])
        cell[0] = cell.get(0, ZERO) + F(1, 2)
        pairs[p] = tuple(sorted((k, x) for k, x in cell.items() if x))
        return SymplecticLieAlgebra(LieAlgebra(s.dim, tuple(pairs)), s.form, s.lagrangian_ideal)

    monkeypatch.setattr(extension, "build_extension", patched)
    conn = connection_for(label)
    n = conn.dim
    rng = rng_for(257, "omega-table-moved", label)
    t1 = ExtensionTriple(conn, random_lagrangian_cocycle(conn, rng))
    basis_pairs = list(combinations(range(2 * n), 2))
    for sigma in (OneCochain.zero(n), seeded_sigma(n, rng, symmetric=False)):
        t2 = ExtensionTriple(conn, t1.cocycle - coboundary_1(dual_representation(conn), sigma))
        moved["triple"] = t2
        for p in (0, 5, len(basis_pairs) // 2, len(basis_pairs) - 1):
            moved["pair"] = p
            live = outcome(lambda: equivalence_map_psi(t1, t2, sigma))
            assert live[0] is IntegrityError
            assert live == outcome(lambda: defined_psi(built(t1), patched(t2), sigma))
            if not any(map(any, sigma.entries)):
                a, b = basis_pairs[p]
                assert live[1] == f"bracket preservation fails at basis pair ({a+1},{b+1})"


# ---------------------------------------------------------------------------
# counting pin
# ---------------------------------------------------------------------------


def test_the_extend_pipeline_builds_w_once_and_reads_no_vector_evaluator(monkeypatch):
    """name, dw, nilpotency, induced, canonical and psi, as ``lagext extend``
    runs them: W is built once, for the named form, and neither omega solve
    nor psi calls ``bracket_rows`` or ``omega_row``; each solve inverts its
    pairing by one elimination."""
    calls = Counter()

    def counted(owner, name, key=None):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[key or name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    tables = []
    omega_table = extension._omega_table
    monkeypatch.setattr(extension, "_omega_table", lambda s: tables.append(s) or omega_table(s))
    counted(LieAlgebra, "bracket_rows")
    counted(SymplecticLieAlgebra, "omega_row")
    counted(extension, "_inverse_rows")
    counted(linalg, "_echelon")
    solve = extension._omega_solve
    solves = []

    def watched_solve(*args):
        before = Counter(calls)
        gamma = solve(*args)
        solves.append(Counter(calls) - before)
        return gamma

    monkeypatch.setattr(extension, "_omega_solve", watched_solve)
    checked = 0
    for conn in flat_samples(1):
        label = conn.label
        rng = rng_for(251, "omega-table-pipeline", label)
        triple = ExtensionTriple(conn, random_lagrangian_cocycle(conn, rng))
        sigma = seeded_sigma(conn.dim, rng, symmetric=True)
        shifted = ExtensionTriple(
            conn, triple.cocycle - coboundary_1(dual_representation(conn), sigma)
        )
        del tables[:], solves[:]
        ext = build_extension(triple, name=f"{label}_ext")
        assert d_omega(ext).is_zero()
        extension_nilpotency(triple)
        induced_flat_connection(ext, ext.lagrangian_ideal)
        canonical_connection(ext)
        assert len(tables) == 1 and tables[0] is ext
        assert solves == [Counter(_inverse_rows=1, _echelon=1)] * 2
        before = Counter(calls)
        equivalence_map_psi(triple, shifted, sigma)
        assert not (Counter(calls) - before)["bracket_rows"]
        assert not (Counter(calls) - before)["omega_row"]
        assert len(tables) == 1
        checked += 1
    assert checked == 64


@pytest.mark.parametrize("closed", [True, False], ids=["closed", "open"])
def test_d_omega_answers_by_truthiness_without_fraction_comparisons(monkeypatch, closed):
    """is_zero, witnesses and first_witness read each residual's truthiness:
    no Fraction.__eq__ or __ne__ per basis triple, on a closed form and on a
    form whose dw has witnesses."""
    conn = connection_for("t_8")
    ext = build_extension(ExtensionTriple(conn, random_lagrangian_cocycle(conn, rng_for(7, "t_8"))))
    s = ext if closed else SymplecticLieAlgebra(ext.algebra, tuple(F(p + 1) for p in range(28)))
    result = s.d_omega_result
    expected = reference.d_omega(brackets(s.algebra), form(s))
    compared = Counter()
    for name in ("__eq__", "__ne__"):
        real = getattr(F, name)
        monkeypatch.setattr(F, name, lambda a, b, _r=real, _n=name: compared.update([_n]) or _r(a, b))
    answers = (result.is_zero(), result.witnesses(), result.first_witness())
    monkeypatch.undo()
    assert not compared
    witnesses = tuple((t, v) for t, v in expected if v)
    first = [f"d_omega({i},{j},{k}) = {v}" for (i, j, k), v in witnesses][:1]
    assert answers[0] == (not witnesses) == closed
    assert typed(answers[1]) == typed(witnesses)
    assert answers[2] == "".join(first)
