from dataclasses import replace
from fractions import Fraction as F
from itertools import combinations

import pytest

import reference
from inputs import (
    brackets,
    counting,
    flat_samples,
    fresh_standard_forms,
    gamma,
    perturbed,
    random_cocycle,
    random_lagrangian_cocycle,
    rho,
    seeded_directions,
    typed,
    unit_cochain,
    with_separate_form,
)
from lagext.catalog import base_algebra, connection_for
from lagext.cohomology import (
    OneCochain,
    ThreeCochain,
    TwoCochain,
    coboundary_1,
    coboundary_2,
    cocycle_bases,
)
from lagext.connection import FlatConnection, dual_representation
from lagext import extension, lie
from lagext.extension import (
    CocycleError,
    ExtensionTriple,
    IntegrityError,
    NilpotencyCertificate,
    SymplecticForm,
    SymplecticLieAlgebra,
    adjusted_symplectic_form,
    build_extension,
    canonical_connection,
    classify_and_reduce,
    d_omega,
    dual_subspace,
    equivalence_map_psi,
    extension_nilpotency,
    induced_flat_connection,
    is_lagrangian_ideal,
    standard_form,
    symplectic_orthogonal,
)
from lagext.lie import LieAlgebra, center, check_jacobi, lower_central_series
from lagext.linalg import RatMatrix, Subspace, unit_vector, vec
from lagext.sampling import random_rational, rng_for
from lagext.verify import run_verify_catalog

# The seeded directions of the reference condition sum.
NILPOTENCY_DIRECTION_COUNT = 8
NILPOTENCY_DIRECTION_SEED = "extension-nilpotency-directions"


def triple(label, alpha=None, **params):
    conn = connection_for(label, **params)
    if alpha is None:
        alpha = TwoCochain.zero(4)
    return ExtensionTriple(conn, alpha)


# ---------------------------------------------------------------------------
# build_extension
# ---------------------------------------------------------------------------


def test_extension_of_l26_has_expected_brackets():
    ext = build_extension(triple("l_26"))
    assert ext.dim == 8
    nonzero = {
        (i + 1, j + 1): ext.algebra.bracket[i][j]
        for i in range(8)
        for j in range(i + 1, 8)
        if any(x != 0 for x in ext.algebra.bracket[i][j])
    }
    assert set(nonzero) == {(1, 2), (1, 7), (2, 7)}
    assert nonzero[(1, 2)] == vec((0, 0, 1, 0, 0, 0, 0, 0))
    assert nonzero[(1, 7)] == vec((0, 0, 0, 0, 0, F(-1, 2), 0, 0))
    assert nonzero[(2, 7)] == vec((0, 0, 0, 0, F(1, 2), 0, 0, 0))
    assert check_jacobi(ext.algebra) == ()


def test_extension_of_zero_connection_is_abelian_with_standard_form():
    for n in (2, 3, 4):
        conn = FlatConnection.zero(LieAlgebra.abelian(n))
        ext = build_extension(ExtensionTriple(conn, TwoCochain.zero(n)))
        assert ext.algebra.bracket == LieAlgebra.abelian(2 * n).bracket
        assert ext.form == standard_form(n)
        assert ext.omega.entries == reference.standard_omega(n)


def test_extension_of_the_zero_dimensional_connection_is_the_zero_algebra():
    conn = FlatConnection.zero(LieAlgebra.abelian(0))
    assert coboundary_2(dual_representation(conn), TwoCochain.zero(0)) == ThreeCochain(0, ())
    ext = build_extension(ExtensionTriple.with_zero_cocycle(conn))
    assert (ext.dim, ext.algebra.pairs) == (0, ())
    assert ext.form == standard_form(0) == SymplecticForm(0, ())
    assert ext.lagrangian_ideal == Subspace.zero(0)


def test_extension_of_a10_single_bracket():
    ext = build_extension(triple("a_10"))
    nonzero = [
        (i + 1, j + 1, ext.algebra.bracket[i][j])
        for i in range(8)
        for j in range(i + 1, 8)
        if any(x != 0 for x in ext.algebra.bracket[i][j])
    ]
    assert nonzero == [(4, 5, vec((0, 0, 0, 0, 0, 0, 0, -1)))]
    assert [s.dim for s in lower_central_series(ext.algebra)] == [8, 1, 0]


def test_extension_rejects_non_cocycle():
    conn = connection_for("t_8")
    alpha = TwoCochain.from_pairs(4, {(0, 1): (0, 1, 0, 0)})  # d2 residual at (1,2,4)
    with pytest.raises(CocycleError) as excinfo:
        build_extension(ExtensionTriple(conn, alpha))
    assert excinfo.value.witnesses[0][0] == (1, 2, 4)


def test_failed_build_raises_on_every_call():
    conn = connection_for("t_8")
    bad = ExtensionTriple(conn, TwoCochain.from_pairs(4, {(0, 1): (0, 1, 0, 0)}))
    raised = []
    for _ in range(3):
        with pytest.raises(CocycleError) as excinfo:
            build_extension(bad)
        raised.append((str(excinfo.value), excinfo.value.witnesses))
    assert raised[0] == raised[1] == raised[2]
    assert raised[0][1][0][0] == (1, 2, 4)


def test_build_is_kept_per_triple_and_renamed_on_request():
    t = triple("l_26")
    ext = build_extension(t)
    assert build_extension(t) is ext
    assert ext.algebra.name == "ext(l_26)"
    named = build_extension(t, name="l_26_ext")
    assert named.name == "l_26_ext"
    assert named.algebra is ext.algebra
    assert named.source is t.connection
    assert (named.omega, named.lagrangian_ideal) == (ext.omega, ext.lagrangian_ideal)
    # Derived labels read the extension's name, or its algebra's without one.
    for s, label in ((ext, "ext(l_26)"), (named, "l_26_ext")):
        assert induced_flat_connection(s, s.lagrangian_ideal).label == f"induced({label})"
        assert canonical_connection(s).label == f"canonical({label})"
    assert build_extension(t) is ext


def test_extension_rejects_non_flat_connection():
    conn = FlatConnection.zero(base_algebra("l"))  # torsion nonzero
    with pytest.raises(ValueError):
        build_extension(ExtensionTriple(conn, TwoCochain.zero(4)))


# ---------------------------------------------------------------------------
# d_omega / Bianchi
# ---------------------------------------------------------------------------


def test_d_omega_zero_for_l26_cotangent_extension():
    result = d_omega(build_extension(triple("l_26")))
    assert result.is_zero()
    assert dict(result.residuals)[(1, 2, 7)] == 0


def test_d_omega_abelian_standard_form():
    sympl = SymplecticLieAlgebra(LieAlgebra.abelian(6), standard_form(3))
    assert d_omega(sympl).is_zero()


def test_d_omega_detects_bianchi_violation():
    conn = FlatConnection.zero(LieAlgebra.abelian(4))
    alpha = TwoCochain.from_pairs(4, {(0, 1): (0, 0, 1, 0)})
    assert not alpha.is_lagrangian
    ext = build_extension(ExtensionTriple(conn, alpha))
    witnesses = d_omega(ext).witnesses()
    assert witnesses == (((1, 2, 3), F(-1)),)


def test_bianchi_examples():
    assert TwoCochain.zero(4).is_lagrangian
    assert not TwoCochain.from_pairs(4, {(0, 1): (0, 0, 1, 0)}).is_lagrangian
    rng = rng_for(10, "bianchi-coboundary")
    rep = dual_representation(connection_for("l_26"))
    for _ in range(5):
        rows = [[random_rational(rng) for _ in range(4)] for _ in range(4)]
        for i in range(4):
            for k in range(i):
                rows[i][k] = rows[k][i]
        sigma = OneCochain.from_rows(rows)
        assert coboundary_1(rep, sigma).is_lagrangian


def test_bianchi_iff_closed_on_sampled_cocycles():
    rng = rng_for(11, "bianchi-iff-closed")
    for label in ("l_26", "a_3", "t_8"):
        conn = connection_for(label)
        for _ in range(10):
            alpha = random_cocycle(conn, rng)
            ext = build_extension(ExtensionTriple(conn, alpha))
            assert d_omega(ext).is_zero() == alpha.is_lagrangian


# ---------------------------------------------------------------------------
# ideals, orthogonals, reduction
# ---------------------------------------------------------------------------


def test_dual_space_is_lagrangian_normal_ideal():
    ext = build_extension(triple("l_26"))
    verdict = is_lagrangian_ideal(ext, ext.lagrangian_ideal)
    assert verdict.status == "lagrangian" and verdict.normal


def test_base_factor_is_isotropic_but_not_ideal():
    ext = build_extension(triple("l_26"))
    j = Subspace.from_vectors(8, [unit_vector(8, i) for i in range(4)])
    verdict = is_lagrangian_ideal(ext, j)
    assert verdict.status == "not_ideal"


def test_mixed_plane_is_not_isotropic():
    ext = build_extension(triple("l_26"))
    j = Subspace.from_vectors(8, [unit_vector(8, 0), unit_vector(8, 4)])
    assert is_lagrangian_ideal(ext, j).status == "not_isotropic"


def test_symplectic_orthogonal_basics():
    ext = build_extension(triple("l_26"))
    dual = ext.lagrangian_ideal
    assert symplectic_orthogonal(ext, dual).basis == dual.basis
    assert symplectic_orthogonal(ext, Subspace.zero(8)).dim == 8
    line = Subspace.from_vectors(8, [unit_vector(8, 0)])
    perp = symplectic_orthogonal(ext, line)
    assert perp.dim == 7
    assert not perp.contains(unit_vector(8, 4))  # e^1 pairs with e1


def test_the_shared_form_answers_as_a_separately_built_one_on_every_flat_sample():
    """Every zero-class extension holds standard_form(4), which keeps J's
    orthogonal and isotropy across the samples, keyed by J's int rows; a form
    built apart from equal coordinates, which has kept nothing, gives the
    same orthogonal, isotropy and verdict on the dual half, the primal half,
    the center, the derived algebra and a seeded line of each extension."""
    rng = rng_for(263, "shared-form")
    primal = Subspace.from_vectors(8, [unit_vector(8, i) for i in range(4)])
    checked = 0
    for conn in flat_samples(3):
        ext = build_extension(ExtensionTriple.with_zero_cocycle(conn))
        assert ext.form is standard_form(4)
        apart = with_separate_form(ext)
        line = Subspace.from_vectors(8, [tuple(random_rational(rng) for _ in range(8))])
        derived = lower_central_series(ext.algebra)[1]
        for j in (ext.lagrangian_ideal, primal, center(ext.algebra), derived, line):
            assert typed(symplectic_orthogonal(ext, j)) == typed(symplectic_orthogonal(apart, j))
            assert ext.form.is_isotropic(j) == apart.form.is_isotropic(j)
            assert is_lagrangian_ideal(ext, j) == is_lagrangian_ideal(apart, j)
        checked += 1
    assert checked == 108


@pytest.mark.parametrize("first", [0, 1])
def test_the_empty_forms_of_dimension_0_and_1_share_no_state(first):
    """() is the pair tuple of both forms; each carries its dimension, so the
    two are unequal and keep their own results, whichever is asked first."""
    forms = {n: SymplecticForm(n, ()) for n in (0, 1)}
    assert forms[0] != forms[1] and len(set(forms.values())) == 2
    assert standard_form(0) == forms[0] != forms[1]
    for n in (first, 1 - first):
        form = forms[n]
        # a zero J has no int rows, the same key in either form
        assert form.orthogonal(Subspace.zero(n)) == Subspace.full(n)
        assert form.is_isotropic(Subspace.zero(n))
        assert form.is_nondegenerate == (n == 0)
        assert form.omega.rows == n
    for n in (0, 1):
        with pytest.raises(ValueError, match="^omega shape does not match algebra dimension$"):
            SymplecticLieAlgebra(LieAlgebra.abelian(1 - n), forms[n])
    assert canonical_connection(SymplecticLieAlgebra(LieAlgebra.abelian(0), forms[0])).dim == 0
    with pytest.raises(ValueError, match="^omega is degenerate$"):
        canonical_connection(SymplecticLieAlgebra(LieAlgebra.abelian(1), forms[1]))


def test_a_sweep_computes_each_orthogonal_once_per_form_and_subspace(monkeypatch):
    """Over the ``verify-catalog --samples 3`` sweep, the ideal verdict of
    each of the 108 zero-class extensions asks for the orthogonal of h* in
    one fresh standard form, which computes it once."""
    fresh_standard_forms(monkeypatch)
    calls = counting(monkeypatch, extension, ["_kernel"])
    asked, forms = set(), []
    orthogonal = extension.symplectic_orthogonal

    def watched_orthogonal(s, j):
        forms.append(s.form)
        asked.add((id(s.form), tuple(tuple(u.items()) for u in j.ints)))
        return orthogonal(s, j)

    monkeypatch.setattr(extension, "symplectic_orthogonal", watched_orthogonal)
    records, code = run_verify_catalog(3)
    assert (len(records), code) == (1062, 1)
    assert len(forms) == 108
    assert calls["_kernel"] == len(asked) == 1


def test_reduction_by_lagrangian_ideal_is_zero_algebra():
    ext = build_extension(triple("l_26"))
    verdict, reduced = classify_and_reduce(ext, ext.lagrangian_ideal)
    assert (verdict.status, verdict.normal) == ("lagrangian", True)
    assert reduced.dim == 0


def test_reduction_by_zero_ideal_returns_same_structure():
    ext = build_extension(triple("a_10"))
    _, reduced = classify_and_reduce(ext, Subspace.zero(8))
    assert reduced.algebra.bracket == ext.algebra.bracket
    assert reduced.omega.entries == ext.omega.entries


def test_reduction_by_central_isotropic_line():
    ext = build_extension(triple("l_26"))
    line = Subspace.from_vectors(8, [unit_vector(8, 4)])  # e^1, central
    verdict = is_lagrangian_ideal(ext, line)
    assert verdict.status == "isotropic" and verdict.normal
    _, reduced = classify_and_reduce(ext, line)
    assert reduced.dim == 6
    assert d_omega(reduced).is_zero()
    assert reduced.omega.is_invertible()


def test_reduction_rejects_non_isotropic():
    ext = build_extension(triple("l_26"))
    j = Subspace.from_vectors(8, [unit_vector(8, 0), unit_vector(8, 4)])
    verdict, reduced = classify_and_reduce(ext, j)
    assert (verdict.status, reduced) == ("not_isotropic", None)


@pytest.mark.parametrize("k, dim", [(0, 6), (3, 6), (None, 0)])  # span(e^1), span(e^4), the dual half
def test_reduction_computes_one_orthogonal_and_one_classification(monkeypatch, k, dim):
    ext = build_extension(triple("l_26"))
    j = ext.lagrangian_ideal if k is None else Subspace.from_vectors(8, [unit_vector(8, 4 + k)])
    calls = counting(monkeypatch, extension, ["symplectic_orthogonal", "_classify_ideal"])
    assert classify_and_reduce(ext, j)[1].dim == dim
    assert calls == {"symplectic_orthogonal": 1, "_classify_ideal": 1}


def test_a_refused_reduction_classifies_once_and_keeps_its_message(monkeypatch):
    ext = build_extension(triple("l_26"))
    calls = counting(monkeypatch, extension, ["symplectic_orthogonal", "_classify_ideal"])
    j = Subspace.from_vectors(8, [unit_vector(8, 0), unit_vector(8, 4)])
    verdict, reduced = classify_and_reduce(ext, j)
    assert (verdict.status, reduced) == ("not_isotropic", None)
    assert calls == {"symplectic_orthogonal": 1, "_classify_ideal": 1}


def test_the_ideal_is_checked_once_per_round_trip_and_reduction(monkeypatch):
    # The verdict has checked J an ideal (the Lagrangian J is its own
    # orthogonal), so the quotient does not check it again; a reduction by
    # span(e^4) checks its orthogonal and J, and not J inside the orthogonal.
    calls = []
    real = LieAlgebra.is_ideal

    def counted(algebra, sub):
        calls.append(sub.dim)
        return real(algebra, sub)

    monkeypatch.setattr(LieAlgebra, "is_ideal", counted)
    t = triple("l_26")
    ext = build_extension(t)
    assert induced_flat_connection(ext, ext.lagrangian_ideal).nonzero_gamma == t.connection.nonzero_gamma
    assert calls == [4]
    calls.clear()
    assert classify_and_reduce(ext, Subspace.from_vectors(8, [unit_vector(8, 7)]))[1].dim == 6
    assert calls == [7, 1]


def test_each_bracket_table_is_scaled_once(monkeypatch):
    # Jacobi in the build, d(omega) of the extension and of its named copy,
    # and Jacobi of the copy all read one scaling of the extension's table.
    scaled = []
    for module in (lie, extension):
        def recording(cells, _real=module._integer_tables):
            scaled.append(cells)
            return _real(cells)

        monkeypatch.setattr(module, "_integer_tables", recording)
    t = triple("l_26")
    ext = build_extension(t)
    named = build_extension(t, name="l_26_ext")
    assert ext.d_omega_result.is_zero() and named.d_omega_result.is_zero()
    assert check_jacobi(named.algebra) == ()
    assert sum(table is ext.algebra.pairs for table in scaled) == 1


@pytest.mark.parametrize("label", ["l_26", "t_8", "a_3"])
def test_the_flat_sweep_certifies_the_quotient_of_the_induced_connection(monkeypatch, label):
    """No Jacobi check is made on the quotient: the flat torsion-free sweep of
    the induced connection over it is its certificate, so a quotient with one
    corrupted cell is refused."""
    def corrupted(algebra, ideal, name="", _real=extension._quotient):
        q = _real(algebra, ideal, name)
        first = q.pairs[0]
        cell = ((first[0][0], 2 * first[0][1]), *first[1:]) if first else ((q.dim - 1, F(1)),)
        return LieAlgebra(q.dim, (cell, *q.pairs[1:]), q.name)

    monkeypatch.setattr(extension, "_quotient", corrupted)
    ext = build_extension(triple(label))
    with pytest.raises(
        IntegrityError, match="^induced connection failed the flat torsion-free check$"
    ):
        induced_flat_connection(ext, ext.lagrangian_ideal)


def isotropy(s, j):
    return s.form.is_isotropic(j)


@pytest.mark.parametrize(
    "function",
    [symplectic_orthogonal, is_lagrangian_ideal, induced_flat_connection, classify_and_reduce, isotropy],
)
@pytest.mark.parametrize("ambient", [4, 10])
def test_a_subspace_of_another_ambient_dimension_is_rejected(function, ambient):
    ext = build_extension(triple("l_26"))
    j = Subspace.from_vectors(ambient, [unit_vector(ambient, 0)])
    with pytest.raises(ValueError, match="^ambient dimension mismatch$"):
        function(ext, j)


def test_the_induced_connection_rejects_a_zero_ideal_of_another_size_on_the_zero_algebra():
    s = SymplecticLieAlgebra(LieAlgebra.abelian(0), SymplecticForm(0, ()))
    assert induced_flat_connection(s, Subspace.zero(0)).dim == 0
    with pytest.raises(ValueError, match="^ambient dimension mismatch$"):
        induced_flat_connection(s, Subspace.zero(2))


@pytest.mark.parametrize("ambient", [0, 4, 10])
def test_the_zero_subspace_of_any_ambient_dimension_has_the_full_orthogonal(ambient):
    ext = build_extension(triple("l_26"))
    zero = Subspace.zero(ambient)
    assert symplectic_orthogonal(ext, zero) == Subspace.full(8)
    verdict = is_lagrangian_ideal(ext, zero)
    assert (verdict.status, verdict.normal) == ("isotropic", True)
    assert classify_and_reduce(ext, zero)[1].algebra.pairs == ext.algebra.pairs


# ---------------------------------------------------------------------------
# induced and canonical connections
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("label", ["l_26", "a_10", "t_8", "a_3"])
def test_round_trip_recovers_gamma(label):
    conn = connection_for(label)
    ext = build_extension(ExtensionTriple(conn, TwoCochain.zero(4)))
    recovered = induced_flat_connection(ext, ext.lagrangian_ideal)
    assert recovered.gamma == conn.gamma


def test_round_trip_with_random_lagrangian_cocycles():
    rng = rng_for(12, "roundtrip")
    for label in ("l_26", "t_8"):
        conn = connection_for(label)
        for _ in range(3):
            alpha = random_lagrangian_cocycle(conn, rng)
            ext = build_extension(ExtensionTriple(conn, alpha))
            recovered = induced_flat_connection(ext, ext.lagrangian_ideal)
            assert recovered.gamma == conn.gamma


def test_induced_connection_on_abelian_split_is_zero():
    sympl = SymplecticLieAlgebra(
        LieAlgebra.abelian(8), standard_form(4), dual_subspace(4)
    )
    conn = induced_flat_connection(sympl, dual_subspace(4))
    assert all(
        all(x == 0 for x in conn.gamma[i][j]) for i in range(4) for j in range(4)
    )
    # the primal half is also a Lagrangian ideal of the abelian algebra
    primal = Subspace.from_vectors(8, [unit_vector(8, i) for i in range(4)])
    verdict = is_lagrangian_ideal(sympl, primal)
    assert verdict.is_lagrangian and verdict.normal
    conn2 = induced_flat_connection(sympl, primal)
    assert all(
        all(x == 0 for x in conn2.gamma[i][j]) for i in range(4) for j in range(4)
    )


def test_induced_connection_requires_lagrangian():
    ext = build_extension(triple("l_26"))
    line = Subspace.from_vectors(8, [unit_vector(8, 4)])
    with pytest.raises(ValueError):
        induced_flat_connection(ext, line)


def test_canonical_connection_on_abelian_is_zero():
    sympl = SymplecticLieAlgebra(LieAlgebra.abelian(4), standard_form(2))
    conn = canonical_connection(sympl)
    assert all(
        all(x == 0 for x in conn.gamma[i][j]) for i in range(4) for j in range(4)
    )


@pytest.mark.parametrize("label", ["l_26", "a_10"])
def test_canonical_connection_on_extensions_is_flat_torsion_free(label):
    # check_flat_torsion_free is run inside canonical_connection; failure raises
    ext = build_extension(triple(label))
    conn = canonical_connection(ext)
    assert conn.dim == 8


def test_canonical_connection_requires_symplectic():
    conn = FlatConnection.zero(LieAlgebra.abelian(4))
    alpha = TwoCochain.from_pairs(4, {(0, 1): (0, 0, 1, 0)})
    ext = build_extension(ExtensionTriple(conn, alpha))  # omega not closed here
    with pytest.raises(ValueError):
        canonical_connection(ext)


# ---------------------------------------------------------------------------
# non-coordinate-aligned ideals (general basis)
# ---------------------------------------------------------------------------


def _random_invertible(rng, n):
    while True:
        p = RatMatrix.from_rows(
            [[random_rational(rng) for _ in range(n)] for _ in range(n)]
        )
        if p.is_invertible():
            return p


def _transformed_extension(label, seed):
    """The extension of `label` rewritten in a random basis, plus the change."""
    from lagext.lie import transform

    ext = build_extension(triple(label))
    rng = rng_for(seed, "skew-basis", label)
    p = _random_invertible(rng, 8)
    algebra = transform(ext.algebra, p)
    omega = p.transpose() @ ext.omega @ p
    p_inv = p.inverse()
    ideal = Subspace.from_vectors(8, list(zip(*p_inv.entries))[4:])
    form = tuple(omega[i, j] for i, j in combinations(range(8), 2))
    return SymplecticLieAlgebra(algebra, SymplecticForm(8, form)), ideal, p


def test_skewed_lagrangian_ideal_detected_and_quotient_matches_base():
    from lagext.lie import fingerprint, quotient_algebra

    for label in ("l_26", "t_8"):
        sympl, ideal, _ = _transformed_extension(label, 21)
        sympl.validate()
        verdict = is_lagrangian_ideal(sympl, ideal)
        assert verdict.is_lagrangian and verdict.normal
        # induced connection exists, is flat torsion-free and complete
        # (verified inside); its base is the quotient in a new basis, so
        # compare through the fingerprint
        conn = induced_flat_connection(sympl, ideal)
        base = connection_for(label).base
        assert fingerprint(conn.base) == fingerprint(base)
        assert fingerprint(quotient_algebra(sympl.algebra, ideal)) == fingerprint(base)


def test_skewed_reduction_by_isotropic_line():
    sympl, ideal, p = _transformed_extension("l_26", 22)
    p_inv = p.inverse()
    line = Subspace.from_vectors(8, list(zip(*p_inv.entries))[4:5])  # image of e^1, central
    verdict = is_lagrangian_ideal(sympl, line)
    assert verdict.status == "isotropic" and verdict.normal
    _, reduced = classify_and_reduce(sympl, line)
    assert reduced.dim == 6
    assert d_omega(reduced).is_zero() and reduced.omega.is_invertible()


def test_graph_lagrangian_in_abelian_extension():
    # the graph of a symmetric matrix over the primal half is Lagrangian
    sympl = SymplecticLieAlgebra(LieAlgebra.abelian(8), standard_form(4))
    rng = rng_for(23, "graph")
    s = _symmetric_matrix(rng)
    vectors = []
    for i in range(4):
        v = [F(0)] * 8
        v[i] = F(1)
        for k in range(4):
            v[4 + k] = s[i][k]
        vectors.append(tuple(v))
    graph = Subspace.from_vectors(8, vectors)
    verdict = is_lagrangian_ideal(sympl, graph)
    assert verdict.is_lagrangian and verdict.normal
    conn = induced_flat_connection(sympl, graph)
    assert all(
        all(x == 0 for x in conn.gamma[i][j]) for i in range(4) for j in range(4)
    )


def _symmetric_matrix(rng):
    rows = [[random_rational(rng) for _ in range(4)] for _ in range(4)]
    for i in range(4):
        for k in range(i):
            rows[i][k] = rows[k][i]
    return rows


# ---------------------------------------------------------------------------
# nilpotency certificates
# ---------------------------------------------------------------------------


def test_nilpotency_of_l26_extension():
    cert = extension_nilpotency(triple("l_26"))
    assert cert.nilpotent and cert.extension_class == 2
    assert cert.lcs_dims == (8, 3, 0)
    assert cert.base_nilpotent and cert.complete and cert.condition_sum_ok


def test_nilpotency_of_a3_extension():
    cert = extension_nilpotency(triple("a_3"))
    assert cert.nilpotent
    assert cert.lcs_dims == (8, 3, 2, 1, 0)
    assert cert.extension_class == 4


def test_nilpotency_with_any_cocycle_over_zero_connection():
    conn = FlatConnection.zero(LieAlgebra.abelian(4))
    rng = rng_for(13, "zero-conn-nilpotency")
    for _ in range(5):
        alpha = random_cocycle(conn, rng)
        cert = extension_nilpotency(ExtensionTriple(conn, alpha))
        assert cert.nilpotent
        assert cert.extension_class is not None and cert.extension_class <= 2


def test_nilpotency_paths_agree_across_catalog_samples():
    for label in ("l_26", "a_10", "t_8", "t_18", "l_38"):
        cert = extension_nilpotency(triple(label))
        assert cert.nilpotent == cert.conditions_verdict == True  # noqa: E712


def reference_condition_sum(conn, alpha, p):
    """Path (b) sampled on the basis and the seeded random directions, for
    every cocycle, as extension_nilpotency did before its alpha = 0 case:
    sum_j rho(x)^j alpha(x, ad_x^{p-1-j} e_b) = 0 for every direction x and b."""
    n = conn.dim
    c, rhos = brackets(conn.base), rho(conn)
    a = reference.cochain_tensor(n, alpha.values)
    directions = [unit_vector(n, i) for i in range(n)] + seeded_directions(
        NILPOTENCY_DIRECTION_SEED, conn.label or "conn", n, NILPOTENCY_DIRECTION_COUNT
    )
    for x in directions:
        ad_x, rho_x = reference.ad(c, x), reference.rho_of(rhos, x)
        powers = [reference.units(n)]
        for _ in range(p - 1):
            powers.append([reference.apply(ad_x, v) for v in powers[-1]])
        for b in range(n):
            total = (F(0),) * n
            for jj in range(p):
                term = reference.bilinear(a, x, powers[p - 1 - jj][b])
                for _ in range(jj):
                    term = reference.apply(rho_x, term)
                total = reference.add(total, term)
            if any(total):
                return False
    return True


def expected_certificate(triple, sampled_condition_sum):
    """The certificate from the reference: the lower central series of the
    extension's bracket, the class of the base, the uniform nilindex of rho,
    the trace criterion, and the sampled path (b) for a nonzero cocycle."""
    conn = triple.connection
    n = conn.dim
    c, g = brackets(conn.base), gamma(conn)
    rhos = reference.rho(g)
    lcs_dims = tuple(
        s.dim for s in reference.lower_central_series(
            reference.extension_tensor(c, rhos, triple.cocycle.values)
        )
    )
    verdict_a = lcs_dims[-1] == 0
    base = reference.lower_central_series(c)
    base_class = len(base) - 1 if base[-1].dim == 0 else None
    condition_ok = p = None
    if base_class is not None:
        rho_index = reference.nilindex(rhos, n)
        p = max(1, base_class + (rho_index if rho_index is not None else n))
        alpha = triple.cocycle
        condition_ok = alpha.is_zero() or sampled_condition_sum(conn, alpha, p)
    return NilpotencyCertificate(
        nilpotent=verdict_a,
        lcs_dims=lcs_dims,
        extension_class=len(lcs_dims) - 1 if verdict_a else None,
        base_nilpotent=base_class is not None,
        complete=reference.completeness(g)[0],
        condition_sum_ok=condition_ok,
        power_bound=p,
    )


def test_zero_cocycle_certificate_matches_sampled_reference():
    checked = 0
    for conn in flat_samples():
        t = ExtensionTriple.with_zero_cocycle(conn)
        cert = extension_nilpotency(t)
        assert reference_condition_sum(conn, t.cocycle, cert.power_bound) is True
        assert cert.condition_sum_ok is True
        assert cert == expected_certificate(t, reference_condition_sum)
        checked += 1
    assert checked == 108


def test_condition_sum_verdict_matches_reference_on_nonzero_cocycles():
    rng = rng_for(29, "condition-sum-reference")
    for label in ("l_26", "a_3", "t_8", "a_10"):
        conn = connection_for(label)
        for draw in (random_lagrangian_cocycle, random_cocycle):
            alpha = draw(conn, rng)
            assert not alpha.is_zero()
            t = ExtensionTriple(conn, alpha)
            cert = extension_nilpotency(t)
            assert cert.condition_sum_ok == reference_condition_sum(conn, alpha, cert.power_bound)
            assert cert == expected_certificate(t, reference_condition_sum)


def test_non_nilpotent_nabla_fails_both_paths():
    # nabla_{e1} e1 = e1: flat and torsion-free on the line, rho(e1) = -1.
    conn = FlatConnection.from_entries(LieAlgebra.abelian(1), {(0, 0): (1,)})
    cert = extension_nilpotency(ExtensionTriple.with_zero_cocycle(conn))
    assert cert.nilpotent is False and cert.lcs_dims == (2, 1)
    assert cert.conditions_verdict is False and cert.complete is False
    assert cert.condition_sum_ok is False and cert.power_bound == 2


# ---------------------------------------------------------------------------
# equivalence maps and adjusted forms
# ---------------------------------------------------------------------------


def test_psi_identity_for_zero_sigma():
    t1 = triple("l_26")
    psi = equivalence_map_psi(t1, t1, OneCochain.zero(4))
    assert psi.entries == tuple(reference.units(8))


def test_psi_random_sigma_is_bracket_isomorphism():
    rng = rng_for(14, "psi")
    t1 = triple("l_26")
    rep = dual_representation(t1.connection)
    for _ in range(5):
        rows = [[random_rational(rng) for _ in range(4)] for _ in range(4)]
        sigma = OneCochain.from_rows(rows)
        t2 = ExtensionTriple(t1.connection, t1.cocycle - coboundary_1(rep, sigma))
        psi = equivalence_map_psi(t1, t2, sigma)  # verification happens inside
        assert psi.rows == psi.cols == 8
        assert psi.is_invertible()


def test_psi_symmetric_sigma_preserves_omega():
    rng = rng_for(15, "psi-symmetric")
    t1 = triple("t_8")
    rep = dual_representation(t1.connection)
    rows = [[random_rational(rng) for _ in range(4)] for _ in range(4)]
    for i in range(4):
        for k in range(i):
            rows[i][k] = rows[k][i]
    sigma = OneCochain.from_rows(rows)
    t2 = ExtensionTriple(t1.connection, t1.cocycle - coboundary_1(rep, sigma))
    psi = equivalence_map_psi(t1, t2, sigma)
    omega = RatMatrix(reference.standard_omega(4))
    assert (psi.transpose() @ omega @ psi).entries == omega.entries


def test_psi_rejects_a_shift_that_does_not_pull_omega_back(monkeypatch):
    # The second extension carries 2 omega, so a symmetric sigma preserves the
    # brackets but pulls 2 omega back to 2 omega, not omega.
    t1 = triple("t_8")
    t2 = ExtensionTriple(t1.connection, t1.cocycle)
    targets = [t2]
    built = extension.build_extension

    def doubled(t, name=""):
        s = built(t, name)
        if not any(t is target for target in targets):
            return s
        doubled_form = SymplecticForm(s.dim, tuple(2 * x for x in s.form.values))
        return SymplecticLieAlgebra(s.algebra, doubled_form, s.lagrangian_ideal)

    monkeypatch.setattr(extension, "build_extension", doubled)
    symmetric = OneCochain.zero(4)
    with pytest.raises(
        IntegrityError, match="^pullback of omega under a Lagrangian shift must be omega$"
    ):
        equivalence_map_psi(t1, t2, symmetric)
    # A sigma that is not symmetric is not held to the pullback identity.
    rep = dual_representation(t1.connection)
    sigma = unit_cochain(4, 0, 1)
    shifted = ExtensionTriple(t1.connection, t1.cocycle - coboundary_1(rep, sigma))
    targets.append(shifted)
    assert equivalence_map_psi(t1, shifted, sigma).rows == 8


def test_psi_rejects_unrelated_cocycles():
    t1 = triple("l_26")
    rep = dual_representation(t1.connection)
    _, z2l = cocycle_bases(rep)
    # a cocycle that is NOT a coboundary of the supplied sigma
    alpha = TwoCochain.unflatten(4, z2l.basis[0])
    t2 = ExtensionTriple(t1.connection, alpha)
    from lagext.cohomology import coboundary_1 as d1

    if (t1.cocycle - d1(rep, OneCochain.zero(4))).tensor == alpha.tensor:
        pytest.skip("degenerate choice")
    with pytest.raises(ValueError):
        equivalence_map_psi(t1, t2, OneCochain.zero(4))


def test_psi_compares_the_connection_tables_and_bases_only():
    t1 = triple("l_26")
    sigma = OneCochain.zero(4)
    moved = perturbed(t1.connection, rng_for(17, "psi-one-cell"))
    assert moved.base == t1.connection.base
    with pytest.raises(ValueError, match=r"^triples must share the same connection$"):
        equivalence_map_psi(t1, ExtensionTriple(moved, t1.cocycle), sigma)
    # The label and the base's name are not part of the connection's value.
    relabelled = replace(t1.connection, label="relabelled")
    renamed = replace(t1.connection, base=replace(t1.connection.base, name="other"))
    assert renamed.base != t1.connection.base
    for other in (relabelled, renamed):
        psi = equivalence_map_psi(t1, ExtensionTriple(other, t1.cocycle), sigma)
        assert psi.entries == tuple(reference.units(8))


def test_adjusted_form_equals_standard_when_sigmas_match():
    t = triple("l_26")
    rng = rng_for(16, "adjusted-equal")
    rows = [[random_rational(rng) for _ in range(4)] for _ in range(4)]
    for i in range(4):
        for k in range(i):
            rows[i][k] = rows[k][i]
    sigma = OneCochain.from_rows(rows)  # symmetric, also usable as sigma_l
    omega = adjusted_symplectic_form(t, sigma, sigma)
    assert omega.entries == reference.standard_omega(4)


def test_adjusted_form_unit_block_on_zero_connection():
    conn = FlatConnection.zero(LieAlgebra.abelian(4))
    t = ExtensionTriple(conn, TwoCochain.zero(4))
    sigma = unit_cochain(4, 0, 1)  # sigma(e1) = e^2
    omega = adjusted_symplectic_form(t, sigma, OneCochain.zero(4))
    # h x h block is the alternating part of (sigma_l - sigma): antisymmetric,
    # with the (e1, e2) entry equal to -1 under the pullback convention.
    assert omega[0, 1] == F(-1) and omega[1, 0] == F(1)
    assert omega[0, 4] == F(-1)  # dual pairing block unchanged
    assert omega.is_invertible()


def test_adjusted_form_closed_on_shifted_extension():
    rng = rng_for(17, "adjusted-closed")
    for label in ("l_26", "t_8"):
        t = triple(label)
        rep = dual_representation(t.connection)
        for _ in range(3):
            sigma = OneCochain.from_rows(
                [[random_rational(rng) for _ in range(4)] for _ in range(4)]
            )
            rows = [[random_rational(rng) for _ in range(4)] for _ in range(4)]
            for i in range(4):
                for k in range(i):
                    rows[i][k] = rows[k][i]
            sigma_l = OneCochain.from_rows(rows)
            omega = adjusted_symplectic_form(t, sigma, sigma_l)
            # closedness on the shifted extension is verified inside; re-verify
            alpha_bar = t.cocycle - coboundary_1(rep, sigma)
            shifted = build_extension(ExtensionTriple(t.connection, alpha_bar))
            assert d_omega(shifted, omega).is_zero()
            assert omega.is_invertible()
            for i in range(8):
                for j in range(8):
                    assert omega[i, j] == -omega[j, i]


def test_adjusted_form_requires_symmetric_sigma_l():
    t = triple("l_26")
    with pytest.raises(ValueError):
        adjusted_symplectic_form(t, OneCochain.zero(4), unit_cochain(4, 0, 1))
