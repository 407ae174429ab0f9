from fractions import Fraction as F

import pytest
from click.testing import CliRunner

from lagext.catalog import base_algebra
from lagext.cli import main
from lagext.lie import (
    LieAlgebra,
    bracket_of_subspaces,
    check_jacobi,
    derived_series,
    fingerprint,
    lower_central_series,
    nilpotency_class,
    quotient_algebra,
    require_jacobi,
    transform,
)
from lagext.linalg import RatMatrix, Subspace, unit_vector, vec
from lagext.sampling import random_rational, rng_for
from lagext.specfile import build_algebra, parse_spec

E3 = (0, 0, 1, 0)


def test_bracket_table_of_the_wrong_length_is_rejected():
    # One entry per pair i < j: 3 pairs for dim 3, whatever the entries hold.
    with pytest.raises(ValueError, match=r"^bracket table has 2 pairs, not 3$"):
        LieAlgebra(3, ((), ((2, F(1)),)))
    with pytest.raises(ValueError, match=r"^bracket table has 1 pairs, not 0$"):
        LieAlgebra(1, ((),))
    assert LieAlgebra(3, ((), (), ((0, F(1)),))) == LieAlgebra.from_brackets(3, {(1, 2): (1, 0, 0)})


@pytest.mark.parametrize(
    "dim, pairs, message",
    [
        (2, (((0, F(0)),),), r"^bracket pair \(0, 1\) lists \(\(0, Fraction\(0, 1\)\),\); "),
        (3, (((2, F(1)), (1, F(1))), (), ()), r"^bracket pair \(0, 1\) lists "),
        (3, ((), ((1, F(1)), (1, F(2))), ()), r"^bracket pair \(0, 2\) lists "),
        (3, ((), (), ((3, F(1)),)), r"^bracket pair \(1, 2\) lists .*in range\(3\)"),
        (2, (((1, 1),),), r"^bracket pair \(0, 1\) lists .*nonzero Fraction c$"),
    ],
    ids=["zero-c", "k-descending", "k-repeated", "k-out-of-range", "int-c"],
)
def test_bracket_table_that_is_not_canonical_is_rejected(dim, pairs, message):
    # A zero c or an unsorted k would make == and hash disagree with the brackets.
    with pytest.raises(ValueError, match=message):
        LieAlgebra(dim, pairs)


@pytest.mark.parametrize(
    "brackets, message",
    [
        (
            ("e1 e1 -> 1 e2",),
            "algebra block invalid: bracket cell (1,1) on the diagonal must vanish",
        ),
        (
            ("e1 e2 -> 1 e3", "e2 e1 -> 1 e3"),
            "algebra block invalid: conflicting duplicate bracket assignments at (1,2)"
            " on lines 2 and 3",
        ),
        (("e1 e2 -> 1 e3", "e2 e1 -> -1 e3"), None),
    ],
    ids=["diagonal", "conflicting-mirror", "consistent-mirror"],
)
def test_spec_file_boundary_carries_antisymmetry(tmp_path, brackets, message):
    # An algebra stores only the pairs i < j, so a spec file's bracket block is
    # where a diagonal cell or a mirror that disagrees in sign is caught.
    text = "algebra h dim 4\n" + "".join(f"bracket {b}\n" for b in brackets)
    path = tmp_path / "h.spec"
    path.write_text(text)
    result = CliRunner().invoke(main, ["check", str(path)])
    if message is None:
        assert result.exit_code == 0
        assert build_algebra(parse_spec(text)) == LieAlgebra.from_brackets(4, {(0, 1): E3}, "h")
    else:
        assert (result.exit_code, result.output) == (1, f"Error: {message}\n")


def test_jacobi_abelian_and_heisenberg():
    assert check_jacobi(base_algebra("a")) == ()
    assert check_jacobi(base_algebra("l")) == ()
    assert check_jacobi(base_algebra("t")) == ()


def test_jacobi_violation_reported_with_residual():
    corrupted = LieAlgebra.from_brackets(
        4, {(0, 1): E3, (0, 2): (1, 0, 0, 0)}, "bad"
    )
    violations = check_jacobi(corrupted)
    assert violations
    assert violations[0].triple == (1, 2, 3)
    assert violations[0].residual == vec(E3)
    with pytest.raises(ValueError):
        require_jacobi(corrupted)


def test_lower_central_series_dims():
    assert [s.dim for s in lower_central_series(base_algebra("a"))] == [4, 0]
    assert [s.dim for s in lower_central_series(base_algebra("l"))] == [4, 1, 0]
    assert [s.dim for s in lower_central_series(base_algebra("t"))] == [4, 2, 1, 0]


def test_nilpotency_class_conventions():
    assert nilpotency_class(base_algebra("a")) == 1
    assert nilpotency_class(LieAlgebra.abelian(0)) == 0
    # solvable but not nilpotent: [e1,e2] = e2
    solvable = LieAlgebra.from_brackets(2, {(0, 1): (0, 1)}, "aff")
    assert nilpotency_class(solvable) is None
    assert [s.dim for s in lower_central_series(solvable)] == [2, 1]


def test_derived_series_of_l():
    assert [s.dim for s in derived_series(base_algebra("l"))] == [4, 1, 0]


def test_fingerprints_of_base_algebras():
    fa = fingerprint(base_algebra("a"))
    fl = fingerprint(base_algebra("l"))
    ft = fingerprint(base_algebra("t"))
    assert fa.nilpotency_class == 1 and fa.center_dim == 4 and fa.derivation_dim == 16
    assert fl.nilpotency_class == 2 and fl.center_dim == 2
    assert fl.lcs_dims == (4, 1, 0) and fl.ds_dims == (4, 1, 0)
    assert ft.nilpotency_class == 3 and ft.is_filiform
    assert not fa.is_filiform and not fl.is_filiform
    assert len({fa, fl, ft}) == 3


def test_filiform_needs_dimension_three():
    # dim-2 abelian has class 1 = dim - 1 but is not counted as filiform
    assert not fingerprint(LieAlgebra.abelian(2)).is_filiform


def test_fingerprints_in_degenerate_dimensions():
    f0 = fingerprint(LieAlgebra.abelian(0))
    assert f0.nilpotency_class == 0 and not f0.is_filiform
    f1 = fingerprint(LieAlgebra.abelian(1))
    assert f1.nilpotency_class == 1
    assert f1.derivation_dim == 1  # every endomorphism of a line is a derivation
    assert fingerprint(LieAlgebra.abelian(2)).derivation_dim == 4


def test_fingerprint_invariant_under_change_of_basis():
    rng = rng_for(11, "basis-change")
    for algebra in (base_algebra("l"), base_algebra("t")):
        fp = fingerprint(algebra)
        found = 0
        while found < 3:
            p = RatMatrix.from_rows(
                [[random_rational(rng) for _ in range(4)] for _ in range(4)]
            )
            if not p.is_invertible():
                continue
            found += 1
            assert fingerprint(transform(algebra, p)) == fp


def test_quotient_by_whole_algebra_is_zero():
    algebra = base_algebra("l")
    q = quotient_algebra(algebra, Subspace.full(4))
    assert q.dim == 0


def test_quotient_of_l_by_center_is_abelian():
    algebra = base_algebra("l")
    ideal = Subspace.from_vectors(4, [unit_vector(4, 2), unit_vector(4, 3)])
    q = quotient_algebra(algebra, ideal)
    assert q.dim == 2
    assert q.bracket == LieAlgebra.abelian(2).bracket


def test_quotient_requires_ideal():
    algebra = base_algebra("l")
    not_ideal = Subspace.from_vectors(4, [unit_vector(4, 0)])
    with pytest.raises(ValueError):
        quotient_algebra(algebra, not_ideal)


@pytest.mark.parametrize(
    "other", [Subspace(1, ({0: 1},)), Subspace.full(5)], ids=["smaller", "larger"]
)
def test_a_subspace_of_another_ambient_dimension_is_refused(other):
    h3 = LieAlgebra.from_brackets(3, {(0, 1): (0, 0, 1)}, "h3")
    full = Subspace.full(3)
    with pytest.raises(ValueError, match="^ambient dimension mismatch$"):
        h3.is_ideal(other)
    for a, b in ((other, full), (full, other)):
        with pytest.raises(ValueError, match="^ambient dimension mismatch$"):
            bracket_of_subspaces(h3, a, b)
    with pytest.raises(ValueError, match="^ambient dimension mismatch$"):
        quotient_algebra(h3, other)
    # A zero subspace of any ambient dimension is an ideal, and brackets to 0.
    zero = Subspace.zero(other.ambient_dim)
    assert h3.is_ideal(zero)
    assert bracket_of_subspaces(h3, zero, full) == Subspace.zero(3)


def test_quotient_dimension_identity():
    algebra = base_algebra("t")
    ideal = Subspace.from_vectors(4, [unit_vector(4, 2)])
    q = quotient_algebra(algebra, ideal)
    assert q.dim == algebra.dim - ideal.dim
    assert check_jacobi(q) == ()


def test_quotient_of_extension_by_dual_half_recovers_base():
    from lagext.catalog import connection_for
    from lagext.extension import ExtensionTriple, build_extension

    for label in ("l_26", "t_8"):
        conn = connection_for(label)
        ext = build_extension(ExtensionTriple.with_zero_cocycle(conn))
        q = quotient_algebra(ext.algebra, ext.lagrangian_ideal)
        assert q.bracket == conn.base.bracket


def test_fingerprints_distinguish_extensions():
    from lagext.catalog import connection_for
    from lagext.extension import ExtensionTriple, build_extension

    prints = {}
    for label in ("l_26", "a_10", "t_8"):
        conn = connection_for(label)
        ext = build_extension(ExtensionTriple.with_zero_cocycle(conn))
        prints[label] = fingerprint(ext.algebra)
    assert len(set(prints.values())) == 3
    assert all(fp.nilpotency_class is not None for fp in prints.values())
