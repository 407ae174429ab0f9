"""Cohomology on int echelon rows, with Fractions only for the representatives.

``cohomology`` keeps Z^2, Z^2_L, B^2_L and B^2 as the coprime int rows of
``linalg._echelon``: the two cocycle spaces read off one elimination by
``linalg._kernel_ints``, B^2 continuing a copy of B^2_L.  The checks
B^2 <= Z^2 and B^2_L <= Z^2_L and the rank of H^2_L -> H^2 run on those rows;
the rank eliminates only the rests of the unit images d(E_ik) reduced
against Z^2_L, and equals the reference's on every input.
The summary keeps the rows of Z^2 and Z^2_L, and writes the representatives
as Fractions only when they are read.  Pinned here:

- every ``CohomologySummary`` dimension and both representative tuples, and
  the rows of ``cocycle_bases``, ``coboundary_image``, ``quotient_basis`` and
  ``symplectic_orthogonal``, on 134 inputs (the 108 flat ``--samples 3``
  catalog samples, 24 seeded truncated-polynomial structures for n = 3..6,
  and the canonical connections of the zero-cocycle extensions of ``l_26``
  and ``t_8``), as SHA-256 digests of their reprs taken from the
  Fraction-subspace implementation;
- the calls ``cohomology`` makes: eight passes over int rows (five
  eliminations, and the two checks and the rank's reduction, which only
  reduce), no ``Subspace``, no Fraction and no 2-cochain; and the
  representatives, decoded once on first read, one ``_normalised`` write
  each, equal to the reference's;
- that each exact check raises when its certificate fails;
- the shape checks of ``two_cochain_from_coefficients`` and ``OneCochain``.
"""

import hashlib
import importlib
import random
from fractions import Fraction as F

import pytest

import reference
from inputs import brackets, flat_samples, rho, summary_text, truncated_polynomial_connection
from lagext.catalog import connection_for
from lagext.cohomology import (
    OneCochain,
    _two_cochain_width,
    coboundary_1,
    coboundary_image,
    cocycle_bases,
    cohomology,
    pair_list,
    solve_coboundary,
    two_cochain_from_coefficients,
)
from lagext.connection import DualRep, FlatConnection, dual_representation
from lagext.extension import (
    ExtensionTriple,
    build_extension,
    canonical_connection,
    equivalence_map_psi,
    symplectic_orthogonal,
)
from lagext.lie import LieAlgebra
from lagext.linalg import Subspace, quotient_basis

cohomology_module = importlib.import_module("lagext.cohomology")
linalg_module = importlib.import_module("lagext.linalg")


# ---------------------------------------------------------------------------
# the 134 inputs and their pinned digests
# ---------------------------------------------------------------------------


def truncated_structures():
    """Six seeded structures for each n = 3..6."""
    rng = random.Random(2024)
    for n in range(3, 7):
        for _ in range(6):
            yield truncated_polynomial_connection(
                [F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3)) for _ in range(n)]
            )


def canonical_connections():
    for label in ("l_26", "t_8"):
        ext = build_extension(ExtensionTriple.with_zero_cocycle(connection_for(label)))
        yield canonical_connection(ext)


GROUPS = {
    "flat": flat_samples,
    "truncated": truncated_structures,
    "canonical": canonical_connections,
}

# Taken from the implementation that wrote Z^2, Z^2_L, B^2 and B^2_L as
# Fraction subspaces: count, then the digests of the summaries (their
# ``summary_text``, which is the repr they had then), of the spaces and
# quotient bases, and of the symplectic orthogonals.
PINNED = {
    "flat": (
        108,
        "352afd732037b63b1e003ca783feaa25065b4aaca7aa1fd8eee98b9a48bac05f",
        "556d2886601afe822db9d0981de6fd8431e91a66710564744360b43b2723f42c",
        "4ea1d942e2763384e9bac064c1c0f8ecfa110cde72b1f32600feb00a72293b97",
    ),
    "truncated": (
        24,
        "3e41c413ed243e70451c99a3778012fdb3457da7f61bd95a464b3c74f95f86e1",
        "82ffbb3dab185dd6b00afd30b5cb7bffcab1701a15dd25a21ab303f6888a3a21",
        hashlib.sha256(b"").hexdigest(),
    ),
    "canonical": (
        2,
        "c21aa29d91935b9c18b0a3ecbccc54704ed02a720399ae711bcd3dd71fcbaecb",
        "1ddf133630f64748e33564cfa5c6a4c2ee3e23286316c6115acc3c3a79b30d98",
        hashlib.sha256(b"").hexdigest(),
    ),
}


def rows_of(space):
    return (space.ambient_dim, [sorted(row.items()) for row in space.rows])


def digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_summaries_and_spaces_are_those_of_the_fraction_subspace_path(group):
    summaries, spaces, orthogonals = [], [], []
    for conn in GROUPS[group]():
        rep = dual_representation(conn)
        summaries.append(summary_text(cohomology(rep)))
        z2, z2l = cocycle_bases(rep)
        b2, b2l = coboundary_image(rep, False), coboundary_image(rep, True)
        spaces.append(repr((rows_of(z2), rows_of(z2l), rows_of(b2), rows_of(b2l),
                            quotient_basis(z2, b2), quotient_basis(z2l, b2l))))
        if group == "flat":
            ext = build_extension(ExtensionTriple.with_zero_cocycle(conn))
            for j in (ext.lagrangian_ideal, Subspace.zero(ext.dim), Subspace.full(ext.dim)):
                orthogonals.append(repr(rows_of(symplectic_orthogonal(ext, j))))
    assert (len(summaries), digest(summaries), digest(spaces), digest(orthogonals)) == PINNED[group]


# ---------------------------------------------------------------------------
# what cohomology() calls
# ---------------------------------------------------------------------------


COUNTING_INPUTS = {
    "l_26": lambda: connection_for("l_26"),
    "trunc5": lambda: truncated_polynomial_connection([F(2), F(-1, 3), F(3), F(1, 2), F(-2)]),
    "l_26 canonical": lambda: next(canonical_connections()),
}


@pytest.mark.parametrize("label", list(COUNTING_INPUTS))
def test_cohomology_makes_seven_eliminations_and_writes_only_the_representatives(
    monkeypatch, label
):
    rep = dual_representation(COUNTING_INPUTS[label]())
    rep.coboundary_2_rows, rep.coboundary_1_units  # built once per representation, not counted
    calls = {"_echelon": 0, "_in_span": 0, "_rests": 0, "_normalised": 0}

    def counting(name, real):
        def counted(*args):
            calls[name] += 1
            return real(*args)
        return counted

    def refused(name):
        def refuse(*args, **kwargs):
            raise AssertionError(f"cohomology called {name}")
        return refuse

    real = {name: getattr(linalg_module, name) for name in calls}
    for module in (linalg_module, cohomology_module):
        for name in calls:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, real[name]))
        for name in ("_kernel", "_subspace", "_quotient_rows"):
            monkeypatch.setattr(module, name, refused(name), raising=False)
        monkeypatch.setattr(module, "Subspace", refused("Subspace"))
    made = [0]
    real_new = F.__new__

    def counting_new(cls, *args, **kwargs):
        made[0] += 1
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", counting_new)
    summary = cohomology(rep)
    # Eight passes over int rows: d2, cyclic sums, B^2_L, the B^2
    # continuation and the rests of the rank eliminate; the two checks and
    # the rank's reduction of the unit images against Z^2_L only reduce
    # (``_rests``, twice of them through ``_in_span``).
    assert (calls["_echelon"], calls["_in_span"], calls["_rests"]) == (5, 2, 3)
    assert calls["_normalised"] == made[0] == 0
    reps = summary.h2_representatives + summary.h2_lagrangian_representatives
    monkeypatch.undo()
    # reading the representatives eliminates nothing
    assert (calls["_echelon"], calls["_in_span"], calls["_rests"]) == (5, 2, 3)
    assert calls["_normalised"] == summary.dim_h2 + summary.dim_h2_lagrangian == len(reps) > 0
    # One Fraction per off-pivot entry of a representative, at most.
    assert 0 < made[0] <= sum(sum(1 for x in r.values if x) - 1 for r in reps)


def representative_inputs():
    """The 108 flat ``--samples 3`` catalog samples, then the canonical
    connections of the zero-class extensions of l_26 and t_8."""
    yield from flat_samples()
    yield from canonical_connections()


def test_representatives_are_decoded_once_on_first_read_and_equal_the_reference(monkeypatch):
    real = cohomology_module._two_cochain_from_row
    decoded = [0]

    def counted(*args):
        decoded[0] += 1
        return real(*args)

    monkeypatch.setattr(cohomology_module, "_two_cochain_from_row", counted)
    checked = eight = 0
    for conn in representative_inputs():
        rep = dual_representation(conn)
        decoded[0] = 0  # building the canonical connections writes a zero cocycle
        summary = cohomology(rep)
        assert summary == cohomology(rep) and "representatives" not in repr(summary)
        assert decoded[0] == 0
        expected = reference.cohomology(brackets(rep.connection.base), rho(rep.connection))
        for name, values in (
            ("h2_representatives", expected.h2_representatives),
            ("h2_lagrangian_representatives", expected.h2_lagrangian_representatives),
        ):
            reps = getattr(summary, name)
            assert getattr(summary, name) is reps
            assert decoded[0] == len(reps) == len(values)
            assert repr(tuple(r.values for r in reps)) == repr(values)
            decoded[0] = 0
        checked += 1
        eight += rep.dim == 8
    assert (checked, eight) == (110, 2)


# ---------------------------------------------------------------------------
# the exact checks raise when their certificates fail
# ---------------------------------------------------------------------------


def abelian_connection(entries):
    return FlatConnection.from_entries(
        LieAlgebra.abelian(3), {k: tuple(F(x) for x in v) for k, v in entries.items()}
    )


def test_flat_connection_with_torsion_fails_the_lagrangian_check():
    """nabla_{e1} e2 = e1 on abelian R^3 is flat with T(e1, e2) = e1: d o d = 0,
    so B^2 <= Z^2, but d(C^1_L) leaves Z^2_L."""
    conn = abelian_connection({(0, 1): (1, 0, 0)})
    assert conn.report.flat and not conn.report.torsion_free
    with pytest.raises(ValueError, match="^V is not contained in W$"):
        cohomology(dual_representation(conn))


def test_curved_action_fails_the_cocycle_check():
    """nabla_{e1} e1 = e2, nabla_{e2} e2 = e3 is torsion-free and not flat, so
    its dual action is no representation and d o d != 0; built past the
    flatness check of ``dual_representation``."""
    conn = abelian_connection({(0, 0): (0, 1, 0), (1, 1): (0, 0, 1)})
    assert conn.report.torsion_free and not conn.report.flat
    with pytest.raises(ValueError, match="^V is not contained in W$"):
        cohomology(DualRep(conn))


# ---------------------------------------------------------------------------
# cochain shapes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", range(9))
def test_two_cochain_width_is_pairs_times_n(n):
    assert _two_cochain_width(n) == len(pair_list(n)) * n


@pytest.mark.parametrize("n", [3, 5])
def test_two_cochain_from_coefficients_refuses_a_space_of_another_width(n):
    """Z^2_L of a_1 lies in the 24 coordinates for n = 4: n = 3 used to raise a
    bare IndexError and n = 5 to misplace every coordinate."""
    _, z2l = cocycle_bases(dual_representation(connection_for("a_1")))
    assert z2l.ambient_dim == 24
    coefficients = (F(1),) * z2l.dim
    with pytest.raises(ValueError, match=f"24 does not lie in the {_two_cochain_width(n)} "):
        two_cochain_from_coefficients(z2l, coefficients, n)
    assert two_cochain_from_coefficients(z2l, coefficients, 4).dim == 4


RAGGED = [[1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1, 0]]


def test_one_cochain_refuses_ragged_rows():
    with pytest.raises(ValueError, match="n x n matrix"):
        OneCochain.from_rows(RAGGED)
    with pytest.raises(ValueError, match="n x n matrix"):
        OneCochain(((F(1), F(0)),))
    assert OneCochain.zero(0).dim == 0


def test_ragged_sigma_never_reaches_the_differential_or_psi():
    """On a_1 (n = 4) rows of lengths 3, 4, 4, 5 used to pass the dimension
    check of ``coboundary_1`` and be read at misplaced coordinates."""
    conn = connection_for("a_1")
    rep = dual_representation(conn)
    triple = ExtensionTriple.with_zero_cocycle(conn)
    with pytest.raises(ValueError, match="n x n matrix"):
        coboundary_1(rep, OneCochain.from_rows(RAGGED))
    with pytest.raises(ValueError, match="n x n matrix"):
        equivalence_map_psi(triple, triple, OneCochain(tuple(tuple(map(F, r)) for r in RAGGED)))
    # solve_coboundary builds an n x n sigma, which the check accepts and d1 maps back.
    sigma = OneCochain.from_rows([[F(i * 4 + k, 3) for k in range(4)] for i in range(4)])
    alpha = coboundary_1(rep, sigma)
    found = solve_coboundary(rep, alpha, alpha - alpha)
    assert found is not None and {len(row) for row in found.entries} == {4}
    assert coboundary_1(rep, found) == alpha


@pytest.mark.parametrize("group", list(GROUPS))
def test_the_natural_map_rank_equals_the_reference(group):
    """rank(H^2_L -> H^2), read off the rests of the d(E_ik) reduced against
    Z^2_L, is the reference's dim (Z^2_L + B^2) - dim B^2 on every input."""
    ranks = []
    for conn in GROUPS[group]():
        rep = dual_representation(conn)
        h = reference.cohomology(brackets(conn.base), rho(conn))
        ranks.append(cohomology(rep).natural_map_rank)
        assert ranks[-1] == h.natural_map_rank
    assert len(ranks) == {"flat": 108, "truncated": 24, "canonical": 2}[group]
    if group == "canonical":
        assert ranks == [62, 28]
