"""Each connection table is verified once, and a zero cocycle skips d2.

An extension keeps the connection it was built from.  When the round trip
(``induced_flat_connection``) recovers the same base pairs and gamma table,
its flat torsion-free and completeness checks read that source's kept
verdicts, so recovering makes no ``_sweep`` or ``_completeness`` call; with
any cell moved it sweeps the recovered table and the same ``IntegrityError``
is raised.  The recovered connection's verdicts are its own: read after the
round trip, they are computed on it and equal the source's.
``coboundary_2`` of the zero 2-cochain is the zero residual, given without
the d2 rows, and is checked against d2 in tests/reference.py.
"""

from fractions import Fraction as F

import pytest

import reference
from inputs import brackets, flat_samples, random_lagrangian_cocycle, rho, typed
from lagext import connection, extension
from lagext.cohomology import TwoCochain, coboundary_2
from lagext.connection import FlatConnection, dual_representation
from lagext.extension import (
    ExtensionTriple,
    IntegrityError,
    build_extension,
    extension_nilpotency,
    induced_flat_connection,
)
from lagext.lie import LieAlgebra
from lagext.sampling import rng_for


@pytest.fixture
def computed(monkeypatch):
    """(name, connection) of each ``_sweep`` and ``_completeness`` call."""
    calls = []
    for name in ("_sweep", "_completeness"):
        def counted(conn, _name=name, _original=getattr(connection, name)):
            calls.append((_name, conn))
            return _original(conn)

        monkeypatch.setattr(connection, name, counted)
    return calls


def assert_recovers_without_recomputing(ext, source, computed):
    source.report, source.completeness  # kept on the source before counting
    del computed[:]
    recovered = induced_flat_connection(ext, ext.lagrangian_ideal)
    assert recovered.nonzero_gamma == source.nonzero_gamma
    assert computed == []
    # Read afterwards, the recovered connection's verdicts are its own.
    assert recovered.report == source.report
    assert recovered.completeness == source.completeness
    assert computed == [("_sweep", recovered), ("_completeness", recovered)]
    assert recovered.dual.connection is recovered


def test_zero_extension_never_builds_the_d2_rows():
    checked = 0
    for conn in flat_samples(3):
        ext = build_extension(ExtensionTriple.with_zero_cocycle(conn))
        rep = conn.dual
        assert "coboundary_2_rows" not in rep.__dict__
        zero = TwoCochain.zero(conn.dim)
        expected = reference.d2(brackets(conn.base), rho(conn), zero.values)
        assert typed(coboundary_2(rep, zero).values) == typed(expected)
        assert "coboundary_2_rows" not in rep.__dict__
        assert ext.source is conn
        checked += 1
    assert checked == 108


@pytest.mark.parametrize("n", range(5))
def test_zero_cochain_residual_on_the_zero_connection_is_the_frozen_one(n):
    conn = FlatConnection.zero(LieAlgebra.abelian(n))
    rep = dual_representation(conn)
    zero = TwoCochain.zero(n)
    expected = reference.d2(brackets(conn.base), rho(conn), zero.values)
    assert typed(coboundary_2(rep, zero).values) == typed(expected)
    assert "coboundary_2_rows" not in rep.__dict__


def test_recovered_zero_class_shares_the_recomputed_verdicts_on_every_flat_sample(computed):
    checked = 0
    for conn in flat_samples(3):
        ext = build_extension(ExtensionTriple.with_zero_cocycle(conn))
        assert_recovers_without_recomputing(ext, conn, computed)
        checked += 1
    assert checked == 108


def test_named_extension_of_a_seeded_lagrangian_class_shares_the_recomputed_verdicts(computed):
    checked = 0
    for conn in flat_samples(1):
        label = conn.label
        alpha = random_lagrangian_cocycle(conn, rng_for(97, "one-sweep-per-table", label))
        assert any(alpha.values)
        triple = ExtensionTriple(conn, alpha)
        named = build_extension(triple, name=f"{label}_ext")
        assert named.source is conn
        extension_nilpotency(triple)
        assert_recovers_without_recomputing(named, conn, computed)
        checked += 1
    assert checked == 64


def moved_cell(gamma, i, j, k, shift):
    """gamma with the coefficient of e_k in cell (i, j) moved by shift."""
    cell = dict(gamma[i][j])
    cell[k] = cell.get(k, F(0)) + shift
    cell = tuple(sorted((t, v) for t, v in cell.items() if v))
    plane = gamma[i][:j] + (cell,) + gamma[i][j + 1:]
    return gamma[:i] + (plane,) + gamma[i + 1:]


def test_a_moved_cell_is_swept_on_its_own_and_raises(monkeypatch):
    solve = extension._omega_solve
    monkeypatch.setattr(
        extension, "_omega_solve", lambda *args: moved_cell(solve(*args), 0, 1, 0, F(1))
    )
    swept = []
    sweep = connection._sweep
    monkeypatch.setattr(connection, "_sweep", lambda conn: swept.append(conn) or sweep(conn))
    checked = 0
    for conn in flat_samples(1):
        ext = build_extension(ExtensionTriple.with_zero_cocycle(conn))
        assert ext.source is conn
        del swept[:]
        with pytest.raises(IntegrityError, match="failed the flat torsion-free check"):
            induced_flat_connection(ext, ext.lagrangian_ideal)
        # One sweep, on the moved table, whose verdicts are its own.
        [recovered] = swept
        assert recovered.nonzero_gamma == moved_cell(conn.nonzero_gamma, 0, 1, 0, F(1))
        assert not recovered.report.torsion_free
        checked += 1
    assert checked == 64
