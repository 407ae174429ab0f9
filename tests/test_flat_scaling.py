"""The flat table scaler and the int-row intake of ``_echelon``, against their definitions.

``linalg._integer_tables`` takes one flat sequence of cells of (index,
value) terms and scales them by D, the lcm of all their denominators; each
caller flattens its own table and regroups the result, so the scaler reads
no shape.  Here every call the package makes while checking, extending and
reducing the flat ``--samples 3`` catalog samples is recorded and compared
with the definition, on Fractions: D = lcm of the denominators and each
value ``int(x * D)``, each entry an ``int``, and empty cells (an all-empty
first plane of gamma, as in ``a_3``) kept as empty tuples.  Hypothesis-made
sequences of cells cover the rest.

``_echelon`` copies each incoming row as coprime ints; an all-int row is
only divided by its content.  Int, Fraction and mixed rows must give the
int echelon rows pinned in ``reference.echelon_rows``, which takes every
row through the general intake (``reference.integer_row``), and the
containment verdict of ``_in_span`` must be ``reference.in_span``'s.  Rows a
caller keeps (V's rows in ``_quotient_pivots``, a ``Subspace``'s shared
rows) must be unchanged.
"""

import importlib
from copy import deepcopy
from fractions import Fraction as F
from itertools import chain
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from lagext.catalog import connection_for, entry_by_label, instantiate, sample_parameters
from lagext.cohomology import OneCochain, coboundary_1, coboundary_2
from lagext.connection import FlatConnection, dual_representation
from lagext.extension import (
    ExtensionTriple,
    build_extension,
    canonical_connection,
    equivalence_map_psi,
    extension_nilpotency,
    induced_flat_connection,
    is_lagrangian_ideal,
)
from lagext.lie import _mirrored
from lagext.linalg import (
    RatMatrix,
    Subspace,
    _echelon,
    _in_span,
    _integer_row,
    _integer_tables,
    _inverse_rows,
    _quotient_pivots,
)
from lagext.sampling import random_rational, rng_for

import reference
from inputs import flat_samples, quotient_rows, random_lagrangian_cocycle, typed

# The modules that call the scaler; ``lagext.cohomology`` the attribute is the function.
SCALING_MODULES = [
    importlib.import_module(f"lagext.{name}")
    for name in ("lie", "connection", "extension", "cohomology")
]

# ---------------------------------------------------------------------------
# the scaler
# ---------------------------------------------------------------------------


def defined_scaling(cells):
    """(D, cells) from the definition: D the lcm of every denominator and
    each value x replaced by int(x * D)."""
    d = lcm(*(F(x).denominator for cell in cells for _, x in cell))
    return d, tuple(tuple((j, int(x * d)) for j, x in cell) for cell in cells)


def assert_scaled_by_definition(cells, result):
    d, out = result
    expected_d, expected = defined_scaling(cells)
    assert d == expected_d
    assert typed(out) == typed(expected)
    assert all(type(x) is int for cell in out for _, x in cell)


@pytest.fixture
def recorded_scalings(monkeypatch):
    """Every (cells, result) of ``_integer_tables`` called from the package."""
    calls = []
    for module in SCALING_MODULES:
        def recording(cells, _real=module._integer_tables):
            result = _real(cells)
            calls.append((cells, result))
            return result

        monkeypatch.setattr(module, "_integer_tables", recording)
    return calls


def exercise_extension(triple, rep, sigma):
    ext = build_extension(triple)
    assert ext.d_omega_result.is_zero()
    assert is_lagrangian_ideal(ext, ext.lagrangian_ideal).is_lagrangian
    for row in ext.lagrangian_ideal.rows:
        ext.omega_row(row)
    ext.pullback(list(ext.lagrangian_ideal.rows))
    extension_nilpotency(triple)
    induced_flat_connection(ext, ext.lagrangian_ideal)
    shifted = ExtensionTriple(triple.connection, triple.cocycle - coboundary_1(rep, sigma))
    equivalence_map_psi(triple, shifted, sigma)
    return ext


def test_every_scaling_of_the_flat_samples_matches_its_definition(recorded_scalings):
    rng = rng_for(251, "flat-scaling")
    checked = 0
    for conn in flat_samples():
        rep = dual_representation(conn)
        alpha = random_lagrangian_cocycle(conn, rng)
        sigma = OneCochain.from_rows(
            [[random_rational(rng) for _ in range(4)] for _ in range(4)]
        )
        coboundary_2(rep, alpha)
        for triple in (ExtensionTriple.with_zero_cocycle(conn), ExtensionTriple(conn, alpha)):
            exercise_extension(triple, rep, sigma)
        checked += 1
    assert checked == 108
    for label in ("l_26", "t_8"):
        ext = build_extension(ExtensionTriple.with_zero_cocycle(connection_for(label)))
        canonical_connection(ext).integer_tables
    for cells, result in recorded_scalings:
        assert_scaled_by_definition(cells, result)
    # One cell and many cells, of int and of pair indices (omega's), went through.
    sizes = {len(cells) > 1 for cells, _ in recorded_scalings}
    indices = {type(j) for cells, _ in recorded_scalings for cell in cells for j, _ in cell}
    assert (sizes, indices) == ({False, True}, {int, tuple})
    # a_3's gamma, first plane all empty, went through a recorded call.
    a_3 = entry_by_label("a_3")
    gamma = instantiate(a_3, sample_parameters(a_3, 1)[0]).nonzero_gamma
    assert gamma[0] == ((),) * 4
    flat = list(chain.from_iterable(gamma))
    assert any(list(cells[:16]) == flat for cells, _ in recorded_scalings)


def test_a_table_with_an_all_empty_first_plane_is_scaled():
    """a_3 has nabla_{e1} = 0: gamma's first plane is four empty cells."""
    conn = connection_for("a_3")
    gamma = tuple(
        tuple(tuple((k, x / 3) for k, x in cell) for cell in plane)
        for plane in conn.nonzero_gamma
    )
    assert gamma[0] == ((),) * 4
    d, cols, table = FlatConnection(conn.base, gamma).integer_tables
    assert d == 3 and cols[0] == ((),) * 4
    planes = (*gamma, *_mirrored(4, conn.base.pairs))
    assert_scaled_by_definition(
        list(chain.from_iterable(planes)), (d, tuple(chain.from_iterable((*cols, *table))))
    )


nonzero = st.one_of(
    st.integers(-5, 5).filter(bool),
    st.builds(F, st.integers(-7, 7).filter(bool), st.integers(1, 12)),
)
cells = st.lists(st.tuples(st.integers(0, 5), nonzero), max_size=3).map(tuple)


@given(st.lists(st.one_of(cells, st.just(())), max_size=12))
@settings(max_examples=300, deadline=None)
def test_scaled_tables_match_their_definition(drawn):
    assert_scaled_by_definition(drawn, _integer_tables(drawn))


@pytest.mark.parametrize(
    "table",
    [(), ((),), ((), ()), ((), ((1, F(1, 2)),), ())],
)
def test_empty_tuples_come_back_as_they_went_in(table):
    d, out = _integer_tables(table)
    assert typed(out) == typed(defined_scaling(table)[1])
    assert d == (2 if any(table) else 1)


# ---------------------------------------------------------------------------
# the int-row intake of _echelon
# ---------------------------------------------------------------------------


def typed_rows(ints):
    """Echelon rows {pivot: row} with each entry paired with its type."""
    return sorted((p, sorted((j, type(x), x) for j, x in row.items())) for p, row in ints.items())


int_entries = st.integers(-12, 12).filter(bool)
fraction_entries = st.builds(F, st.integers(-12, 12).filter(bool), st.integers(1, 6))


def rows_of(entries):
    return st.lists(st.dictionaries(st.integers(0, 6), entries, max_size=5), max_size=7)


@given(st.one_of(
    rows_of(int_entries),
    rows_of(fraction_entries),
    rows_of(st.one_of(int_entries, fraction_entries)),
))
@settings(max_examples=300, deadline=None)
def test_int_fraction_and_mixed_rows_give_the_frozen_echelon_rows(rows):
    kept = deepcopy(rows)
    ints, expected = {}, {}
    _echelon(rows, ints)
    reference.echelon_rows(deepcopy(rows), expected)
    assert typed_rows(ints) == typed_rows(expected)
    assert list(ints) == list(expected)
    assert typed(rows) == typed(kept)
    # The containment verdict of the rows after a cut, against the echelon
    # rows of those before it, and of all the rows against their own span.
    cut = len(rows) // 2
    head = {}
    _echelon(rows[:cut], head)
    kept_head = deepcopy(head)
    assert _in_span(rows[cut:], head) == reference.in_span(rows[cut:], head)
    assert _in_span(rows, ints)
    assert typed_rows(head) == typed_rows(kept_head) and typed(rows) == typed(kept)
    for row in rows:
        if row:
            assert _integer_row(row) == reference.integer_row(row)
            assert _integer_row(row) is not row


@given(st.lists(st.lists(fraction_entries, min_size=4, max_size=4), min_size=4, max_size=4))
@settings(max_examples=100, deadline=None)
def test_inverse_rows_of_mixed_rows_match_the_frozen_intake(entries):
    """[P | I] has Fraction entries in P and int 1s in I."""
    p = RatMatrix(tuple(tuple(row) for row in entries))
    rows = [{j: x for j, x in enumerate(row) if x} for row in p.entries]
    expected = {}
    reference.echelon_rows([{**row, 4 + i: 1} for i, row in enumerate(rows)], expected)
    if sorted(expected) != list(range(4)):
        with pytest.raises(ValueError, match="^matrix is singular$"):
            _inverse_rows(rows, 4)
        return
    inverse = _inverse_rows(rows, 4)
    assert typed_rows(dict(enumerate(inverse))) == typed_rows(expected)
    assert (p @ p.inverse()).entries == tuple(reference.units(4))


def test_rows_a_caller_keeps_are_not_changed():
    # Unit pivots make _cancel reduce in place (b == gcd(a, b)), so a row
    # that was not copied would be changed under its caller.
    w = {0: {0: 1, 2: 3}, 1: {1: 1, 2: 1}}
    v = {0: {0: 1, 1: 1, 2: 4}}
    kept_w, kept_v = deepcopy(w), deepcopy(v)
    assert _quotient_pivots(w, v) == [1]
    assert (w, v) == (kept_w, kept_v)
    first, second = {0: 1, 1: 1}, {1: 1}
    ints = {}
    _echelon([first, second], ints)
    assert (first, second) == ({0: 1, 1: 1}, {1: 1})
    assert ints == {0: {0: 1}, 1: {1: 1}}


def test_a_subspace_keeps_its_shared_rows_through_a_quotient():
    w = Subspace.from_vectors(3, [(1, 0, 3), (0, 1, 1)])
    v = Subspace.from_vectors(3, [(1, 1, 4)])
    kept_w, kept_v = deepcopy(w.rows), deepcopy(v.rows)
    assert len(quotient_rows(w, v)) == 1
    assert typed(w.rows) == typed(kept_w) and typed(v.rows) == typed(kept_v)
