"""The elimination kernel and the d1/d2 rows pay per nonzero entry.

``linalg._echelon`` clears each new pivot from the kept rows through an
index from each column to the kept rows that hold it, built from the kept
rows on the first row a call adds and extended as rows gain columns; an
entry whose row has since lost the column is stale and skipped.
``_coboundary_2_rows`` and ``_coboundary_1_images`` visit only nonzero rho
entries and brackets.  Pinned here:

- on hypothesis row sets shaped like the 8-dim d2 (many single-entry rows,
  rows repeated up to sign, a call that continues nonempty kept rows), and
  on a row set that leaves stale index entries, the kept rows are
  ``reference.echelon_rows``' (content, sign and key order), and their
  number is sympy's rank;
- every ``_echelon`` call made on the two 8-dim cohomology-ladder rungs
  (``l_26``, ``t_8``) and by a ``--samples 3`` catalog sweep gives the
  reference's kept rows on the same inputs;
- ``_echelon`` walks the kept rows at most once per call, however many rows
  it adds;
- the d1 and d2 rows are ``reference.d1_unit_images`` and
  ``reference.d2_rows`` (the formulas that visit every rotation and every
  x: same rows, positions and key order), and D times ``reference.d1`` and
  ``reference.d2`` on unit cochains, on every flat ``--samples 3`` sample
  and on both 8-dim canonical connections.
"""

import importlib
from copy import deepcopy
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st
from sympy import Matrix

import reference
from inputs import brackets, flat_samples, rho
from lagext.catalog import connection_for, table1_entries
from lagext.cohomology import _coboundary_1_images, _coboundary_2_rows, cohomology
from lagext.connection import dual_representation
from lagext.extension import ExtensionTriple, build_extension, canonical_connection
from lagext.linalg import _echelon
from lagext.verify import verify_entry

ELIMINATING_MODULES = [
    importlib.import_module(f"lagext.{name}") for name in ("linalg", "cohomology", "lie", "extension")
]


def keyed(ints):
    """Kept rows {pivot: row} with their key order, at both levels."""
    return [(p, list(row.items())) for p, row in ints.items()]


def sympy_rank(rows):
    columns = sorted({j for row in rows for j in row})
    if not columns:
        return 0
    return Matrix([[row.get(j, 0) for j in columns] for row in rows]).rank()


# ---------------------------------------------------------------------------
# the kernel against the reference, on d2-shaped row sets
# ---------------------------------------------------------------------------

entries = st.one_of(st.integers(-4, 4).filter(bool), st.builds(F, st.integers(-6, 6).filter(bool),
                                                              st.integers(1, 3)))
columns = st.integers(0, 11)
single = st.builds(lambda j, x: {j: x}, columns, entries)
short = st.dictionaries(columns, entries, min_size=2, max_size=4)


@st.composite
def d2_shaped(draw):
    """Mostly single-entry rows, some short ones, rows repeated up to sign,
    and empty rows, shuffled."""
    rows = draw(st.lists(st.one_of(single, single, short, st.just({})), max_size=14))
    repeats = draw(st.lists(st.sampled_from(rows), max_size=4)) if rows else []
    rows += [{j: -x for j, x in row.items()} for row in repeats]
    return draw(st.permutations(rows))


# Kept row 0 is hit by the pivots 1 and 2; the second also cancels its
# column 3, so the index still lists row 0 under column 3 when 3 turns
# pivot, and that entry must be skipped.
STALE = [{0: 1, 1: 1, 2: 1, 3: 1}, {1: 2}, {2: 1, 3: 1}, {3: 5, 4: 1}, {3: 1}]


@given(d2_shaped(), d2_shaped())
@example(STALE, [])
@example(STALE[:1], STALE[1:])
@settings(max_examples=300, deadline=None)
def test_d2_shaped_rows_give_the_reference_rows_and_sympys_rank(first, second):
    ints, expected = {}, {}
    _echelon(first, ints)
    reference.echelon_rows(deepcopy(first), expected)
    assert keyed(ints) == keyed(expected)
    _echelon(second, ints)  # continues nonempty kept rows
    reference.echelon_rows(deepcopy(second), expected)
    assert keyed(ints) == keyed(expected)
    assert len(ints) == sympy_rank(first + second)


def test_a_stale_index_entry_is_skipped():
    ints, expected = {}, {}
    _echelon(STALE, ints)
    reference.echelon_rows(deepcopy(STALE), expected)
    assert keyed(ints) == keyed(expected)
    assert ints[0] == {0: 1}
    assert sorted(ints) == [0, 1, 2, 3, 4]


# ---------------------------------------------------------------------------
# every call on the ladder's 8-dim rungs and the catalog sweep
# ---------------------------------------------------------------------------


def recorded_calls(monkeypatch, run):
    """(rows, kept rows before, kept rows after) of every ``_echelon`` call run makes."""
    real = _echelon
    calls = []

    def recording(rows, ints):
        rows = [dict(row) for row in rows]
        before = deepcopy(ints)
        real(rows, ints)
        calls.append((rows, before, keyed(ints)))

    with monkeypatch.context() as m:
        for module in ELIMINATING_MODULES:
            m.setattr(module, "_echelon", recording)
        run()
    return calls


def ladder_rungs():
    for label in ("l_26", "t_8"):
        ext = build_extension(ExtensionTriple.with_zero_cocycle(connection_for(label)))
        cohomology(dual_representation(canonical_connection(ext)))


def catalog_sweep():
    for entry in table1_entries():
        verify_entry(entry, 3, 0)


@pytest.mark.parametrize("run", [ladder_rungs, catalog_sweep], ids=["ladder rungs", "catalog sweep"])
def test_every_recorded_call_gives_the_reference_rows(monkeypatch, run):
    calls = recorded_calls(monkeypatch, run)
    assert calls
    for rows, before, after in calls:
        reference.echelon_rows(rows, before)
        assert keyed(before) == after


# ---------------------------------------------------------------------------
# guard: one walk of the kept rows per call
# ---------------------------------------------------------------------------


class CountingRows(dict):
    """Kept rows that count every walk over them."""

    walks = 0

    def items(self):
        self.walks += 1
        return super().items()

    def __iter__(self):
        self.walks += 1
        return super().__iter__()

    def keys(self):
        self.walks += 1
        return super().keys()

    def values(self):
        self.walks += 1
        return super().values()


def test_echelon_walks_the_kept_rows_once_per_call():
    kept = CountingRows({0: {0: 1, 5: 2, 7: 1}, 1: {1: 1, 5: -1}, 2: {2: 3, 6: 1}})
    rows = [{5: 1}, {6: 2, 8: 1}, {7: 1, 9: -1}, {8: 1}, {10: 4}, {3: 1, 9: 1}]
    expected = {p: dict(row) for p, row in kept.items()}
    kept.walks = 0
    _echelon(rows, kept)
    assert kept.walks <= 1
    reference.echelon_rows(rows, expected)
    assert keyed(kept) == keyed(expected)
    assert len(kept) == 3 + len(rows)
    kept.walks = 0
    _echelon([{0: 2, 9: 2}, {}], kept)  # twice kept row 0: nothing added, no walk
    assert kept.walks == 0


# ---------------------------------------------------------------------------
# guard: the d1 and d2 rows
# ---------------------------------------------------------------------------


def representations():
    """The 108 flat ``--samples 3`` samples, then the canonical connections of
    the zero-class extensions of l_26 and t_8."""
    for conn in flat_samples():
        yield dual_representation(conn)
    for label in ("l_26", "t_8"):
        ext = build_extension(ExtensionTriple.with_zero_cocycle(connection_for(label)))
        yield dual_representation(canonical_connection(ext))


def test_d1_and_d2_rows_are_the_formulas_that_visit_every_index():
    count = 0
    for rep in representations():
        n = rep.dim
        _, entries, table = rep.integer_tables
        assert keyed(dict(enumerate(_coboundary_2_rows(rep)))) == keyed(
            dict(enumerate(reference.d2_rows(n, entries, table))))
        units = _coboundary_1_images(rep, [{c: 1} for c in range(n * n)])
        assert keyed(dict(enumerate(units))) == keyed(
            dict(enumerate(reference.d1_unit_images(n, entries, table))))
        count += 1
    assert count == 110


@pytest.mark.parametrize("which", ["flat", "canonical"])
def test_d1_and_d2_rows_are_d_times_the_reference_differentials(which):
    reps = list(representations())
    for rep in reps[:-2] if which == "flat" else reps[-2:]:
        n = rep.dim
        c, rhos = brackets(rep.connection.base), rho(rep.connection)
        d = rep.integer_tables[0]
        width = reference.cochain_width(n)
        for col in range(width):
            image = sum(reference.d2(c, rhos, reference.unit(width, col)), ())
            assert tuple(F(row.get(col, 0), d) for row in rep.coboundary_2_rows) == image
        units = _coboundary_1_images(rep, [{col: 1} for col in range(n * n)])
        for image, s in zip(units, reference.one_cochain_basis(n, lagrangian=False), strict=True):
            assert tuple(F(image.get(col, 0), d) for col in range(width)) == reference.d1(c, rhos, s)
