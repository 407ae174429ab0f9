"""The int bracket tables are built from the pair table, never from a
Fraction n x n table, and the per-build constants are made once.

``LieAlgebra.integer_brackets`` and ``FlatConnection.integer_tables`` scale
``pairs`` and mirror the scaled pairs on ints (``lie._mirrored``), and
``lie._quotient`` reads its cells from ``pairs``; likewise
``SymplecticForm.integer_omega`` scales the form's pair coordinates
and mirrors them on ints.  Each must equal the parent formula, computed
here as a differential oracle: the pairs (or the form) mirrored to a
Fraction table first and scaled after; and the reference tensors of
tests/reference.py, on every catalog sample, each zero-class extension and
its quotient, the canonical connections of the ``l_26`` and ``t_8``
extensions, and hypothesis pair tables and forms.  A ``verify-catalog
--samples 3`` sweep builds no Fraction n x n table.

``standard_form``, ``dual_subspace``, ``BasisToken.primal``/``dual_token``,
the validated-token lookup behind ``BasisToken.parse`` and ``Expr.const`` are
made once per argument: they must equal fresh builds, the catalog export and
the serialized extensions must keep their bytes, and a bad token must still
raise a line-numbered ``SpecParseError``.
"""

import hashlib
import re
from fractions import Fraction as F
from functools import cached_property
from itertools import chain, combinations
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

import reference
from inputs import brackets, flat_samples, random_lagrangian_cocycle, spanned, typed
from lagext.catalog import connection_for, instantiate, sample_parameters, table1_entries
from lagext.connection import FlatConnection
from lagext.exprs import Expr
from lagext.extension import (
    ExtensionTriple,
    SymplecticForm,
    SymplecticLieAlgebra,
    build_extension,
    canonical_connection,
    dual_subspace,
    standard_form,
)
from lagext import connection as connection_module, lie
from lagext.lie import LieAlgebra, _mirrored, _quotient, lower_central_series, transform
from lagext.linalg import RatMatrix, Subspace, _add, _integer_tables
from lagext.sampling import random_rational, rng_for
from lagext.specfile import (
    BasisToken,
    SpecParseError,
    parse_rhs,
    parse_spec,
    serialize_spec,
    spec_from_symplectic,
)
from lagext.verify import run_verify_catalog

# ---------------------------------------------------------------------------
# the oracles
# ---------------------------------------------------------------------------


def assert_brackets_scaled(d, table, pairs, n, expected_d=None):
    """table is the n x n bracket table of pairs scaled by d to ints: d is the
    lcm of the pairs' denominators (or expected_d, when other tables share
    it), and each cell, read densely, is d times the reference tensor's."""
    c = reference.bracket_tensor(n, pairs)
    if expected_d is None:
        expected_d = lcm(*(x.denominator for terms in pairs for _, x in terms))
    assert d == expected_d
    assert len(table) == n and all(len(plane) == n for plane in table)
    for i in range(n):
        for j in range(n):
            cell = table[i][j]
            assert [k for k, _ in cell] == sorted({k for k, _ in cell})
            assert all(type(x) is int and x for _, x in cell)
            dense = dict(cell)
            assert [dense.get(k, 0) for k in range(n)] == [x * d for x in c[i][j]]


def parent_scaling(*tables):
    """The parent's scaling of n x n tables of Fraction cells: one D over all
    their cells, and each table scaled plane by plane."""
    d, cells = _integer_tables([cell for table in tables for plane in table for cell in plane])
    cells = iter(cells)
    return d, tuple(
        tuple(tuple(next(cells) for _ in plane) for plane in table) for table in tables
    )


def assert_algebra_tables(algebra):
    """integer_brackets equals the parent formula and the reference."""
    d, table = algebra.integer_brackets
    parent_d, (parent_table,) = parent_scaling(_mirrored(algebra.dim, algebra.pairs))
    assert typed((d, table)) == typed((parent_d, parent_table))
    assert_brackets_scaled(d, table, algebra.pairs, algebra.dim)


def assert_connection_tables(conn):
    """FlatConnection.integer_tables equals the parent formula and the reference."""
    d, cols, table = conn.integer_tables
    parent = parent_scaling(conn.nonzero_gamma, _mirrored(conn.dim, conn.base.pairs))
    assert typed((d, cols, table)) == typed((parent[0], *parent[1]))
    n = conn.dim
    g = reference.gamma_tensor(n, conn.nonzero_gamma)
    pairs = conn.base.pairs
    assert d == lcm(
        *(x.denominator for plane in conn.nonzero_gamma for cell in plane for _, x in cell),
        *(x.denominator for terms in pairs for _, x in terms),
    )
    for i in range(n):
        for j in range(n):
            dense = dict(cols[i][j])
            assert [dense.get(k, 0) for k in range(n)] == [x * d for x in g[i][j]]
    assert_brackets_scaled(d, table, pairs, n, expected_d=d)


def assert_form_tables(s):
    """integer_omega equals the parent formula, the Fraction rows of the form
    scaled, and the reference form matrix scaled by the lcm of its
    denominators."""
    d, rows = s.form.integer_omega
    fraction_rows = [{} for _ in range(s.dim)]
    for (i, j), x in zip(combinations(range(s.dim), 2), s.form.values):
        if x:
            fraction_rows[i][j], fraction_rows[j][i] = x, -x
    parent_d, parent_rows = _integer_tables([row.items() for row in fraction_rows])
    # the same entries, in the same key order
    assert typed(d) == typed(parent_d)
    assert [typed(tuple(r.items())) for r in rows] == [typed(r) for r in parent_rows]
    omega = reference.form_matrix(s.dim, s.form.values)
    assert d == lcm(*(x.denominator for x in s.form.values))
    for p, row in enumerate(rows):
        assert all(type(x) is int and x for x in row.values())
        assert [row.get(q, 0) for q in range(s.dim)] == [x * d for x in omega[p]]


def parent_quotient_pairs(algebra, ideal):
    """The quotient's pair table as the parent read it, from the n x n
    Fraction table mirrored from the pairs."""
    keep = ideal.complement_coordinates()
    position = {k: t for t, k in enumerate(keep)}
    kept = dict(zip(ideal.pivots, ideal.rows))
    table = _mirrored(algebra.dim, algebra.pairs)
    pairs = []
    for t, a in enumerate(keep):
        for b in keep[t + 1:]:
            cell = dict(table[a][b])
            for p, x in table[a][b]:
                for k, y in kept.get(p, {}).items():
                    _add(cell, k, -x * y)
            pairs.append(tuple(sorted((position[k], c) for k, c in cell.items())))
    return tuple(pairs)


def assert_quotient(algebra, ideal):
    """_quotient's pairs equal the parent's and the reference quotient tensor."""
    q = _quotient(algebra, ideal)
    assert typed(q.pairs) == typed(parent_quotient_pairs(algebra, ideal))
    expected = reference.quotient_tensor(brackets(algebra), spanned(ideal))
    assert reference.bracket_tensor(q.dim, q.pairs) == expected
    assert_algebra_tables(q)


def catalog_samples():
    """Every instantiated ``--samples 3`` catalog sample, flat or not: 113."""
    for entry in table1_entries():
        for sample in sample_parameters(entry, 3):
            conn = instantiate(entry, sample)
            if isinstance(conn, FlatConnection):
                yield conn


def test_int_tables_match_the_fraction_view_on_every_catalog_sample():
    samples = list(catalog_samples())
    for conn in samples:
        assert_algebra_tables(conn.base)
        assert_connection_tables(conn)
    extensions = 0
    for conn in flat_samples():
        ext = build_extension(ExtensionTriple.with_zero_cocycle(conn))
        assert_algebra_tables(ext.algebra)
        assert_form_tables(ext)
        assert_quotient(ext.algebra, ext.lagrangian_ideal)
        extensions += 1
    assert (len(samples), extensions) == (113, 108)


@pytest.mark.parametrize("label", ["l_26", "t_8"])
def test_int_tables_match_the_fraction_view_on_the_canonical_connections(label):
    ext = build_extension(ExtensionTriple.with_zero_cocycle(connection_for(label)))
    conn = canonical_connection(ext)
    assert conn.dim == 8
    assert_algebra_tables(conn.base)
    assert_connection_tables(conn)
    assert_quotient(ext.algebra, ext.lagrangian_ideal)


def test_quotient_by_ideals_whose_rows_leave_their_pivots():
    """_quotient deletes a cell's entry at each pivot and subtracts only the
    row's other entries.  Here the rows are not unit vectors: lower central
    series terms of seeded 8-dim extensions, and the Lagrangian ideal h*
    moved by the change of basis P = [[I, S], [0, I]], which takes (0, y) to
    (-S y, y) in the new coordinates."""
    rng = rng_for(67, "quotient-off-pivot")
    off_pivot = 0
    for label in ("l_26", "t_8", "a_3", "t_18", "a_10", "l_38"):
        conn = connection_for(label)
        ext = build_extension(ExtensionTriple(conn, random_lagrangian_cocycle(conn, rng)))
        for term in lower_central_series(ext.algebra)[1:-1]:
            assert_quotient(ext.algebra, term)
            off_pivot += sum(len(row) > 1 for row in term.rows)
        n = conn.dim
        p = RatMatrix.from_rows([
            [F(a == b) if (a < n) == (b < n) else random_rational(rng) if a < n else F(0)
             for b in range(2 * n)]
            for a in range(2 * n)
        ])
        moved = transform(ext.algebra, p)
        p_inv = p.inverse()
        ideal = Subspace.from_vectors(2 * n, [p_inv.apply(v) for v in ext.lagrangian_ideal.basis])
        assert moved.is_ideal(ideal)
        assert_quotient(moved, ideal)
        off_pivot += sum(len(row) > 1 for row in ideal.rows)
    assert off_pivot > 12


nonzero = st.builds(F, st.integers(-9, 9).filter(bool), st.integers(1, 8))


@st.composite
def pair_tables(draw, max_dim=5):
    """(n, pairs): a canonical pair table of Fractions, all empty when asked."""
    n = draw(st.integers(0, max_dim))
    size = n * (n - 1) // 2
    if draw(st.booleans()):
        return n, ((),) * size
    cells = st.dictionaries(st.integers(0, max(n - 1, 0)), nonzero, max_size=n)
    return n, tuple(tuple(sorted(draw(cells).items())) for _ in range(size))


@given(pair_tables())
@settings(max_examples=200, deadline=None)
def test_int_tables_match_the_fraction_view_on_hypothesis_pair_tables(drawn):
    n, pairs = drawn
    algebra = LieAlgebra(n, pairs)
    assert_algebra_tables(algebra)
    assert_connection_tables(FlatConnection.zero(algebra))
    gamma = tuple(tuple(pairs[(i * n + j) % len(pairs)] if pairs else () for j in range(n))
                  for i in range(n))
    assert_connection_tables(FlatConnection(algebra, gamma))


@st.composite
def forms(draw, max_dim=6):
    """A SymplecticLieAlgebra on the abelian algebra with drawn pair
    coordinates, some zero and some all zero; no form check is made."""
    n = draw(st.integers(0, max_dim))
    values = st.one_of(st.just(F(0)), nonzero) if draw(st.booleans()) else st.just(F(0))
    form = tuple(draw(values) for _ in range(n * (n - 1) // 2))
    return SymplecticLieAlgebra(LieAlgebra.abelian(n), SymplecticForm(n, form))


@given(forms())
@settings(max_examples=200, deadline=None)
def test_int_form_rows_match_the_fraction_rows_on_hypothesis_forms(s):
    assert_form_tables(s)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_all_empty_tables_of_small_dimension_scale_to_empty_cells(n):
    algebra = LieAlgebra.abelian(n)
    assert algebra.integer_brackets == (1, tuple(((),) * n for _ in range(n)))
    assert_algebra_tables(algebra)
    assert_connection_tables(FlatConnection.zero(algebra))


def test_a_catalog_sweep_builds_no_fraction_bracket_view(monkeypatch):
    """Every n x n table the sweep mirrors holds ints, and neither dense view
    (the bracket tensor, the omega matrix) is decoded."""
    mirrored = []
    for module in (lie, connection_module):
        def recording(n, pairs, _real=module._mirrored):
            table = _real(n, pairs)
            mirrored.append({type(c) for _, c in chain.from_iterable(chain.from_iterable(table))})
            return table

        monkeypatch.setattr(module, "_mirrored", recording)
    decoded = []
    for cls, name in ((LieAlgebra, "bracket"), (SymplecticForm, "omega")):
        def counted(obj, _real=cls.__dict__[name].func, _name=name):
            decoded.append(_name)
            return _real(obj)

        view = cached_property(counted)
        view.__set_name__(cls, name)
        monkeypatch.setattr(cls, name, view)
    records, code = run_verify_catalog(3)
    assert (len(records), code) == (1062, 1)
    assert mirrored and all(types <= {int} for types in mirrored)
    assert decoded == []


# ---------------------------------------------------------------------------
# the per-build constants
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", range(7))
def test_standard_form_and_dual_subspace_equal_fresh_builds_and_are_shared(n):
    form, dual = standard_form(n), dual_subspace(n)
    assert form is standard_form(n) and dual is dual_subspace(n)
    assert typed(form) == typed(standard_form.__wrapped__(n))
    assert form.dim == 2 * n
    assert typed(form.values) == typed(reference.pair_coordinates(reference.standard_omega(n)))
    fresh = dual_subspace.__wrapped__(n)
    assert dual == fresh and typed(dual) == typed(fresh)
    assert dual.ints == tuple({n + i: 1} for i in range(n))


def test_built_extensions_share_the_constants_and_leave_them_unchanged():
    exts = [build_extension(ExtensionTriple.with_zero_cocycle(c)) for c in flat_samples(1)]
    assert all(e.form is standard_form(4) and e.lagrangian_ideal is dual_subspace(4) for e in exts)
    assert dual_subspace(4).ints == tuple({4 + i: 1} for i in range(4))
    assert typed(standard_form(4)) == typed(standard_form.__wrapped__(4))


def test_tokens_and_constants_are_shared_and_equal_fresh_ones():
    for k in range(6):
        assert BasisToken.primal(k) is BasisToken.primal(k) == BasisToken(f"e{k + 1}")
        assert BasisToken.dual_token(k) is BasisToken.dual_token(k) == BasisToken(f"e^{k + 1}")
        text = f"e^{k + 1}"
        assert BasisToken.parse(text, 3) is BasisToken.parse(text, None) == BasisToken(text)
    for value in (1, -1, F(1, 2), F(-7, 3), 0, F(4, 2)):
        expr = Expr.const(value)
        assert expr is Expr.const(value) == Expr.const(F(value))
        assert (expr.source, typed(expr.ast)) == (str(F(value)), typed(("num", F(value))))


@pytest.mark.parametrize("bad", ["e0x", "f1", "e^", "E1", "e1^2"])
def test_a_bad_token_raises_a_line_numbered_error_on_every_read(bad):
    quoted = re.escape(repr(bad))
    text = f"algebra g dim 2\nbracket e1 e2 -> 1 e1\nbracket e1 {bad} -> 1 e2\n"
    for _ in range(2):
        with pytest.raises(SpecParseError, match=f"^line 3: bad basis token {quoted}$") as info:
            parse_spec(text)
        assert info.value.line_no == 3
        with pytest.raises(SpecParseError, match=f"^line 7: bad basis token {quoted}$"):
            parse_rhs(f"1 {bad}", 7)
        with pytest.raises(SpecParseError, match=f"^bad basis token {quoted}$"):
            BasisToken.parse(bad, None)


# Taken from the parent of the shared constants: sha256 of `lagext catalog
# export`, and of the serialized zero-class extensions of the 108 flat
# ``--samples 3`` samples, in catalog order.
EXPORT_SHA256 = "4ffd0e987bdb3d4c490460ff504e6bc5940533b6720986c3065fe8413682f556"
EXTENSIONS_SHA256 = "70f0d342c334e506f4d32dd61caf197a8bcb54be863d7e27f9ee587e736097e4"


def test_exported_rows_and_extensions_serialize_to_the_same_bytes():
    from click.testing import CliRunner
    from lagext.cli import main

    export = CliRunner().invoke(main, ["catalog", "export"]).output
    assert hashlib.sha256(export.encode()).hexdigest() == EXPORT_SHA256
    digest = hashlib.sha256()
    for conn in flat_samples():
        ext = build_extension(ExtensionTriple.with_zero_cocycle(conn))
        text = serialize_spec(spec_from_symplectic(f"{conn.label}_ext", ext.algebra, ext.omega))
        assert serialize_spec(parse_spec(text)) == text
        digest.update(text.encode())
    assert digest.hexdigest() == EXTENSIONS_SHA256
