"""Exact linear algebra over the rationals.

Scalars a caller sees are ``fractions.Fraction`` (arbitrary precision, always
in lowest terms, positive denominator).  Matrices are dense tuples, and a
``Subspace`` is its reduced echelon basis as sparse int rows (dicts of the
nonzero entries).  Every elimination runs through one kernel on sparse rows,
``_echelon``:
incremental reduced row echelon form, which reduces each incoming row against
the pivot rows kept so far and clears its leading column from the kept rows
that hold it, found through an index from each column to those rows, so
that an elimination costs per nonzero entry, not per kept row.  A check
that rows lie in a span, ``_in_span``, reduces them the same way and keeps
nothing; ``_rests`` hands back what is left of each row.  Every routine is
pure and mutates only the kept rows it is handed to extend, so the whole
module is safe to use from concurrent callers.

Inside the hot kernels the arithmetic runs on Python ints, and Fractions are
made only where a result leaves them.  ``_echelon`` is fraction-free: each
incoming row is copied as coprime ints, scaled by a positive rational (a row
that is already all ints, as most rows handed to it are, is only divided by
its content, the gcd of its entries); a row is reduced by r <- b r - a k and
divided by its content again where a kept row cancelled into it.  A row
and its positive multiples span the same line, so the reduced echelon form
is the one over the rationals.
A ``Subspace`` stores the kept rows, each made positive at its pivot
(``Subspace.of``); ``_normalised`` divides a row by its pivot entry where a
caller reads Fractions (``Subspace.rows``, ``rref``, cohomology.py's H^2
representatives).
``_free_columns`` writes no pivot row: it eliminates with the column
order reversed, so each pivot is its row's highest column, and the kernel
vector of each free column, read straight off the int rows, is already a
row of the reduced echelon basis of the kernel.  ``_kernel_ints`` writes
each vector as a coprime int row, so a kernel is itself a valid ``_echelon``
form that a caller can check, extend, or store as a ``Subspace``
(``_kernel``).  ``_quotient_pivots`` checks V <= W exactly on int rows
(V's rows reduced against W's, ``_in_span``) and then reads W/V off W's pivots,
with no further elimination (cohomology.py's H^2 representatives are W's
rows at those pivots).  ``_inverse_rows`` inverts P by one elimination of
[P | I] and hands back its int rows, so a caller reads each entry of P^-1
as a numerator over its row's pivot entry (``RatMatrix.inverse`` makes
those Fractions; the omega solves of extension.py keep the ints).

``_integer_tables`` is the one scaler of the tables that the zero-residual
sweeps read (connection, bracket, omega, and the sparse rows and columns of
cochains, pullbacks and psi): it takes one flat sequence of cells of
(index, value) terms, so each caller states its own table's shape, and
scales them by the lcm D of their denominators, in one pass that gathers
the denominators and one that rebuilds the cells.  A residual that is
homogeneous of degree k in those tables is D^k times the rational residual,
so it is zero exactly when the rational one is, and a nonzero one is
divided back as ``Fraction(v, D**k)``.  No float is used anywhere.

Echelon convention used throughout: reduced row echelon form, pivots
ascending.  A matrix has exactly one, so every basis, pivot list and
solution here depends only on the input, not on the order in which pivot
rows are found, and is the same on every platform.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

Vector = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def rat(value) -> Fraction:
    """Coerce ints, strings like "p" or "p/q", and Fractions to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a rational")


def format_rational(value: Fraction) -> str:
    """Serialize as "p" or "p/q" with q > 0, lowest terms."""
    return str(value)


def fmt_vector(v: Vector) -> str:
    """Serialize as "(x1, ..., xn)", each entry as ``format_rational`` writes it."""
    return "(" + ", ".join(format_rational(x) for x in v) + ")"


def vec(values) -> Vector:
    return tuple(rat(v) for v in values)


def zero_vector(n: int) -> Vector:
    return (ZERO,) * n


def _pair_value(i: int, j: int, v, n: int) -> Vector:
    """v, the value a builder was given for the index pair (i, j), as n Fractions."""
    if len(v) != n:
        raise ValueError(f"value of pair ({i}, {j}) has length {len(v)}, not {n}")
    return tuple(x if type(x) is Fraction else Fraction(x) for x in v)


def unit_vector(n: int, i: int) -> Vector:
    return tuple(ONE if j == i else ZERO for j in range(n))


def vec_sub(a: Vector, b: Vector) -> Vector:
    # An entry whose partner is zero passes through: x - 0 = x, as a Fraction.
    return tuple(x - y if y else x for x, y in zip(a, b, strict=True))


def is_zero_vector(a: Vector) -> bool:
    return all(x == 0 for x in a)


@dataclass(frozen=True)
class RatMatrix:
    """Dense rational matrix, stored as a tuple of row tuples."""

    entries: tuple[Vector, ...]

    def __post_init__(self):
        if self.entries:
            width = len(self.entries[0])
            if any(len(row) != width for row in self.entries):
                raise ValueError("ragged rows")

    @staticmethod
    def from_rows(rows) -> "RatMatrix":
        return RatMatrix(tuple(vec(row) for row in rows))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def __getitem__(self, rc: tuple[int, int]) -> Fraction:
        r, c = rc
        return self.entries[r][c]

    def transpose(self) -> "RatMatrix":
        return RatMatrix(tuple(zip(*self.entries))) if self.entries else self

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        width = other.cols
        rows_out = []
        for row in self.entries:
            acc = [ZERO] * width
            for k, x in enumerate(row):
                if x:
                    other_row = other.entries[k]
                    for c in range(width):
                        y = other_row[c]
                        if y:
                            acc[c] += x * y
            rows_out.append(tuple(acc))
        return RatMatrix(tuple(rows_out))

    def apply(self, v: Vector) -> Vector:
        if self.cols != len(v):
            raise ValueError("vector length does not match column count")
        out = []
        for row in self.entries:
            total = ZERO
            for x, y in zip(row, v):
                if x and y:
                    total += x * y
            out.append(total)
        return tuple(out)

    def rank(self) -> int:
        ints = {}
        _echelon([_sparse(row) for row in self.entries], ints)
        return len(ints)

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows

    def inverse(self) -> "RatMatrix":
        n = self.rows
        if n != self.cols:
            raise ValueError("inverse of non-square matrix")
        rows = _inverse_rows([_sparse(row) for row in self.entries], n)
        return RatMatrix(tuple(
            _dense({j - n: Fraction(x, row[k]) for j, x in row.items() if j >= n}, n)
            for k, row in enumerate(rows)
        ))


def _sparse(values) -> dict[int, Fraction]:
    """A dense vector as a sparse row {column: Fraction} of its nonzero entries."""
    return {j: y for j, x in enumerate(values) if (y := x if type(x) is Fraction else rat(x))}


def _dense(row: dict[int, Fraction], width: int) -> Vector:
    out = [ZERO] * width
    for j, x in row.items():
        out[j] = x
    return tuple(out)


def _add(acc: dict, key, value) -> None:
    """acc[key] += value for a nonzero value, in place, dropping the entry that cancels."""
    x = acc.get(key)
    if x is None:
        acc[key] = value
    elif x := x + value:
        acc[key] = x
    else:
        del acc[key]


def _integer_tables(cells) -> tuple[int, tuple]:
    """D, the lcm of the denominators in the cells, and the cells scaled by D to ints.

    ``cells`` is a sequence of cells, each a sequence of (index, value)
    terms with every value a nonzero Fraction or int; each cell comes back
    as a tuple of its terms with only the values scaled, in the order given.
    A caller flattens its own table into cells and regroups the result.
    """
    d = lcm(*{x.denominator for cell in cells for _, x in cell})
    return d, tuple([
        tuple([(j, x.numerator * (d // x.denominator)) for j, x in cell]) for cell in cells
    ])


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """row divided by its content, the gcd of its entries."""
    g = gcd(*row.values())
    return row if g == 1 else {j: x // g for j, x in row.items()}


def _integer_row(row: dict) -> dict[int, int]:
    """A new row: row, of nonzero Fractions or ints, times the positive
    rational that makes its entries coprime ints.  An int row is only
    divided by its content, into a copy: callers may still hold row."""
    for x in row.values():
        if type(x) is not int:
            break
    else:
        g = gcd(*row.values())
        return dict(row) if g == 1 else {j: x // g for j, x in row.items()}
    dens = {x.denominator for x in row.values()}
    if len(dens) > 1 or 1 not in dens:
        m = lcm(*dens)
        out = {j: x.numerator * (m // x.denominator) for j, x in row.items()}
    else:
        out = {j: x.numerator for j, x in row.items()}
    return _primitive(out)


def _cancel(row: dict[int, int], c: int, other: dict[int, int]) -> dict[int, int]:
    """row's entry at c cancelled by other (nonzero at c): (b row - a other) / g
    with a = row[c], b = other[c] and g the gcd of a and b; other is only read."""
    a, b = row[c], other[c]
    g = gcd(a, b)
    if b != g:
        f = b // g
        row = {j: f * x for j, x in row.items()}
    a //= g
    for j, y in other.items():
        x = row.get(j)
        if x is None:
            row[j] = -a * y
        elif x := x - a * y:
            row[j] = x
        else:
            del row[j]
    return row


def _rests(rows, ints: dict):
    """The nonzero rests of the rows reduced against ints, ``_echelon``'s int
    rows {pivot: row}, as new int rows; both are only read.  Each row is
    copied as coprime ints and its entry at each pivot cancelled by that
    pivot's row.  The kept rows are zero at each other's pivots, so a rest is
    zero at every pivot, and a row leaves none exactly when it lies in their
    span.  The rests are yielded one by one, as each row is reduced."""
    for row in rows:
        if row:
            row = _integer_row(row)
            for p in [j for j in row if j in ints]:
                row = _cancel(row, p, ints[p])
            if row:
                yield row


def _in_span(rows, ints: dict) -> bool:
    """Whether every row lies in the span of ints (both only read): the check
    stops at the first row that leaves a nonzero rest (``_rests``)."""
    return next(_rests(rows, ints), None) is None


def _echelon(rows, ints: dict) -> None:
    """Add the rows to ints, {pivot column: coprime int row}, in place.

    The rows may hold Fractions, ints or both, and are only read.  Each is
    copied as coprime ints and reduced against the kept rows, as in
    ``_in_span`` (dropped if it reaches zero), and divided by its content
    again only if a kept row cancelled into it.  Its leading column is then
    cleared from the kept rows that hold it, so each kept row is nonzero at
    its own pivot, its lowest column, and zero at every other pivot.

    The kept rows that hold a column are found through an index, {column:
    pivots of the kept rows that held it}, built from ints on the first row
    the call adds (the one walk of the kept rows) and extended as rows gain
    columns; a pivot whose row has since lost the column is skipped.  So a
    new pivot visits only the rows that hold its column, and the work of a
    call is paid per nonzero entry, not per kept row.
    """
    holders = None
    for row in rows:
        if not row:
            continue
        row = _integer_row(row)
        cancelled = [j for j in row if j in ints]
        for p in cancelled:
            row = _cancel(row, p, ints[p])
        if not row:
            continue
        if cancelled:
            row = _primitive(row)
        c = min(row)
        if holders is None:
            holders = defaultdict(list)
            for p, prow in ints.items():
                for j in prow:
                    holders[j].append(p)
        for p in holders.get(c, ()):
            prow = ints[p]
            if c in prow:
                gained = [j for j in row if j not in prow]
                prow = ints[p] = _primitive(_cancel(prow, c, row))
                for j in gained:
                    if j in prow:
                        holders[j].append(p)
        ints[c] = row
        for j in row:
            holders[j].append(c)


def _inverse_rows(rows, m: int) -> list[dict[int, int]]:
    """A matrix P, given as sparse rows (only read) over the columns 0..m-1,
    inverted by one int elimination of [P | I].

    Row k of the result is the coprime int row of [P | I]'s echelon form with
    pivot k: nonzero at column k, zero at every other column below m, and
    P^-1[k][i] is its entry at m + i divided by its entry at k.  Raises
    ValueError unless P is m x m and invertible, that is, unless the pivots
    are exactly 0..m-1 ([P | I] has rank the number of rows).
    """
    ints = {}
    _echelon([{**row, m + i: 1} for i, row in enumerate(rows)], ints)
    if sorted(ints) != list(range(m)):
        raise ValueError("matrix is singular")
    return [ints[k] for k in range(m)]


def _copied(rows) -> dict[int, dict[int, int]]:
    """A copy {pivot: row} of int echelon rows, given as (pivot, row) pairs,
    that ``_echelon`` may extend: it changes kept rows in place."""
    return {p: dict(row) for p, row in rows}


def _normalised(row: dict[int, int], p: int) -> dict[int, Fraction]:
    """An int echelon row divided by its entry at its pivot p, as Fractions."""
    d = row[p]
    return {j: ONE if j == p else Fraction(x, d) for j, x in row.items()}


def _free_columns(rows, width: int, ints: dict) -> dict[int, list[tuple[int, int, int]]]:
    """Nullspace in Q^width of the rows (only read), read off one elimination
    that continues ints in place: {free column c: the terms (p, x, d) of c's
    kernel vector}.

    The rows are eliminated with their columns relabelled c -> width - 1 - c,
    so each pivot row's pivot is its highest original column.  For a free
    column c the kernel vector is e_c minus column c of the pivot rows, so
    e_c - sum x/d e_p over the terms, with p the original pivot of a row, d
    its entry there and x its entry at c: it is nonzero only at c and at
    pivots above c, so its lowest column is c, and it is zero at every other
    free column.  These vectors are therefore the one reduced echelon basis
    of the kernel, with no second elimination; ``_kernel_ints`` writes them
    as coprime int rows.  ints is the relabelled int rows of an earlier
    call, or {}.
    """
    last = width - 1
    _echelon(({last - j: x for j, x in row.items()} for row in rows if row), ints)
    columns = {c: [] for c in range(width) if last - c not in ints}
    for q, row in ints.items():
        p, d = last - q, row[q]
        for j, x in row.items():
            if j != q:
                columns[last - j].append((p, x, d))
    return columns


def _kernel_ints(columns: dict) -> dict[int, dict[int, int]]:
    """The kernel read off by ``_free_columns`` as ``_echelon``'s int rows:
    each vector times the lcm m of its d's, divided by its content, so the
    row of column c is positive at c, its pivot."""
    kernel = {}
    for c, terms in columns.items():
        m = lcm(*[d for _, _, d in terms])
        row = {c: m}
        for p, x, d in terms:
            row[p] = -x * (m // d)
        kernel[c] = _primitive(row)
    return kernel


def _kernel(rows, width: int) -> "Subspace":
    """Nullspace in Q^width of the sparse rows (only read), read off by
    ``_free_columns``."""
    return Subspace.of(width, _kernel_ints(_free_columns(rows, width, {})))


def _subspace(ambient_dim: int, rows) -> "Subspace":
    """The span of sparse rows (only read)."""
    ints = {}
    _echelon(rows, ints)
    return Subspace.of(ambient_dim, ints)


def rref(rows) -> tuple[list[Vector], list[int]]:
    """Reduced row echelon form of a sequence of vectors.

    Returns (nonzero rows as tuples, pivot columns ascending).
    """
    rows = list(rows)
    ints = {}
    _echelon([_sparse(row) for row in rows], ints)
    pivots = sorted(ints)
    return [_dense(_normalised(ints[p], p), len(rows[0])) for p in pivots], pivots


def _echelon_pivots(rows, n: int) -> tuple[int, ...]:
    """The pivots of the rows, each row's lowest column; raises ValueError
    unless the rows are a reduced echelon basis of coprime int rows over
    range(n): each row positive at its pivot, the pivots ascending, and each
    row zero at every other pivot."""
    pivots = [min(row, default=-1) for row in rows]
    used = set(pivots)
    for last, row, p in zip([-1, *pivots], rows, pivots):
        values = row.values()
        if not (last < p and max(row) < n and set(map(type, values)) == {int} and 0 not in values
                and row[p] > 0 and gcd(*values) == 1 and len(used.intersection(row)) == 1):
            raise ValueError(
                f"echelon row {row!r} of a subspace of Q^{n}; need coprime nonzero ints"
                " in range, positive at ascending pivots and zero at the other pivots"
            )
    return tuple(pivots)


@dataclass(frozen=True)
class Subspace:
    """A subspace of Q^n, stored as its reduced echelon basis with ascending
    pivots: ``ints``, sparse {column: int} rows in pivot order, each the
    coprime int row ``_echelon`` keeps, positive at its pivot.  A subspace has
    one such basis, so equal subspaces have equal ``ints``; the constructor
    rejects rows that are not in this form, and keeps their ``pivots``.  The
    Fraction ``rows`` (1 at their pivot) and the dense ``basis`` are views
    decoded once.  The int rows are shared, so callers only read them
    (``_in_span``) or eliminate copies of them (``_copied``).
    """

    ambient_dim: int
    ints: tuple[dict[int, int], ...] = ()
    pivots: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "pivots", _echelon_pivots(self.ints, self.ambient_dim))

    @staticmethod
    def of(ambient_dim: int, ints: dict) -> "Subspace":
        """The subspace of ``_echelon``'s int rows {pivot: row}.  ``_echelon``
        keeps a row's sign, so a row negative at its pivot is negated."""
        return Subspace(ambient_dim, tuple(
            row if row[p] > 0 else {j: -x for j, x in row.items()}
            for p, row in sorted(ints.items())
        ))

    @staticmethod
    def from_vectors(ambient_dim: int, vectors) -> "Subspace":
        vectors = [tuple(v) for v in vectors]
        rows = [_sparse(v) for v in vectors]
        if any(len(v) != ambient_dim for v in vectors):
            raise ValueError("vector length does not match ambient dimension")
        return _subspace(ambient_dim, rows)

    @staticmethod
    def full(n: int) -> "Subspace":
        return Subspace(n, tuple({i: 1} for i in range(n)))

    @staticmethod
    def zero(n: int) -> "Subspace":
        return Subspace(n)

    @property
    def dim(self) -> int:
        return len(self.ints)

    @cached_property
    def rows(self) -> tuple[dict[int, Fraction], ...]:
        """The basis as sparse Fraction rows, 1 at their pivot, decoded from ``ints``."""
        return tuple(map(_normalised, self.ints, self.pivots))

    @cached_property
    def basis(self) -> tuple[Vector, ...]:
        """The basis as dense vectors, a read-only view decoded from ``rows``."""
        return tuple(_dense(row, self.ambient_dim) for row in self.rows)

    def contains(self, v: Vector) -> bool:
        """Whether v lies in this subspace: its rest against ``ints`` is zero
        (``_in_span``)."""
        if len(v) != self.ambient_dim:
            raise ValueError("vector length does not match ambient dimension")
        return _in_span([_sparse(v)], dict(zip(self.pivots, self.ints)))

    def complement_coordinates(self) -> tuple[int, ...]:
        """Ambient coordinates not used as pivots, ascending."""
        used = set(self.pivots)
        return tuple(i for i in range(self.ambient_dim) if i not in used)


def kernel_basis(m: RatMatrix) -> Subspace:
    """Nullspace {v : Mv = 0}, echelon-reduced; dim = cols - rank."""
    return _kernel([_sparse(row) for row in m.entries], m.cols)


def solve_linear(m: RatMatrix, b: Vector) -> Vector | None:
    """One exact solution of Mx = b, or None if inconsistent.

    Free variables are set to zero after full reduction, so the result is
    the unique pivot-supported solution.
    """
    if len(b) != m.rows:
        raise ValueError("right-hand side length does not match row count")
    n_cols = m.cols
    ints = {}
    _echelon([_sparse((*row, bv)) for row, bv in zip(m.entries, b)], ints)
    if n_cols in ints:
        return None
    x = [ZERO] * n_cols
    for p, row in ints.items():
        if n_cols in row:
            x[p] = Fraction(row[n_cols], row[p])
    return tuple(x)


def _quotient_pivots(w: dict, v: dict) -> list[int]:
    """W's pivots that V lacks, ascending, once V <= W is checked exactly.

    w holds W's echelon rows as ``_echelon``'s int rows {pivot: row}, and v
    V's, as int or Fraction rows; both are only read.  Each row of V is
    reduced against W's rows (``_in_span``); one that does not reach zero is
    outside W.  Each nonzero vector of W leads at one of W's pivots, so
    V <= W puts V's pivots among W's.  W's rows at the other pivots are then
    dim W - dim V independent vectors of W that vanish at V's pivots (each
    row of W is zero at every pivot but its own): the one reduced echelon
    basis of that complement, once each is divided by its pivot entry.
    """
    if not _in_span(v.values(), w):
        raise ValueError("V is not contained in W")
    return sorted(p for p in w if p not in v)
