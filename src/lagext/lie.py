"""Lie algebras given by structure constants over Q.

An algebra is its nonzero bracket table: ``pairs[p]`` lists the (k, c) of
[e_i, e_j] = sum of c e_k, k ascending and c != 0, for the p-th pair i < j
of ``combinations(range(dim), 2)`` (0-based), the order of a ``TwoCochain``'s
coordinates.  So an algebra is antisymmetric by construction; the spec-file
reader rejects a diagonal cell or a mirror that disagrees.  The Jacobi
identity is checked either explicitly via ``check_jacobi`` or by the
constructors of derived algebras (``quotient_algebra``, extensions); the
private ``_quotient`` leaves the check to its caller, which may hold
another certificate of the quotient.

Each algebra keeps, computed on first use, one int table: ``pairs`` scaled
by the lcm D of their denominators and mirrored to the n x n table of every
[e_i, e_j] (``integer_brackets``, by ``_mirrored``), and its lower central
series as int echelon rows (``integer_central_series``).  Every bracket the
module computes is read through that table: the Jacobi check, the series
and ``is_ideal`` on ints; ``center`` and ``derivation_space`` take their
kernel rows from it, as their equations are homogeneous and so keep their
kernel when scaled by D; and ``bracket_rows``, the bracket of two sparse
rows, divides each entry of its sum back by D once.  The quotient reads the
pairs themselves, and the dense tensor ``bracket``, a view for tests and
the benchmark, decodes them on first read.  Keeping these is sound because
an algebra is immutable.  The constructor rejects a table that is not
canonical (k out of order, or a c that is zero or not a Fraction), so equal
tables mean equal brackets.

The lower central series is the ``descending_flag`` of the ad_{e_j}, the
planes of ``integer_brackets``; connection.py reads the flag of nabla's.
The flag runs on tables scaled by a positive D to ints: D M v spans the
same line as M v, so each step spans the same subspace as over the
rationals.  Every verdict (nilpotency, class, fingerprint) reads only the
step dimensions; ``lower_central_series`` makes the steps into ``Subspace``s
when a caller asks for them.  ``is_ideal`` reduces the int images
[e_j, v] against the subspace's int rows, only reading them (``_in_span``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations

from .linalg import (
    RatMatrix,
    Subspace,
    Vector,
    _add,
    _dense,
    _echelon,
    _in_span,
    _integer_tables,
    _kernel,
    _pair_value,
    _sparse,
    _subspace,
    fmt_vector,
)

BracketTensor = tuple[tuple[Vector, ...], ...]
# PairTable[p] lists the (k, c) of the p-th pair i < j; NonzeroTable[i][j] of any i, j.
PairTable = tuple[tuple[tuple[int, Fraction], ...], ...]
NonzeroTable = tuple[PairTable, ...]


def _check_canonical(rows, dim: int, what: str) -> None:
    """Raise ValueError unless each ((i, j), terms) row lists its (k, c) with k
    strictly ascending in range(dim) and every c a nonzero Fraction."""
    for (i, j), terms in rows:
        last = -1
        for k, c in terms:
            if not last < k < dim or type(c) is not Fraction or not c:
                raise ValueError(
                    f"{what} ({i}, {j}) lists {terms!r}; "
                    f"need k ascending in range({dim}) and nonzero Fraction c"
                )
            last = k


@dataclass(frozen=True)
class LieAlgebra:
    """Structure-constant Lie algebra with a fixed ordered basis, stored as ``pairs``."""

    dim: int
    pairs: PairTable
    name: str = ""

    def __post_init__(self):
        expected = self.dim * (self.dim - 1) // 2
        if len(self.pairs) != expected:
            raise ValueError(f"bracket table has {len(self.pairs)} pairs, not {expected}")
        rows = zip(combinations(range(self.dim), 2), self.pairs)
        _check_canonical(rows, self.dim, "bracket pair")

    @staticmethod
    def from_brackets(dim: int, entries: dict[tuple[int, int], Vector], name: str = "") -> "LieAlgebra":
        """Build from 0-based {(i, j): [e_i, e_j]} with i < j; the rest by antisymmetry."""
        pairs = [()] * (dim * (dim - 1) // 2)
        for (i, j), v in entries.items():
            if not 0 <= i < j < dim:
                raise ValueError(f"bad bracket index pair ({i}, {j})")
            pairs[i * (2 * dim - i - 1) // 2 + j - i - 1] = tuple(
                (k, x) for k, x in enumerate(_pair_value(i, j, v, dim)) if x
            )
        return LieAlgebra(dim, tuple(pairs), name)

    @staticmethod
    def abelian(dim: int, name: str = "") -> "LieAlgebra":
        return LieAlgebra.from_brackets(dim, {}, name)

    @cached_property
    def bracket(self) -> BracketTensor:
        """The dense tensor c[i][j][k], a read-only view decoded from ``pairs`` once."""
        n = self.dim
        return tuple(tuple(_dense(dict(t), n) for t in plane) for plane in _mirrored(n, self.pairs))

    @cached_property
    def integer_central_series(self) -> tuple[dict[int, dict[int, int]], ...]:
        """The lower central series as int echelon rows, one {pivot: row} per
        term, computed once per algebra."""
        return _lower_central_series(self)

    @cached_property
    def integer_brackets(self) -> tuple[int, NonzeroTable]:
        """D, the lcm of the denominators of ``pairs``, and the n x n table
        scaled by D to ints: the cells of ``pairs`` scaled, then mirrored on
        ints (``_mirrored``); negation keeps denominators."""
        d, pairs = _integer_tables(self.pairs)
        return d, _mirrored(self.dim, pairs)

    def bracket_rows(self, u: dict, v: dict) -> dict[int, Fraction]:
        """[u, v] as a sparse Fraction row, for sparse rows u and v of ints or
        Fractions: summed over the int table, D times the structure
        constants, and each entry divided back by D once."""
        d, table = self.integer_brackets
        out = {}
        for i, x in u.items():
            plane = table[i]
            for j, y in v.items():
                for k, c in plane[j]:
                    _add(out, k, x * y * c)
        return {k: Fraction(x, d) for k, x in out.items()}

    def is_ideal(self, sub: Subspace) -> bool:
        """[g, sub] <= sub: every D [e_j, v], v in the basis of sub, reduces to 0
        against sub's int rows (``_in_span``, which only reads them).  A
        nonzero sub of another ambient dimension raises."""
        if sub.dim and sub.ambient_dim != self.dim:
            raise ValueError("ambient dimension mismatch")
        kept = dict(zip(sub.pivots, sub.ints))
        return _in_span(_images(self.integer_brackets[1], sub.ints), kept)


def _mirrored(n: int, pairs) -> NonzeroTable:
    """The n x n table of a pair table of Fraction or int terms: cell [i][j]
    the terms of the pair i < j, and cell [j][i] those terms negated."""
    table = [[()] * n for _ in range(n)]
    for (i, j), terms in zip(combinations(range(n), 2), pairs):
        if terms:
            table[i][j] = terms
            table[j][i] = tuple([(k, -c) for k, c in terms])
    return tuple(map(tuple, table))


def _images(operators, rows):
    """The nonzero M v for v in rows and M in operators (v outer), as fresh sparse
    rows; M is the tuple of its columns, column c the nonzero (k, x) of M e_c."""
    for v in rows:
        for columns in operators:
            image = {}
            for c, x in v.items():
                for k, y in columns[c]:
                    _add(image, k, x * y)
            if image:
                yield image


def descending_flag(operators, n: int) -> tuple[dict[int, dict[int, int]], ...]:
    """V_0 = Q^n, V_{r+1} = span{M v : M in operators, v in V_r}, each term
    as the coprime int echelon rows {pivot: row} of ``_echelon``.

    The operators are int tables, each a rational operator scaled by one
    positive D.  D M v spans the same line as M v, so each term is the
    rational one, and an r-fold product of the scaled operators, D^r times
    the rational product, is zero exactly when that one is.  V_r spans the
    images of all r-fold products, so the flag descends; it is listed down
    to 0, or to the last term before the first step that does not shrink,
    after which it is constant.
    """
    flag = [{i: {i: 1} for i in range(n)}]
    while flag[-1]:
        nxt = {}
        _echelon(_images(operators, flag[-1].values()), nxt)
        if len(nxt) == len(flag[-1]):
            break
        flag.append(nxt)
    return tuple(flag)


@dataclass(frozen=True)
class JacobiViolation:
    triple: tuple[int, int, int]  # 1-based basis indices
    residual: Vector


def check_jacobi(algebra: LieAlgebra) -> tuple[JacobiViolation, ...]:
    """All basis triples i<j<k where the cyclic Jacobi sum is nonzero.

    The sum is of degree 2 in the bracket table, so it is summed over the
    table scaled by D to ints and a nonzero one is divided back by D^2.
    """
    n = algebra.dim
    d, table = algebra.integer_brackets
    violations = []
    for i, j, k in combinations(range(n), 3):
        r = [0] * n
        for a, inner in ((i, table[j][k]), (j, table[k][i]), (k, table[i][j])):
            # contribution of [e_a, inner] with inner = the listed bracket's terms
            outer = table[a]
            for t, coeff in inner:
                for m, x in outer[t]:
                    r[m] += coeff * x
        if any(r):
            residual = tuple(Fraction(x, d * d) for x in r)
            violations.append(JacobiViolation((i + 1, j + 1, k + 1), residual))
    return tuple(violations)


def require_jacobi(algebra: LieAlgebra) -> LieAlgebra:
    violations = check_jacobi(algebra)
    if violations:
        first = violations[0]
        raise ValueError(
            f"Jacobi identity fails at {first.triple}: residual {fmt_vector(first.residual)}"
        )
    return algebra


def bracket_of_subspaces(algebra: LieAlgebra, a: Subspace, b: Subspace) -> Subspace:
    """span{[x, y] : x in A, y in B}; a nonzero A or B of another ambient
    dimension raises."""
    if any(s.dim and s.ambient_dim != algebra.dim for s in (a, b)):
        raise ValueError("ambient dimension mismatch")
    return _subspace(algebra.dim, [algebra.bracket_rows(x, y) for x in a.ints for y in b.ints])


def lower_central_series(algebra: LieAlgebra) -> tuple[Subspace, ...]:
    """C^0 = g, C^{p+1} = [g, C^p], listed down to the first stable term.

    Made as subspaces from the int flag, ``algebra.integer_central_series``,
    which the algebra keeps; verdicts read only its dimensions (``_lcs_dims``).
    """
    return tuple(Subspace.of(algebra.dim, step) for step in algebra.integer_central_series)


def _lower_central_series(algebra: LieAlgebra) -> tuple[dict[int, dict[int, int]], ...]:
    # [g, C] is spanned by the [e_j, v], v in C: the flag of the ad_{e_j}.
    return descending_flag(algebra.integer_brackets[1], algebra.dim)


def _lcs_dims(algebra: LieAlgebra) -> tuple[int, ...]:
    """The dimensions of the lower central series, read off the int flag."""
    return tuple(map(len, algebra.integer_central_series))


def derived_series(algebra: LieAlgebra) -> tuple[Subspace, ...]:
    series = [Subspace.full(algebra.dim)]
    while series[-1].dim:
        nxt = bracket_of_subspaces(algebra, series[-1], series[-1])
        if nxt.dim == series[-1].dim:
            break
        series.append(nxt)
    return tuple(series)


def is_nilpotent(algebra: LieAlgebra) -> bool:
    return not algebra.integer_central_series[-1]


def nilpotency_class(algebra: LieAlgebra) -> int | None:
    """Steps until the lower central series hits 0; None if it never does."""
    series = algebra.integer_central_series
    if series[-1]:
        return None
    return len(series) - 1


def center(algebra: LieAlgebra) -> Subspace:
    """{x : [x, e_j] = 0 for all j}: the kernel of the rows x -> [x, e_j]_k,
    read off the int table; the rows are D times the rational ones, so they
    have the same kernel."""
    n = algebra.dim
    rows = [{} for _ in range(n * n)]
    for i, plane in enumerate(algebra.integer_brackets[1]):
        for j, terms in enumerate(plane):
            for k, c in terms:
                rows[j * n + k][i] = c  # x_i contributes c[i][j][k] to [x, e_j]_k
    return _kernel(rows, n)


def derivation_space(algebra: LieAlgebra) -> Subspace:
    """Kernel of D[x,y] = [Dx,y] + [x,Dy], D flattened row-major (n^2 unknowns).

    The equations are homogeneous, so their rows are read off the int table:
    scaled by the table's D they keep their kernel."""
    n = algebra.dim
    table = algebra.integer_brackets[1]
    rows = []
    for i, j in combinations(range(n), 2):
        # block[k]: coefficient of D[a][b] in (D[e_i,e_j] - [De_i,e_j] - [e_i,De_j])_k
        block = [{} for _ in range(n)]
        for b, c in table[i][j]:
            for k, row in enumerate(block):
                _add(row, k * n + b, c)           # (D [e_i,e_j])_k picks D[k][b]
        for a in range(n):
            for k, c in table[a][j]:
                _add(block[k], a * n + i, -c)     # [De_i, e_j]_k picks D[a][i]
            for k, c in table[i][a]:
                _add(block[k], a * n + j, -c)     # [e_i, De_j]_k picks D[a][j]
        rows += block
    return _kernel(rows, n * n)


@dataclass(frozen=True)
class Fingerprint:
    """Isomorphism-invariant summary; distinct fingerprints certify non-isomorphism."""

    dim: int
    lcs_dims: tuple[int, ...]
    ds_dims: tuple[int, ...]
    center_dim: int
    derivation_dim: int
    nilpotency_class: int | None
    is_filiform: bool


def fingerprint(algebra: LieAlgebra) -> Fingerprint:
    lcs = _lcs_dims(algebra)
    ds = tuple(s.dim for s in derived_series(algebra))
    cls = nilpotency_class(algebra)
    # Filiform means maximal class n-1; the notion starts at dim 3.
    filiform = algebra.dim >= 3 and cls is not None and cls == algebra.dim - 1
    return Fingerprint(
        dim=algebra.dim,
        lcs_dims=lcs,
        ds_dims=ds,
        center_dim=center(algebra).dim,
        derivation_dim=derivation_space(algebra).dim,
        nilpotency_class=cls,
        is_filiform=filiform,
    )


def quotient_algebra(algebra: LieAlgebra, ideal: Subspace, name: str = "") -> LieAlgebra:
    """Quotient by an ideal, in the complement basis of the ideal's non-pivot coordinates.

    Raises ValueError if the subspace is not an ideal; the quotient is
    checked for the Jacobi identity.
    """
    if ideal.ambient_dim != algebra.dim:
        raise ValueError("ambient dimension mismatch")
    if not algebra.is_ideal(ideal):
        raise ValueError("subspace is not an ideal")
    return require_jacobi(_quotient(algebra, ideal, name))


def _quotient(algebra: LieAlgebra, ideal: Subspace, name: str = "") -> LieAlgebra:
    """``quotient_algebra`` for a caller that has already verified the ideal,
    with no Jacobi check: a caller without another certificate of the
    quotient runs ``require_jacobi`` on it."""
    n = algebra.dim
    keep = ideal.complement_coordinates()
    position = {k: t for t, k in enumerate(keep)}
    # Row p of the ideal is 1 at p and 0 at the other pivots: taking x row p
    # off a cell deletes its entry at p and subtracts the row's other entries.
    rows = zip(ideal.pivots, ideal.rows)
    kept = {p: [(k, -y) for k, y in row.items() if k != p] for p, row in rows}
    pairs = []
    for a, b in combinations(keep, 2):
        # keep ascends, so a < b: the cell is the pair's own terms.
        terms = algebra.pairs[a * (2 * n - a - 1) // 2 + b - a - 1]
        cell = {k: c for k, c in terms if k not in kept}
        for p, x in terms:
            for k, y in kept.get(p, ()):
                _add(cell, k, x * y)
        pairs.append(tuple(sorted((position[k], c) for k, c in cell.items())))
    return LieAlgebra(len(keep), tuple(pairs), name)


def transform(algebra: LieAlgebra, p: RatMatrix, name: str = "") -> LieAlgebra:
    """Structure constants in the new basis f_j = sum_i P[i][j] e_i (P invertible)."""
    n = algebra.dim
    if p.rows != n or p.cols != n:
        raise ValueError("change of basis must be square of matching size")
    p_inv = p.inverse()
    cols = [_sparse(col) for col in zip(*p.entries)]
    entries = {
        (a, b): p_inv.apply(_dense(algebra.bracket_rows(cols[a], cols[b]), n))
        for a, b in combinations(range(n), 2)
    }
    return LieAlgebra.from_brackets(n, entries, name)
