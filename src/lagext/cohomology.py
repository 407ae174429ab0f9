"""Cochain complexes C^1 -> C^2 -> C^3 for a flat Lie algebra acting on its dual.

Cochains take values in the dual space; a 1-cochain is an n x n matrix
s[i][k] = sigma(e_i)(e_k), a 2-cochain an alternating map with values
alpha(e_i, e_j)(e_k).  The Lagrangian subcomplex consists of symmetric
1-cochains and cyclic-sum-zero 2-cochains.

All kernel and image computations work on coordinate vectors in a single
canonical order.  A 1-cochain has s[a][b] at a * n + b, and the bases of
C^1 and C^1_L are sparse rows in that order (``_one_cochain_rows``).  A
2-cochain has pairs (i, j) with i < j lexicographically, then the dual
coordinate k; it is stored as those coordinates, and its tensor a[i][j][k],
antisymmetric in (i, j), is a view decoded from them.

Each differential is written once, as sparse rows in those coordinates:
``_coboundary_1_images`` for d1 and ``_coboundary_2_rows`` for d2, each
visiting only the nonzero entries of rho and of the bracket; a d2 row that
nothing lands in stays in place, empty.  The evaluators
``coboundary_1`` and ``coboundary_2`` apply those rows to a cochain's
nonzero coordinates, and ``cocycle_bases``, ``coboundary_image``,
``cohomology`` and ``solve_coboundary`` eliminate them; no dense d1 or d2
matrix is built on those paths.  ``_two_cochain_from_row`` turns a sparse
row of coordinates into a 2-cochain.

Both differentials read rho and the bracket scaled by one D to ints
(``DualRep.integer_tables``), so their rows are D times the rational rows
and span the same row space.  The d2 rows are built once per
representation (``DualRep.coboundary_2_rows``); d1 is evaluated once per
representation, on the n^2 unit 1-cochains (``DualRep.coboundary_1_units``),
and the image of a C^1_L basis element E_ik + E_ki is the sum of two of
those.  ``coboundary_1`` and ``coboundary_2`` scale the cochain to ints as
well and divide each nonzero entry back once; ``solve_coboundary``
multiplies the coefficients it finds by D.

Z^2 and Z^2_L are read off one elimination of the d2 rows, continued with
the cyclic-sum rows (``_cocycle_columns``, through
``linalg._free_columns``); B^2_L is one elimination of the C^1_L images,
and B^2 continues a copy of it with the unit images d(E_ik), i < k.
``cohomology`` keeps all four as coprime int echelon rows: the exact checks
B^2 <= Z^2 and B^2_L <= Z^2_L only read them, the rank of H^2_L -> H^2
eliminates only the rests of the unit images d(E_ik) reduced against Z^2_L,
and the summary keeps the int rows of Z^2 and Z^2_L with the pivots B^2 and
B^2_L lack (``linalg._quotient_pivots``).  The H^2 and H^2_L
representatives, the rows at those pivots, are decoded to Fraction
2-cochains on first read.  ``cocycle_bases`` and
``coboundary_image`` store the same int rows as ``Subspace``s, which write
Fractions only when a caller reads their ``rows``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations

from .connection import DualRep
from .linalg import (
    ONE,
    RatMatrix,
    Subspace,
    Vector,
    ZERO,
    _add,
    _copied,
    _dense,
    _echelon,
    _free_columns,
    _integer_tables,
    _kernel_ints,
    _normalised,
    _pair_value,
    _quotient_pivots,
    _rests,
    fmt_vector,
    is_zero_vector,
    vec,
    vec_sub,
    zero_vector,
)


def pair_list(n: int) -> list[tuple[int, int]]:
    return list(combinations(range(n), 2))


def triple_list(n: int) -> list[tuple[int, int, int]]:
    return list(combinations(range(n), 3))


def _two_cochain_width(n: int) -> int:
    """The number of 2-cochain coordinates, len(pair_list(n)) * n."""
    return n * n * (n - 1) // 2


def _pair_blocks(n: int) -> dict[tuple[int, int], tuple[int, int]]:
    """(i, j) -> (start, sign) for i != j: a(e_i, e_j)_k = sign * coordinate start + k."""
    blocks = {}
    for p, (i, j) in enumerate(pair_list(n)):
        blocks[(i, j)] = (p * n, 1)
        blocks[(j, i)] = (p * n, -1)
    return blocks


@dataclass(frozen=True)
class OneCochain:
    """Linear map into the dual, as the matrix s[i][k] = sigma(e_i)(e_k)."""

    entries: tuple[Vector, ...]

    def __post_init__(self):
        n = len(self.entries)
        if any(len(row) != n for row in self.entries):
            raise ValueError(f"a 1-cochain is an n x n matrix; rows of lengths "
                             f"{[len(row) for row in self.entries]} for n = {n}")

    @property
    def dim(self) -> int:
        return len(self.entries)

    @staticmethod
    def zero(n: int) -> "OneCochain":
        return OneCochain(tuple(zero_vector(n) for _ in range(n)))

    @staticmethod
    def from_rows(rows) -> "OneCochain":
        return OneCochain(tuple(vec(r) for r in rows))

    @staticmethod
    def unit(n: int, i: int, k: int, value: Fraction = Fraction(1)) -> "OneCochain":
        rows = [[ZERO] * n for _ in range(n)]
        rows[i][k] = value
        return OneCochain.from_rows(rows)

    def value(self, i: int) -> Vector:
        """sigma(e_i) as a dual-coordinate vector."""
        return self.entries[i]

    @property
    def is_symmetric(self) -> bool:
        n = self.dim
        return all(
            self.entries[i][k] == self.entries[k][i] for i in range(n) for k in range(i + 1, n)
        )

    def flatten(self) -> Vector:
        return tuple(x for row in self.entries for x in row)

    def __sub__(self, other: "OneCochain") -> "OneCochain":
        return OneCochain.from_rows(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries, strict=True)
            ]
        )


@dataclass(frozen=True)
class TwoCochain:
    """Alternating bilinear map into the dual, stored as its coordinates.

    values[p * n + k] = alpha(e_i, e_j)(e_k) for the p-th pair i < j of
    ``pair_list(n)``, so a 2-cochain is antisymmetric by construction; the
    tensor a[i][j][k] = alpha(e_i, e_j)(e_k) is a view decoded from them.
    """

    dim: int
    values: Vector

    def __post_init__(self):
        if len(self.values) != _two_cochain_width(self.dim):
            raise ValueError("vector length does not match the 2-cochain coordinates")

    @staticmethod
    def zero(n: int) -> "TwoCochain":
        return _two_cochain_from_row(n, {})

    @staticmethod
    def from_pairs(n: int, values: dict[tuple[int, int], Vector]) -> "TwoCochain":
        """Build from {(i, j): alpha(e_i, e_j)} with i < j, 0-based."""
        blocks = _pair_blocks(n)
        row = {}
        for (i, j), v in values.items():
            if not 0 <= i < j < n:
                raise ValueError(f"bad pair ({i}, {j})")
            row.update(enumerate(_pair_value(i, j, v, n), blocks[i, j][0]))
        return _two_cochain_from_row(n, row)

    @property
    def tensor(self) -> tuple[tuple[Vector, ...], ...]:
        """a[i][j][k], decoded from the coordinates in one pass."""
        n = self.dim
        pairs = pair_list(n)
        t = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
        for col, x in enumerate(self.values):
            if x:
                (i, j), k = pairs[col // n], col % n
                t[i][j][k], t[j][i][k] = x, -x
        return tuple(tuple(tuple(r) for r in plane) for plane in t)

    def value(self, i: int, j: int) -> Vector:
        """alpha(e_i, e_j), read off the block of the pair {i, j}."""
        if i == j:
            return zero_vector(self.dim)
        start, sign = _pair_blocks(self.dim)[i, j]
        block = self.values[start:start + self.dim]
        return block if sign > 0 else tuple(-x for x in block)

    def is_zero(self) -> bool:
        return is_zero_vector(self.values)

    @property
    def is_lagrangian(self) -> bool:
        """Cyclic-sum-zero on all triples (the Bianchi condition), by ``_cyclic_sum_rows``."""
        v = self.values
        return all(sum(x * v[c] for c, x in row.items()) == 0 for row in _cyclic_sum_rows(self.dim))

    def flatten(self) -> Vector:
        return self.values

    @staticmethod
    def unflatten(n: int, v: Vector) -> "TwoCochain":
        return TwoCochain(n, vec(v))

    def __sub__(self, other: "TwoCochain") -> "TwoCochain":
        return TwoCochain(self.dim, vec_sub(self.values, other.values))


def _two_cochain_from_row(n: int, row: dict[int, Fraction]) -> TwoCochain:
    """The 2-cochain with flattened coordinates row, {column: Fraction}; the rest are zero."""
    return TwoCochain(n, _dense(row, _two_cochain_width(n)))


@dataclass(frozen=True)
class ThreeCochain:
    """Residual of the degree-2 coboundary, indexed by lex triples i<j<k."""

    dim: int
    values: tuple[Vector, ...]  # one dual-coordinate vector per triple

    def is_zero(self) -> bool:
        return all(is_zero_vector(v) for v in self.values)

    def witnesses(self) -> tuple[tuple[tuple[int, int, int], Vector], ...]:
        out = []
        for (i, j, k), v in zip(triple_list(self.dim), self.values):
            if not is_zero_vector(v):
                out.append(((i + 1, j + 1, k + 1), v))
        return tuple(out)

    def first_witness(self) -> str:
        """The first nonzero residual as ``d2 residual(i,j,k) = (x, ...)``; "" if none."""
        for (i, j, k), v in self.witnesses():
            return f"d2 residual({i},{j},{k}) = {fmt_vector(v)}"
        return ""


def coboundary_1(rep: DualRep, sigma: OneCochain) -> TwoCochain:
    """(d sigma)(x,y) = rho(x) sigma(y) - rho(y) sigma(x) - sigma([x,y]).

    The sparse row ``_coboundary_1_images`` gives for sigma's coordinates,
    scaled to ints.  The image is linear in the scaled tables and in those
    coordinates, so each entry is divided back once.
    """
    if sigma.dim != rep.dim:
        raise ValueError("cochain dimension does not match the representation")
    d, (terms,) = _integer_tables([[(c, x) for c, x in enumerate(sigma.flatten()) if x]])
    image = _coboundary_1_images(rep, [dict(terms)])[0]
    scale = rep.integer_tables[0] * d
    return _two_cochain_from_row(rep.dim, {c: Fraction(x, scale) for c, x in image.items()})


def coboundary_2(rep: DualRep, alpha: TwoCochain) -> ThreeCochain:
    """Residual of the degree-2 coboundary on all lex triples.

    Each row of ``rep.coboundary_2_rows`` is applied to alpha's nonzero
    coordinates, scaled to ints; the n rows of a triple give its residual
    vector.  The residual is bilinear in the scaled rows and coordinates, so
    each entry is divided back once.  alpha is a 2-cocycle iff the residual
    vanishes identically.  d2 is linear, so a zero alpha has the zero
    residual, given without building the rows.
    """
    n = rep.dim
    if alpha.dim != n:
        raise ValueError("cochain dimension does not match the representation")
    if not any(alpha.values):
        return ThreeCochain(n, ((ZERO,) * n,) * len(triple_list(n)))
    d, (terms,) = _integer_tables([[(col, x) for col, x in enumerate(alpha.values) if x]])
    coords = dict(terms)
    scale = rep.integer_tables[0] * d
    values = []
    for row in rep.coboundary_2_rows:
        x = sum(v * coords[col] for col, v in row.items() if col in coords)
        values.append(Fraction(x, scale) if x else ZERO)
    # n consecutive values per triple; n = 0 has no triples
    return ThreeCochain(n, tuple(zip(*[iter(values)] * n)))


def _one_cochain_rows(n: int, lagrangian: bool) -> list[dict[int, Fraction]]:
    """The basis of C^1 (matrix units, row-major) or of C^1_L (E_ii, then
    E_ik + E_ki for i < k, lex order), as sparse rows of 1-cochain coordinates."""
    if not lagrangian:
        return [{c: ONE} for c in range(n * n)]
    return [{i * n + k: ONE, k * n + i: ONE} for i in range(n) for k in range(i, n)]


def _coboundary_1_images(rep: DualRep, rows: list[dict]) -> list[dict]:
    """Sparse rows of D d(sigma), for each sigma a sparse row of 1-cochain
    coordinates (ints or Fractions), read off the scaled ``rep.integer_tables``.

    This is the one formula for d1, (d sigma)(x, y) = rho(x) sigma(y) -
    rho(y) sigma(x) - sigma([x, y]): an entry sigma(e_a)_b = v, coordinate
    a * n + b, adds, for every x != a, v * rho(x)[t][b] to (d sigma)(x, a)_t,
    and -v * c[i][j][a] to (d sigma)(e_i, e_j)_b.  Only nonzero entries of rho
    and the bracket are visited: for each b, only the x whose rho(x) has a
    nonzero column b.  It is of degree 1 in rho and the bracket, so over the
    tables scaled by D it gives D times the rational image, in ints when
    sigma's coordinates are ints.
    """
    n = rep.dim
    pairs = pair_list(n)
    blocks = _pair_blocks(n)
    _, entries, table = rep.integer_tables
    # rho_cols[b]: (x, the nonzero rho(x)[t][b] as (t, value)) for each x
    # ascending whose rho(x) has a nonzero column b.
    rho_cols = [[] for _ in range(n)]
    for x, plane in enumerate(entries):
        by_col = {}
        for t, c, v in plane:
            by_col.setdefault(c, []).append((t, v))
        for b, terms in sorted(by_col.items()):
            rho_cols[b].append((x, terms))
    # For each a, the nonzero c[i][j][a] over pairs i < j, in pair order.
    bracket_into = [[] for _ in range(n)]
    for p, (i, j) in enumerate(pairs):
        for a, coeff in table[i][j]:
            bracket_into[a].append((p * n, coeff))
    images = []
    for sigma in rows:
        col = {}
        for ab, v in sigma.items():
            a, b = divmod(ab, n)
            for x, terms in rho_cols[b]:
                if x == a:
                    continue
                start, sign = blocks[(x, a)]
                for t, value in terms:
                    col[start + t] = col.get(start + t, 0) + sign * v * value
            for start, coeff in bracket_into[a]:
                col[start + b] = col.get(start + b, 0) - v * coeff
        images.append({j: x for j, x in col.items() if x})
    return images


def _basis_images(rep: DualRep, basis: list[dict]) -> list[dict[int, int]]:
    """D d(sigma) for each sigma a row of ``_one_cochain_rows``: the sum of
    the unit images ``rep.coboundary_1_units`` at its coordinates, as every
    coefficient of those rows is 1."""
    units = rep.coboundary_1_units
    images = []
    for sigma in basis:
        image = {}
        for c in sigma:
            for j, x in units[c].items():
                _add(image, j, x)
        images.append(image)
    return images


def _coboundary_2_rows(rep: DualRep) -> list[dict[int, int]]:
    """The one formula for d2: sparse rows, one per (triple, t), read off the
    scaled ``rep.integer_tables``, so D times the rational rows; see
    ``matrix_of_coboundary_2``.  Only nonzero entries of rho and the bracket
    are visited: a rotation (x, y, z) with rho(x) = 0 and [e_y, e_z] = 0 adds
    nothing, and a triple to which no rotation adds has n empty rows, kept
    in place.  Built once per representation, as ``rep.coboundary_2_rows``."""
    n = rep.dim
    blocks = _pair_blocks(n)
    _, entries, table = rep.integer_tables
    rows = []
    for i, j, k in triple_list(n):
        out = None
        for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
            if not entries[x] and not table[y][z]:
                continue
            if out is None:
                out = [{} for _ in range(n)]
            start, sign = blocks[(y, z)]
            for t, s, value in entries[x]:
                row = out[t]
                row[start + s] = row.get(start + s, 0) + sign * value
            for m, coeff in table[y][z]:
                if m != x:
                    start, sign = blocks[(x, m)]
                    for t, row in enumerate(out):
                        row[start + t] = row.get(start + t, 0) + sign * coeff
        if out is None:
            rows += ({} for _ in range(n))
        else:
            rows += ({col: v for col, v in row.items() if v} for row in out)
    return rows


def matrix_of_coboundary_2(rep: DualRep) -> RatMatrix:
    """Linearized degree-2 coboundary; columns follow the pair-then-k flattening.

    The rows of ``_coboundary_2_rows``, divided back by D and densified;
    ``coboundary_2`` applies the same rows.  On the triple i < j < k, with
    (x, y, z) running over its cyclic rotations,

        (d a)(x, y, z)_t = sum_cyc  sum_s rho(x)[t][s] a(y, z)_s
                                  + sum_m c[y][z][m] a(x, e_m)_t.

    So row (triple, t) gets +-rho(x)[t][s] in column s of the pair block of
    (y, z), and +-c[y][z][m], for every nonzero one with m != x, in column t
    of the pair block of (x, m); the sign is - where the pair is not in
    ascending order.  Only nonzero entries of rho and the bracket are visited.
    ``cocycle_bases`` eliminates the sparse rows themselves.
    """
    width = _two_cochain_width(rep.dim)
    d = rep.integer_tables[0]
    rows = rep.coboundary_2_rows or [{}]  # n < 3: no triples; one zero row keeps the shape
    return RatMatrix(tuple(
        _dense({col: Fraction(v, d) for col, v in row.items()}, width) for row in rows
    ))


def _cyclic_sum_rows(n: int) -> list[dict[int, int]]:
    """The cyclic sum of each lex triple as a sparse row of +-1 ints."""
    blocks = _pair_blocks(n)
    return [
        {blocks[a, b][0] + c: blocks[a, b][1] for a, b, c in ((i, j, k), (j, k, i), (k, i, j))}
        for i, j, k in triple_list(n)
    ]


def cyclic_sum_matrix(n: int) -> RatMatrix:
    """Rows: cyclic sums over lex triples, in flattened C^2 coordinates."""
    width = _two_cochain_width(n)
    return RatMatrix(tuple(
        _dense({c: Fraction(x) for c, x in row.items()}, width) for row in _cyclic_sum_rows(n) or [{}]
    ))


def _cocycle_columns(rep: DualRep) -> tuple[dict, dict]:
    """Z^2 and Z^2_L as ``linalg._free_columns`` read-offs: the sparse rows
    of d2 are row-reduced once and Z^2 is read off the result; the same
    elimination then takes in the cyclic-sum rows, and Z^2_L is read off that."""
    n = rep.dim
    width = _two_cochain_width(n)
    ints = {}
    z2 = _free_columns(rep.coboundary_2_rows, width, ints)
    return z2, _free_columns(_cyclic_sum_rows(n), width, ints)


def cocycle_bases(rep: DualRep) -> tuple[Subspace, Subspace]:
    """(Z^2, Z^2_L) as echelon subspaces of flattened C^2 coordinates.

    Both are read off one elimination (``_cocycle_columns``).  A subspace
    has one reduced echelon basis, so both are those of the dense kernels.
    """
    width = _two_cochain_width(rep.dim)
    return tuple(Subspace.of(width, _kernel_ints(z)) for z in _cocycle_columns(rep))


def _coboundaries(rep: DualRep) -> tuple[dict, dict]:
    """(B^2_L, B^2) as int echelon rows: the images of the C^1_L basis,
    eliminated, then a copy of those rows continued with the unit images
    d(E_ik), i < k, as span{E_ii, E_ik + E_ki, E_ik} = C^1."""
    n = rep.dim
    b2l = {}
    _echelon(_basis_images(rep, _one_cochain_rows(n, lagrangian=True)), b2l)
    b2 = _copied(b2l.items())
    _echelon(_off_diagonal_units(rep), b2)
    return b2l, b2


def _off_diagonal_units(rep: DualRep):
    """The unit images d(E_ik), i < k, of ``rep.coboundary_1_units``."""
    n = rep.dim
    units = rep.coboundary_1_units
    return (units[i * n + k] for i in range(n) for k in range(i + 1, n))


def coboundary_image(rep: DualRep, lagrangian: bool) -> Subspace:
    """B^2 (or B^2_L): the span of the images of the C^1 (or C^1_L) basis."""
    b2l, b2 = _coboundaries(rep)
    return Subspace.of(_two_cochain_width(rep.dim), b2l if lagrangian else b2)


@dataclass(frozen=True)
class CohomologySummary:
    """Dimensions and quotient representatives of the extension cohomologies.

    The representatives are views, decoded on first read from the coprime int
    echelon rows of Z^2 and Z^2_L that ``cohomology`` keeps with the pivots
    B^2 and B^2_L lack.  Those rows and pivots are private, and stay out of
    ``==`` and ``repr``.
    """

    dim_c1: int
    dim_c1_lagrangian: int
    dim_z2: int
    dim_b2: int                  # image of C^1
    dim_b2_lagrangian: int       # image of C^1_L
    dim_z2_lagrangian: int
    dim_h2: int
    dim_h2_lagrangian: int
    natural_map_rank: int        # rank of H^2_L -> H^2
    # (n, Z^2, the H^2 pivots, Z^2_L, the H^2_L pivots): Z^2 and Z^2_L as
    # ``_echelon``'s int rows {pivot: row}, each with the pivots B^2 (or
    # B^2_L) lacks.
    _cocycles: tuple = field(repr=False, compare=False)

    @cached_property
    def h2_representatives(self) -> tuple[TwoCochain, ...]:
        """A 2-cochain per basis class of H^2: the reduced echelon rows of Z^2
        at the pivots B^2 lacks."""
        n, z2, h2, _, _ = self._cocycles
        return _representatives(n, z2, h2)

    @cached_property
    def h2_lagrangian_representatives(self) -> tuple[TwoCochain, ...]:
        """A 2-cochain per basis class of H^2_L: the reduced echelon rows of
        Z^2_L at the pivots B^2_L lacks."""
        n, _, _, z2l, h2l = self._cocycles
        return _representatives(n, z2l, h2l)


def _representatives(n: int, z: dict, pivots: list[int]) -> tuple[TwoCochain, ...]:
    """The int echelon rows of z at the pivots, each divided by its pivot entry, as 2-cochains."""
    return tuple(_two_cochain_from_row(n, _normalised(z[p], p)) for p in pivots)


def cohomology(rep: DualRep) -> CohomologySummary:
    """H^2 and H^2_L of the representation: their dimensions, the rank of
    the natural map H^2_L -> H^2, and a representative of each basis class.

    Everything runs on the coprime int echelon rows of ``linalg._echelon``:
    Z^2 and Z^2_L are read off one elimination (``_cocycle_columns``), B^2_L
    is one elimination of the C^1_L images, and B^2 continues a copy of it
    (``_coboundaries``).  B^2 <= Z^2 and B^2_L <= Z^2_L are checked exactly,
    as the certificates d o d = 0 and d(C^1_L) <= Z^2_L
    (``linalg._quotient_pivots``, which raises ValueError when one fails).
    The rank is dim (Z^2_L + B^2) - dim B^2.  B^2 is B^2_L plus the unit
    images d(E_ik), i < k, and B^2_L <= Z^2_L, so Z^2_L + B^2 is Z^2_L plus
    those images.  Each is reduced against Z^2_L's rows, only reading them
    (``linalg._rests``); the nonzero rests vanish at Z^2_L's pivots, so they
    meet Z^2_L in 0, and only they are eliminated: dim (Z^2_L + B^2) is dim
    Z^2_L plus their rank.  No Fraction is made here: the
    summary keeps the int rows of Z^2 and Z^2_L and the pivots B^2 and B^2_L
    lack, and decodes the representatives from them on first read.
    """
    n = rep.dim
    z2, z2l = map(_kernel_ints, _cocycle_columns(rep))
    b2l, b2 = _coboundaries(rep)
    h2 = _quotient_pivots(z2, b2)
    h2l = _quotient_pivots(z2l, b2l)
    rests = {}  # of the d(E_ik) reduced against Z^2_L: Z^2_L + B^2 = Z^2_L + rests
    _echelon(_rests(_off_diagonal_units(rep), z2l), rests)
    return CohomologySummary(
        dim_c1=n * n,
        dim_c1_lagrangian=n * (n + 1) // 2,
        dim_z2=len(z2),
        dim_b2=len(b2),
        dim_b2_lagrangian=len(b2l),
        dim_z2_lagrangian=len(z2l),
        dim_h2=len(h2),
        dim_h2_lagrangian=len(h2l),
        natural_map_rank=len(z2l) + len(rests) - len(b2),
        _cocycles=(n, z2, h2, z2l, h2l),
    )


def solve_coboundary(
    rep: DualRep,
    alpha: TwoCochain,
    beta: TwoCochain,
    lagrangian_only: bool = False,
) -> OneCochain | None:
    """A sigma with beta = alpha - d(sigma), restricted to C^1_L when asked.

    Returns None when the cocycles are not cohomologous (in the requested
    complex).  One elimination reduces the rows of the system, one per
    2-cochain coordinate: the images of the basis read across, then alpha -
    beta.  The free coefficients are set to zero, so sigma is the unique
    pivot-supported solution in the chosen basis coordinates.  The images
    are D times d1's, so each coefficient found is multiplied by D.
    """
    n = rep.dim
    if alpha.dim != n or beta.dim != n:
        raise ValueError("cochain dimension does not match the representation")
    target = (alpha - beta).flatten()
    basis = _one_cochain_rows(n, lagrangian_only)
    rhs = len(basis)
    system = [{rhs: x} if x else {} for x in target]
    for j, image in enumerate(_basis_images(rep, basis)):
        for r, x in image.items():
            system[r][j] = x
    kept = {}
    _echelon(system, kept)
    if rhs in kept:
        return None
    d = rep.integer_tables[0]
    rows = [[ZERO] * n for _ in range(n)]
    for p, row in kept.items():
        if rhs in row:
            coeff = Fraction(row[rhs] * d, row[p])
            for c, v in basis[p].items():
                rows[c // n][c % n] += coeff * v
    return OneCochain.from_rows(rows)


def two_cochain_from_coefficients(
    space: Subspace, coefficients: Vector, n: int
) -> TwoCochain:
    """Linear combination of a flattened-cochain subspace basis; the
    subspace must lie in the 2-cochain coordinates for n."""
    if space.ambient_dim != _two_cochain_width(n):
        raise ValueError(
            f"subspace of ambient dimension {space.ambient_dim} does not lie in the"
            f" {_two_cochain_width(n)} 2-cochain coordinates for n = {n}"
        )
    if len(coefficients) != space.dim:
        raise ValueError("coefficient count does not match basis size")
    total: dict[int, Fraction] = {}
    for coeff, row in zip(coefficients, space.rows):
        if coeff:
            for t, x in row.items():
                total[t] = total.get(t, ZERO) + coeff * x
    return _two_cochain_from_row(n, {t: x for t, x in total.items() if x})
