"""Exact linear algebra over the rationals.

Scalars are ``fractions.Fraction`` (arbitrary precision, always in lowest
terms, positive denominator).  Matrices are stored densely, but elimination
works in place on private row lists and touches only the columns where the
pivot row is nonzero: every other entry would see a - f * 0 = a.  The
outputs are exactly those of eliminating every column.  Every routine is
pure and returns immutable values, so the whole module is safe to use from
concurrent callers.

Echelon convention used throughout: reduced row echelon form with
leftmost-pivot ordering, the pivot row chosen as the first remaining row
with a nonzero entry in the pivot column.  This makes every basis produced
here deterministic across platforms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

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


def vec(values) -> Vector:
    return tuple(rat(v) for v in values)


def zero_vector(n: int) -> Vector:
    return (ZERO,) * n


def unit_vector(n: int, i: int) -> Vector:
    return tuple(ONE if j == i else ZERO for j in range(n))


def vec_add(a: Vector, b: Vector) -> Vector:
    # An entry whose partner is zero passes through: x + 0 = x, as a Fraction.
    return tuple(x + y if y else x for x, y in zip(a, b, strict=True))


def vec_sub(a: Vector, b: Vector) -> Vector:
    return tuple(x - y if y else x for x, y in zip(a, b, strict=True))


def vec_scale(c: Fraction, a: Vector) -> Vector:
    return tuple(c * x for x in a)


def vec_dot(a: Vector, b: Vector) -> Fraction:
    if len(a) != len(b):
        raise ValueError("length mismatch")
    total = ZERO
    for x, y in zip(a, b):
        if x and y:
            total += x * y
    return total


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

    @staticmethod
    def zero(rows: int, cols: int) -> "RatMatrix":
        return RatMatrix(tuple(zero_vector(cols) for _ in range(rows)))

    @staticmethod
    def identity(n: int) -> "RatMatrix":
        return RatMatrix(tuple(unit_vector(n, i) for i in range(n)))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def __getitem__(self, rc: tuple[int, int]) -> Fraction:
        r, c = rc
        return self.entries[r][c]

    def row(self, r: int) -> Vector:
        return self.entries[r]

    def col(self, c: int) -> Vector:
        return tuple(row[c] for row in self.entries)

    def transpose(self) -> "RatMatrix":
        return RatMatrix(tuple(zip(*self.entries))) if self.entries else self

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        return RatMatrix(
            tuple(vec_add(a, b) for a, b in zip(self.entries, other.entries, strict=True))
        )

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        return RatMatrix(
            tuple(vec_sub(a, b) for a, b in zip(self.entries, other.entries, strict=True))
        )

    def __neg__(self) -> "RatMatrix":
        return RatMatrix(tuple(vec_scale(-ONE, row) for row in self.entries))

    def scale(self, c: Fraction) -> "RatMatrix":
        return RatMatrix(tuple(vec_scale(c, row) for row in self.entries))

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

    def trace(self) -> Fraction:
        if self.rows != self.cols:
            raise ValueError("trace of non-square matrix")
        return sum((self.entries[i][i] for i in range(self.rows)), ZERO)

    def is_zero(self) -> bool:
        return all(is_zero_vector(row) for row in self.entries)

    def is_nilpotent(self) -> bool:
        """Square matrix M with M^n = 0, n the size (sufficient and necessary)."""
        if self.rows != self.cols:
            raise ValueError("nilpotency of non-square matrix")
        power = self
        for _ in range(self.rows):
            if power.is_zero():
                return True
            power = power @ self
        return power.is_zero()

    def rank(self) -> int:
        return len(rref(self.entries)[0])

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows

    def inverse(self) -> "RatMatrix":
        n = self.rows
        if n != self.cols:
            raise ValueError("inverse of non-square matrix")
        aug = [list(self.entries[i]) + list(unit_vector(n, i)) for i in range(n)]
        reduced, pivots = _rref_rows(aug)
        if pivots != list(range(n)):
            raise ValueError("matrix is singular")
        return RatMatrix(tuple(tuple(row[n:]) for row in reduced))


def _rref_rows(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """In-place reduced row echelon form; returns (rows, pivot column list)."""
    if not rows:
        return rows, []
    n_rows, n_cols = len(rows), len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        prow = rows[r]
        # Left of c the pivot row is zero: those columns are earlier pivots,
        # already eliminated, or columns with no pivot in rows r and below.
        support = [j for j in range(c, n_cols) if prow[j]]
        inv = ONE / prow[c]
        if inv != 1:
            for j in support:
                prow[j] *= inv
        entries = [(j, prow[j]) for j in support]
        for i in range(n_rows):
            row = rows[i]
            f = row[c]
            if f and i != r:
                for j, b in entries:
                    row[j] -= f * b
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return rows, pivots


def rref(rows) -> tuple[list[Vector], list[int]]:
    """Reduced row echelon form of a sequence of vectors.

    Returns (nonzero rows as tuples, pivot columns ascending).
    """
    work = [list(row) for row in rows]
    reduced, pivots = _rref_rows(work)
    return [tuple(reduced[i]) for i in range(len(pivots))], pivots


@dataclass(frozen=True)
class Subspace:
    """A subspace of Q^n, held as a reduced-echelon basis with ascending pivots."""

    ambient_dim: int
    basis: tuple[Vector, ...] = field(default=())
    pivots: tuple[int, ...] = field(default=())

    @staticmethod
    def from_vectors(ambient_dim: int, vectors) -> "Subspace":
        vectors = [vec(v) for v in vectors]
        for v in vectors:
            if len(v) != ambient_dim:
                raise ValueError("vector length does not match ambient dimension")
        basis, pivots = rref(vectors)
        return Subspace(ambient_dim, tuple(basis), tuple(pivots))

    @staticmethod
    def full(n: int) -> "Subspace":
        return Subspace(n, tuple(unit_vector(n, i) for i in range(n)), tuple(range(n)))

    @staticmethod
    def zero(n: int) -> "Subspace":
        return Subspace(n)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def reduce(self, v: Vector) -> Vector:
        """Eliminate this subspace's pivot coordinates from v."""
        w = list(v)
        for row, p in zip(self.basis, self.pivots):
            f = w[p]
            if f:
                for j, b in enumerate(row):
                    if b:
                        w[j] -= f * b
        return tuple(w)

    def contains(self, v: Vector) -> bool:
        return is_zero_vector(self.reduce(v))

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(v) for v in other.basis)

    def coordinates(self, v: Vector) -> Vector:
        """Coefficients of v in this basis; raises if v is outside the subspace."""
        if not self.contains(v):
            raise ValueError("vector not in subspace")
        return tuple(v[p] for p in self.pivots)

    def sum(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return Subspace.from_vectors(self.ambient_dim, self.basis + other.basis)

    def complement_coordinates(self) -> tuple[int, ...]:
        """Ambient coordinates not used as pivots, ascending."""
        used = set(self.pivots)
        return tuple(i for i in range(self.ambient_dim) if i not in used)


def kernel_basis(m: RatMatrix) -> Subspace:
    """Nullspace {v : Mv = 0}, echelon-reduced; dim = cols - rank."""
    reduced, pivots = rref(m.entries)
    return echelon_kernel(reduced, pivots, m.cols)


def echelon_kernel(reduced, pivots, n_cols: int) -> Subspace:
    """Nullspace of a matrix from its ``rref`` output (nonzero rows and pivots)."""
    pivot_set = set(pivots)
    free_cols = [c for c in range(n_cols) if c not in pivot_set]
    vectors = []
    for fc in free_cols:
        v = [ZERO] * n_cols
        v[fc] = ONE
        for row, p in zip(reduced, pivots):
            v[p] = -row[fc]
        vectors.append(tuple(v))
    return Subspace.from_vectors(n_cols, vectors)


def solve_linear(m: RatMatrix, b: Vector) -> Vector | None:
    """One exact solution of Mx = b, or None if inconsistent.

    Free variables are set to zero after full reduction, so the result is
    the unique pivot-supported solution.
    """
    if len(b) != m.rows:
        raise ValueError("right-hand side length does not match row count")
    aug = [list(row) + [bv] for row, bv in zip(m.entries, b)]
    reduced, pivots = _rref_rows(aug)
    n_cols = m.cols
    for row in reduced:
        if all(x == 0 for x in row[:n_cols]) and row[n_cols] != 0:
            return None
    x = [ZERO] * n_cols
    for row, p in zip(reduced, pivots):
        if p < n_cols:
            x[p] = row[n_cols]
    # A pivot in the augmented column means inconsistency; caught above, but
    # guard against it slipping through when the matrix has zero columns.
    if n_cols in pivots:
        return None
    return tuple(x)


def quotient_basis(w: Subspace, v: Subspace) -> tuple[Vector, ...]:
    """Representatives of a basis of W/V, reduced against V's echelon basis.

    Requires V <= W; raises ValueError otherwise.  Joined with V's basis the
    representatives span W, and len(result) = dim W - dim V.
    """
    if w.ambient_dim != v.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    if not w.contains_subspace(v):
        raise ValueError("V is not contained in W")
    reduced = [v.reduce(b) for b in w.basis]
    reps, _ = rref([r for r in reduced if not is_zero_vector(r)])
    assert len(reps) == w.dim - v.dim
    return tuple(reps)

