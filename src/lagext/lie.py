"""Lie algebras given by structure constants over Q.

An algebra is its nonzero bracket table: ``pairs[p]`` lists the (k, c) of
[e_i, e_j] = sum of c e_k, k ascending and c != 0, for the p-th pair i < j
of ``combinations(range(dim), 2)`` (0-based), the order of a ``TwoCochain``'s
coordinates.  So an algebra is antisymmetric by construction; the spec-file
reader rejects a diagonal cell or a mirror that disagrees.  The Jacobi
identity is checked either explicitly via ``check_jacobi`` or by the
constructors of derived algebras (quotients, extensions).

Each algebra keeps the n x n view of its table (``nonzero_brackets``), which
every routine here reads, and its lower central series, both computed on
first use; the dense tensor ``bracket`` is a view for tests and the
benchmark.  Keeping them is sound because an algebra is immutable, and every
builder here writes Fractions and no zero c, so equal tables mean equal brackets.
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
    ZERO,
    _add,
    _dense,
    _eliminate,
    _kernel,
    _pair_value,
    _reduce,
    _subspace,
    fmt_vector,
)

BracketTensor = tuple[tuple[Vector, ...], ...]
# PairTable[p] lists the (k, c) of the p-th pair i < j; NonzeroTable[i][j] of any i, j.
PairTable = tuple[tuple[tuple[int, Fraction], ...], ...]
NonzeroTable = tuple[PairTable, ...]


def _freeze_tensor(c) -> BracketTensor:
    return tuple(
        tuple(tuple(x if type(x) is Fraction else Fraction(x) for x in row) for row in plane)
        for plane in c
    )


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

    # Set by ``rename``; a class attribute, so not a dataclass field.
    _renamed_from = None

    @cached_property
    def nonzero_brackets(self) -> NonzeroTable:
        """The nonzero structure constants: [e_i, e_j] = sum of c e_k over (k, c) in [i][j]."""
        if self._renamed_from is not None:
            return self._renamed_from.nonzero_brackets
        n = self.dim
        table = [[()] * n for _ in range(n)]
        for (i, j), terms in zip(combinations(range(n), 2), self.pairs):
            if terms:
                table[i][j] = terms
                table[j][i] = tuple((k, -c) for k, c in terms)
        return tuple(tuple(row) for row in table)

    @cached_property
    def bracket(self) -> BracketTensor:
        """The dense tensor c[i][j][k], a read-only view decoded from the table once."""
        n = self.dim
        return tuple(tuple(_dense(dict(t), n) for t in plane) for plane in self.nonzero_brackets)

    @cached_property
    def central_series(self) -> tuple[Subspace, ...]:
        """The lower central series, computed once per algebra and its renamed copies."""
        if self._renamed_from is not None:
            return self._renamed_from.central_series
        return _lower_central_series(self)

    def bracket_vectors(self, x: Vector, y: Vector) -> Vector:
        n = self.dim
        out = [ZERO] * n
        table = self.nonzero_brackets
        y_support = [(j, y[j]) for j in range(n) if y[j]]
        for i in range(n):
            xi = x[i]
            if not xi:
                continue
            plane = table[i]
            for j, yj in y_support:
                terms = plane[j]
                if terms:
                    coeff = xi * yj
                    for k, c in terms:
                        out[k] += coeff * c
        return tuple(out)

    def is_ideal(self, sub: Subspace) -> bool:
        kept = dict(zip(sub.pivots, sub._rows))
        return not any(_reduce(row, kept) for row in _ad_images(self, sub))

    def rename(self, name: str) -> "LieAlgebra":
        """The same algebra under another name, reading ``nonzero_brackets`` and
        ``central_series`` through this one: both depend only on the bracket."""
        renamed = LieAlgebra(self.dim, self.pairs, name)
        object.__setattr__(renamed, "_renamed_from", self)
        return renamed


def _ad_images(algebra: LieAlgebra, sub: Subspace):
    """The nonzero brackets [v, e_j] for v in the basis of sub, as fresh sparse
    rows; they span [sub, g]."""
    table = algebra.nonzero_brackets
    for v in sub._rows:
        for j in range(algebra.dim):
            image = {}
            for i, x in v.items():
                for k, c in table[i][j]:
                    _add(image, k, x * c)
            if image:
                yield image


@dataclass(frozen=True)
class JacobiViolation:
    triple: tuple[int, int, int]  # 1-based basis indices
    residual: Vector


def check_jacobi(algebra: LieAlgebra) -> tuple[JacobiViolation, ...]:
    """All basis triples i<j<k where the cyclic Jacobi sum is nonzero."""
    n = algebra.dim
    table = algebra.nonzero_brackets
    violations = []
    for i, j, k in combinations(range(n), 3):
        r = [ZERO] * n
        for a, inner in ((i, table[j][k]), (j, table[k][i]), (k, table[i][j])):
            # contribution of [e_a, inner] with inner = the listed bracket's terms
            outer = table[a]
            for t, coeff in inner:
                for m, x in outer[t]:
                    r[m] += coeff * x
        if any(r):
            violations.append(JacobiViolation((i + 1, j + 1, k + 1), tuple(r)))
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
    """span{[x, y] : x in A, y in B}."""
    vectors = [
        algebra.bracket_vectors(x, y) for x in a.basis for y in b.basis
    ]
    return Subspace.from_vectors(algebra.dim, vectors)


def lower_central_series(algebra: LieAlgebra) -> tuple[Subspace, ...]:
    """C^0 = g, C^{p+1} = [g, C^p], listed down to the first stable term.

    Computed once per algebra and kept as ``algebra.central_series``.
    """
    return algebra.central_series


def _lower_central_series(algebra: LieAlgebra) -> tuple[Subspace, ...]:
    # [g, C] is spanned by the [v, e_j] = -[e_j, v], v in C; the reduced
    # echelon basis of a span does not depend on the spanning set.
    series = [Subspace.full(algebra.dim)]
    while True:
        nxt = _subspace(algebra.dim, _ad_images(algebra, series[-1]))
        if nxt.dim == series[-1].dim:
            break
        series.append(nxt)
        if nxt.dim == 0:
            break
    return tuple(series)


def derived_series(algebra: LieAlgebra) -> tuple[Subspace, ...]:
    series = [Subspace.full(algebra.dim)]
    while True:
        nxt = bracket_of_subspaces(algebra, series[-1], series[-1])
        if nxt.dim == series[-1].dim:
            break
        series.append(nxt)
        if nxt.dim == 0:
            break
    return tuple(series)


def is_nilpotent(algebra: LieAlgebra) -> bool:
    return lower_central_series(algebra)[-1].dim == 0


def nilpotency_class(algebra: LieAlgebra) -> int | None:
    """Steps until the lower central series hits 0; None if it never does."""
    series = lower_central_series(algebra)
    if series[-1].dim != 0:
        return None
    return len(series) - 1


def center(algebra: LieAlgebra) -> Subspace:
    """{x : [x, e_j] = 0 for all j}: the kernel of the rows x -> [x, e_j]_k."""
    n = algebra.dim
    rows = [{} for _ in range(n * n)]
    for i, plane in enumerate(algebra.nonzero_brackets):
        for j, terms in enumerate(plane):
            for k, c in terms:
                rows[j * n + k][i] = c  # x_i contributes c[i][j][k] to [x, e_j]_k
    return _kernel(_eliminate(rows), n)


def derivation_space(algebra: LieAlgebra) -> Subspace:
    """Kernel of D[x,y] = [Dx,y] + [x,Dy], D flattened row-major (n^2 unknowns)."""
    n = algebra.dim
    table = algebra.nonzero_brackets
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
    return _kernel(_eliminate(rows), n * n)


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
    lcs = tuple(s.dim for s in lower_central_series(algebra))
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

    Raises ValueError if the subspace is not an ideal.
    """
    if ideal.ambient_dim != algebra.dim:
        raise ValueError("ambient dimension mismatch")
    if not algebra.is_ideal(ideal):
        raise ValueError("subspace is not an ideal")
    keep = ideal.complement_coordinates()
    table = algebra.nonzero_brackets
    entries = {}
    for a, b in combinations(range(len(keep)), 2):
        terms = table[keep[a]][keep[b]]
        if terms:
            # Reduction against the ideal's echelon basis leaves support on
            # non-pivot coordinates only.
            w = ideal.reduce(_dense(dict(terms), algebra.dim))
            entries[a, b] = [w[k] for k in keep]
    return require_jacobi(LieAlgebra.from_brackets(len(keep), entries, name))


def transform(algebra: LieAlgebra, p: RatMatrix, name: str = "") -> LieAlgebra:
    """Structure constants in the new basis f_j = sum_i P[i][j] e_i (P invertible)."""
    n = algebra.dim
    if p.rows != n or p.cols != n:
        raise ValueError("change of basis must be square of matching size")
    p_inv = p.inverse()
    cols = [p.col(j) for j in range(n)]
    entries = {
        (a, b): p_inv.apply(algebra.bracket_vectors(cols[a], cols[b]))
        for a, b in combinations(range(n), 2)
    }
    return LieAlgebra.from_brackets(n, entries, name)
