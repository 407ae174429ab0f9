"""Lie algebras given by structure constants over Q.

The bracket tensor c[i][j][k] encodes [e_i, e_j] = sum_k c[i][j][k] e_k with
0-based indices.  Antisymmetry is enforced at construction; the Jacobi
identity is checked either explicitly via ``check_jacobi`` or by the
constructors of derived algebras (quotients, extensions).

Each algebra keeps the table of its nonzero structure constants
(``nonzero_brackets``) and its lower central series, both computed on first
use.  Every routine here reads brackets from that table, never from the
dense n^3 tensor; the center, the derivations, ideals and the lower central
series eliminate sparse rows built from it.  Keeping them is sound because
an algebra is immutable: its bracket tensor is tuples of Fractions, and
every constructor in this package freezes it through ``_freeze_tensor``.
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
    zero_vector,
)

BracketTensor = tuple[tuple[Vector, ...], ...]
# NonzeroTable[i][j] lists the (k, c) with c = c[i][j][k] != 0, k ascending.
NonzeroTable = tuple[tuple[tuple[tuple[int, Fraction], ...], ...], ...]


def _freeze_tensor(c) -> BracketTensor:
    return tuple(
        tuple(tuple(x if type(x) is Fraction else Fraction(x) for x in row) for row in plane)
        for plane in c
    )


@dataclass(frozen=True)
class LieAlgebra:
    """Structure-constant Lie algebra with a fixed ordered basis."""

    dim: int
    bracket: BracketTensor
    name: str = ""

    def __post_init__(self):
        n = self.dim
        c = self.bracket
        if len(c) != n or any(len(plane) != n for plane in c) or any(
            len(row) != n for plane in c for row in plane
        ):
            raise ValueError("bracket tensor shape does not match dim")
        for i in range(n):
            for j in range(i, n):
                for k, (a, b) in enumerate(zip(c[i][j], c[j][i])):
                    if (a or b) and a != -b:
                        raise ValueError(f"bracket not antisymmetric at ({i+1},{j+1},{k+1})")

    @staticmethod
    def from_brackets(dim: int, entries: dict[tuple[int, int], Vector], name: str = "") -> "LieAlgebra":
        """Build from 0-based {(i, j): [e_i, e_j]} with i < j; the rest by antisymmetry."""
        c = [[list(zero_vector(dim)) for _ in range(dim)] for _ in range(dim)]
        for (i, j), v in entries.items():
            if not 0 <= i < j < dim:
                raise ValueError(f"bad bracket index pair ({i}, {j})")
            c[i][j] = _pair_value(i, j, v, dim)
            c[j][i] = [-x for x in c[i][j]]
        return LieAlgebra(dim, _freeze_tensor(c), name)

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
        return tuple(
            tuple(tuple((k, x) for k, x in enumerate(row) if x) for row in plane)
            for plane in self.bracket
        )

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
        renamed = LieAlgebra(self.dim, self.bracket, name)
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
    m = len(keep)
    table = algebra.nonzero_brackets
    c = [[list(zero_vector(m)) for _ in range(m)] for _ in range(m)]
    for a in range(m):
        for b in range(m):
            terms = table[keep[a]][keep[b]]
            if terms:
                # Reduction against the ideal's echelon basis leaves support on
                # non-pivot coordinates only.
                w = ideal.reduce(_dense(dict(terms), algebra.dim))
                for t in range(m):
                    c[a][b][t] = w[keep[t]]
    quotient = LieAlgebra(m, _freeze_tensor(c), name)
    return require_jacobi(quotient)


def transform(algebra: LieAlgebra, p: RatMatrix, name: str = "") -> LieAlgebra:
    """Structure constants in the new basis f_j = sum_i P[i][j] e_i (P invertible)."""
    n = algebra.dim
    if p.rows != n or p.cols != n:
        raise ValueError("change of basis must be square of matching size")
    p_inv = p.inverse()
    cols = [p.col(j) for j in range(n)]
    c = [
        [list(p_inv.apply(algebra.bracket_vectors(cols[a], cols[b]))) for b in range(n)]
        for a in range(n)
    ]
    return LieAlgebra(n, _freeze_tensor(c), name)
