"""Flat torsion-free connections on a Lie algebra and their dual representation.

A connection is the coefficient tensor gamma[i][j][k] of nabla_{e_i} e_j =
sum_k gamma[i][j][k] e_k.  Torsion-freeness is the pre-Lie axiom
x.y - y.x = [x, y]; flatness says x -> nabla_x is a representation.  The
left-symmetric associator identity (x,y,z) = (y,x,z) is computed as an
independent cross-validation of the curvature check.

Completeness is decided by the trace criterion tr R_x = 0 (Helmstetter
1979).  Nilpotency of every nabla_x is certified by one descending Engel
flag on the matrices nabla_{e_1..e_n}: flatness makes their span a Lie
algebra of operators, so by Engel's theorem the flag reaches 0 exactly when
every nabla_x is nilpotent.  No verdict depends on a seed.

Each verdict on a connection (the sweep report, the completeness evidence
and the dual representation) is computed once per ``FlatConnection`` and
carried with it; the module functions below are accessors.  This is sound
because a connection is immutable: its tensors are tuples of Fractions, and
every constructor in this package freezes them through ``_freeze_tensor``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations, product

from .lie import LieAlgebra, _freeze_tensor
from .linalg import (
    RatMatrix,
    Vector,
    ZERO,
    _eliminate,
    _sparse,
    _subtract,
    is_zero_vector,
    zero_vector,
)

GammaTensor = tuple[tuple[Vector, ...], ...]


@dataclass(frozen=True)
class FlatConnection:
    """Connection tensor over a base Lie algebra, with any instantiated parameters.

    ``report``, ``completeness`` and ``dual`` are computed on first use and
    kept on the instance, so each is computed once per connection.  A
    verdict that raises is not kept: every access raises again.
    """

    base: LieAlgebra
    gamma: GammaTensor
    params: tuple[tuple[str, Fraction], ...] = ()
    label: str = ""

    def __post_init__(self):
        n = self.base.dim
        g = self.gamma
        if len(g) != n or any(len(p) != n for p in g) or any(
            len(row) != n for p in g for row in p
        ):
            raise ValueError("gamma tensor shape does not match base dimension")

    @staticmethod
    def from_entries(
        base: LieAlgebra,
        entries: dict[tuple[int, int], Vector],
        params: tuple[tuple[str, Fraction], ...] = (),
        label: str = "",
    ) -> "FlatConnection":
        """Build from 0-based {(i, j): nabla_{e_i} e_j}; unlisted pairs are zero."""
        n = base.dim
        g = [[list(zero_vector(n)) for _ in range(n)] for _ in range(n)]
        for (i, j), v in entries.items():
            for k in range(n):
                g[i][j][k] = Fraction(v[k])
        return FlatConnection(base, _freeze_tensor(g), params, label)

    @staticmethod
    def zero(base: LieAlgebra, label: str = "") -> "FlatConnection":
        return FlatConnection.from_entries(base, {}, label=label)

    @property
    def dim(self) -> int:
        return self.base.dim

    def nabla_matrix(self, i: int) -> RatMatrix:
        """Matrix of nabla_{e_i} (column j = image of e_j)."""
        n = self.dim
        return RatMatrix(
            tuple(tuple(self.gamma[i][j][k] for j in range(n)) for k in range(n))
        )

    def nabla_of(self, x: Vector) -> RatMatrix:
        """Matrix of nabla_x for x = sum x_i e_i (the assignment is linear in x)."""
        n = self.dim
        rows = [[ZERO] * n for _ in range(n)]
        for i in range(n):
            xi = x[i]
            if not xi:
                continue
            plane = self.gamma[i]
            for j in range(n):
                row = plane[j]
                for k in range(n):
                    if row[k]:
                        rows[k][j] += xi * row[k]
        return RatMatrix(tuple(tuple(r) for r in rows))

    def right_mult_matrix(self, j: int) -> RatMatrix:
        """Matrix of y -> y . e_j (column i = nabla_{e_i} e_j)."""
        n = self.dim
        return RatMatrix(
            tuple(tuple(self.gamma[i][j][k] for i in range(n)) for k in range(n))
        )

    def product(self, x: Vector, y: Vector) -> Vector:
        return self.nabla_of(x).apply(y)

    @cached_property
    def report(self) -> "ConnectionReport":
        """The torsion, curvature and associator sweep."""
        return _sweep(self)

    @cached_property
    def completeness(self) -> "CompletenessEvidence":
        """Trace criterion and the Engel flag of nabla; requires flat torsion-free."""
        if not self.report.ok:
            raise ValueError("connection is not flat and torsion-free")
        return _completeness(self)

    @cached_property
    def dual(self) -> "DualRep":
        """The dual representation rho(e_i) = -transpose(nabla_{e_i}); requires flatness."""
        if not self.report.flat:
            raise ValueError("connection is not flat; the dual action is not a representation")
        return _dual(self)


@dataclass(frozen=True)
class ConnectionReport:
    """Residual witnesses from the torsion / curvature / associator sweeps."""

    torsion: tuple[tuple[tuple[int, int], Vector], ...]
    curvature: tuple[tuple[tuple[int, int, int], Vector], ...]
    associator: tuple[tuple[tuple[int, int, int], Vector], ...]

    @property
    def torsion_free(self) -> bool:
        return not self.torsion

    @property
    def flat(self) -> bool:
        return not self.curvature

    @property
    def ok(self) -> bool:
        return not (self.torsion or self.curvature)

    @property
    def kv_consistent(self) -> bool:
        """Torsion-free and flat together must agree with KV1 + KV2."""
        kv_holds = not self.torsion and not self.associator
        return self.ok == kv_holds


def check_flat_torsion_free(conn: FlatConnection) -> ConnectionReport:
    """Exact sweep of T = 0, R = 0 and the left-symmetric associator identity.

    Computed once per connection and kept as ``conn.report``.  Raises
    RuntimeError when the curvature and associator verdicts disagree.
    """
    return conn.report


def _residual_columns(i: int, j: int, m: RatMatrix) -> list:
    """((i+1, j+1, s+1), column s) for every nonzero column s of m."""
    columns = (((i + 1, j + 1, s + 1), m.col(s)) for s in range(m.cols))
    return [(key, col) for key, col in columns if not is_zero_vector(col)]


def _sweep(conn: FlatConnection) -> ConnectionReport:
    n = conn.dim
    c = conn.base.bracket
    torsion = []
    for i, j in combinations(range(n), 2):
        residual = tuple(
            conn.gamma[i][j][k] - conn.gamma[j][i][k] - c[i][j][k] for k in range(n)
        )
        if not is_zero_vector(residual):
            torsion.append(((i + 1, j + 1), residual))

    nabla = [conn.nabla_matrix(i) for i in range(n)]
    curvature = []
    associator = []
    for i, j in combinations(range(n), 2):
        commutator = nabla[i] @ nabla[j] - nabla[j] @ nabla[i]
        curvature += _residual_columns(i, j, commutator - conn.nabla_of(c[i][j]))
        # KV2 in matrix form: the operator z -> (x,y,z) - (y,x,z) for x = e_i,
        # y = e_j equals N(e_i.e_j) - N(e_j.e_i) - [N_i, N_j].
        m = conn.nabla_of(conn.gamma[i][j]) - conn.nabla_of(conn.gamma[j][i])
        associator += _residual_columns(i, j, m - commutator)

    report = ConnectionReport(tuple(torsion), tuple(curvature), tuple(associator))
    if not report.kv_consistent:
        raise RuntimeError(
            "curvature/torsion checks disagree with the KV axiom checks; "
            "this indicates an internal bug"
        )
    return report


def induced_bracket(conn: FlatConnection, name: str = "") -> LieAlgebra:
    """The algebra with bracket x.y - y.x (equals the base bracket iff torsion-free)."""
    n = conn.dim
    c = [
        [
            [conn.gamma[i][j][k] - conn.gamma[j][i][k] for k in range(n)]
            for j in range(n)
        ]
        for i in range(n)
    ]
    return LieAlgebra(n, _freeze_tensor(c), name)


@dataclass(frozen=True)
class CompletenessEvidence:
    """Trace criterion verdict plus the exact nilpotency certificate of nabla."""

    complete: bool
    traces: tuple[Fraction, ...]            # tr of right multiplication by e_j
    nabla_nilindex: int | None              # Engel flag index; None: some nabla_x not nilpotent
    right_mult_nilpotent: tuple[bool, ...]  # per basis direction

    @property
    def all_nilpotent(self) -> bool:
        return self.nabla_nilindex is not None and all(self.right_mult_nilpotent)


def is_geodesically_complete(conn: FlatConnection) -> CompletenessEvidence:
    """Completeness via tr(rho_x) = 0 on the basis (sufficient by linearity).

    Raises ValueError when the connection is not flat torsion-free, since the
    criterion is only meaningful for flat Lie algebras.  Computed once per
    connection and kept as ``conn.completeness``.
    """
    return conn.completeness


def _uniform_nilindex(matrices: list[RatMatrix]) -> int | None:
    """Smallest r with every r-fold product of the matrices zero (None if none).

    The descending flag V_0 = k^n, V_{r+1} = span{M v : M in matrices, v in V_r}
    spans the images of all r-fold products, so it reaches 0 exactly at r; once
    a step does not shrink it, it never does.  When the matrices span a Lie
    algebra of operators, Engel's theorem makes reaching 0 equivalent to every
    matrix in the span being nilpotent.  On other sets it is not: {E12, E21}
    are nilpotent, but E12 + E21 is not.
    """
    n = matrices[0].rows if matrices else 0
    # Each step is a list of sparse rows; M v sums the sparse columns of M that v meets.
    columns = [[_sparse(m.col(c)) for c in range(n)] for m in matrices]
    space = [{i: Fraction(1)} for i in range(n)]
    for r in range(n + 1):
        if not space:
            return r
        images = []
        for v, cols in product(space, columns):
            image = {}
            for c, y in v.items():
                _subtract(image, -y, cols[c])
            images.append(image)
        nxt = list(_eliminate(images).values())
        if len(nxt) >= len(space):
            return None
        space = nxt
    return None


def _completeness(conn: FlatConnection) -> CompletenessEvidence:
    n = conn.dim
    right = [conn.right_mult_matrix(j) for j in range(n)]
    traces = tuple(m.trace() for m in right)
    return CompletenessEvidence(
        complete=all(t == 0 for t in traces),
        traces=traces,
        nabla_nilindex=_uniform_nilindex([conn.nabla_matrix(i) for i in range(n)]),
        right_mult_nilpotent=tuple(m.is_nilpotent() for m in right),
    )


@dataclass(frozen=True)
class DualRep:
    """Action of the base algebra on its dual: rho(x) xi = -xi o nabla_x."""

    connection: FlatConnection
    matrices: tuple[RatMatrix, ...] = field(compare=False)

    @property
    def dim(self) -> int:
        return self.connection.dim

    @cached_property
    def nonzero_entries(self) -> tuple[tuple[tuple[int, int, Fraction], ...], ...]:
        """The (row, column, value) of each nonzero entry of each rho(e_i)."""
        return tuple(
            tuple(
                (r, c, value)
                for r, row in enumerate(m.entries)
                for c, value in enumerate(row)
                if value
            )
            for m in self.matrices
        )

    def rho_of(self, x: Vector) -> RatMatrix:
        """rho(x) = sum_i x_i rho(e_i), assembled from the nonzero entries."""
        n = self.dim
        rows = [[ZERO] * n for _ in range(n)]
        for i, entries in enumerate(self.nonzero_entries):
            xi = x[i]
            if xi:
                for r, c, value in entries:
                    rows[r][c] += xi * value
        return RatMatrix(tuple(tuple(r) for r in rows))


def dual_representation(conn: FlatConnection) -> DualRep:
    """rho(e_i) = -transpose(nabla_{e_i}); requires flatness.

    The representation law rho([x,y]) = [rho(x), rho(y)] is re-verified on
    all basis pairs; failure would mean the flatness check and the dual
    construction disagree, which is an internal error.  Computed once per
    connection and kept as ``conn.dual``.
    """
    return conn.dual


def _dual(conn: FlatConnection) -> DualRep:
    n = conn.dim
    mats = tuple(-conn.nabla_matrix(i).transpose() for i in range(n))
    rep = DualRep(conn, mats)
    c = conn.base.bracket
    for i, j in combinations(range(n), 2):
        lhs = rep.rho_of(c[i][j])
        rhs = mats[i] @ mats[j] - mats[j] @ mats[i]
        if not (lhs - rhs).is_zero():
            raise RuntimeError("dual representation law failed despite flatness")
    return rep
