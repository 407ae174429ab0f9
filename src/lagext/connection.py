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
every nabla_x is nilpotent.  The same flag on a single right multiplication
R_{e_j} reaches 0 exactly when R_{e_j} is nilpotent.  No verdict depends on
a seed.

Each verdict on a connection (the sweep report, the completeness evidence
and the dual representation) is computed once per ``FlatConnection`` and
carried with it; the module functions below are accessors.  Every verdict
is computed from the connection's table of nonzero coefficients
(``nonzero_gamma``) and the base's ``nonzero_brackets``, never from dense
matrix products: a residual column is densified only when it is nonzero.
Keeping verdicts and the table is sound because a connection is immutable:
its tensors are tuples of Fractions, and every constructor in this package
freezes them through ``_freeze_tensor``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations, product

from .lie import LieAlgebra, NonzeroTable, _freeze_tensor
from .linalg import RatMatrix, Vector, ONE, ZERO, _add, _dense, _eliminate, _pair_value, zero_vector

GammaTensor = tuple[tuple[Vector, ...], ...]


@dataclass(frozen=True)
class FlatConnection:
    """Connection tensor over a base Lie algebra, with any instantiated parameters.

    ``nonzero_gamma``, ``report``, ``completeness`` and ``dual`` are computed
    on first use and kept on the instance, so each is computed once per
    connection.  A verdict that raises is not kept: every access raises again.
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
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"bad connection index pair ({i}, {j})")
            g[i][j] = _pair_value(i, j, v, n)
        return FlatConnection(base, _freeze_tensor(g), params, label)

    @staticmethod
    def zero(base: LieAlgebra, label: str = "") -> "FlatConnection":
        return FlatConnection.from_entries(base, {}, label=label)

    @property
    def dim(self) -> int:
        return self.base.dim

    @cached_property
    def nonzero_gamma(self) -> NonzeroTable:
        """The nonzero coefficients: nabla_{e_i} e_s = sum of v e_k over (k, v) in [i][s]."""
        return tuple(
            tuple(tuple((k, v) for k, v in enumerate(col) if v) for col in plane)
            for plane in self.gamma
        )

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
        for i, plane in enumerate(self.nonzero_gamma):
            xi = x[i]
            if xi:
                for j, col in enumerate(plane):
                    for k, v in col:
                        rows[k][j] += xi * v
        return RatMatrix(tuple(tuple(r) for r in rows))

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


def _add_image(acc: dict, f: Fraction, terms, columns) -> None:
    """acc += f * sum of x * columns[k] over (k, x) in terms, each column a tuple of (t, v)."""
    for k, x in terms:
        fx = f * x
        for t, v in columns[k]:
            _add(acc, t, fx * v)


def _sweep(conn: FlatConnection) -> ConnectionReport:
    n = conn.dim
    cols = conn.nonzero_gamma
    right = tuple(zip(*cols))  # right[s][k] = cols[k][s], so nabla_x e_s sums x_k right[s][k]
    brackets = conn.base.nonzero_brackets
    # support[k]: the s with nabla_{e_k} e_s != 0; a column s outside the
    # supports of nabla_{e_i}, nabla_{e_j} and the nabla_{e_k} that the pair
    # feeds in below has every residual zero.
    support = [{s for s, col in enumerate(plane) if col} for plane in cols]
    torsion = []
    curvature = []
    associator = []
    for i, j in combinations(range(n), 2):
        skew = dict(cols[i][j])  # e_i.e_j - e_j.e_i
        for k, v in cols[j][i]:
            _add(skew, k, -v)
        residual = dict(skew)
        for k, c in brackets[i][j]:
            _add(residual, k, -c)
        if residual:
            torsion.append(((i + 1, j + 1), _dense(residual, n)))
        touched = support[i] | support[j]
        for k in chain(skew, (k for k, _ in brackets[i][j])):
            touched |= support[k]
        for s in sorted(touched):
            commutator = {}  # [nabla_i, nabla_j] e_s
            _add_image(commutator, ONE, cols[j][s], cols[i])
            _add_image(commutator, -ONE, cols[i][s], cols[j])
            residual = dict(commutator)
            _add_image(residual, -ONE, brackets[i][j], right[s])
            if residual:
                curvature.append(((i + 1, j + 1, s + 1), _dense(residual, n)))
            # KV2 on e_s: (e_i,e_j,e_s) - (e_j,e_i,e_s) = nabla_{e_i.e_j - e_j.e_i} e_s
            # - [nabla_i, nabla_j] e_s, from the products themselves and not from
            # the curvature residual, so that the two verdicts cross-check.
            residual = {k: -v for k, v in commutator.items()}
            _add_image(residual, ONE, skew.items(), right[s])
            if residual:
                associator.append(((i + 1, j + 1, s + 1), _dense(residual, n)))

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
    g = conn.gamma
    entries = {
        (i, j): [g[i][j][k] - g[j][i][k] for k in range(n)] for i, j in combinations(range(n), 2)
    }
    return LieAlgebra.from_brackets(n, entries, name)


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


def _uniform_nilindex(operators) -> int | None:
    """Smallest r with every r-fold product of the operators zero (None if none).

    Each operator is the tuple of its columns, column c listing the nonzero
    (k, v) of its image of e_c.  The descending flag V_0 = k^n, V_{r+1} =
    span{M v : M in operators, v in V_r} spans the images of all r-fold
    products, so it reaches 0 exactly at r; once a step does not shrink it, it
    never does.  For a single operator, reaching 0 is its nilpotency.  When
    the operators span a Lie algebra of operators, Engel's theorem makes
    reaching 0 equivalent to every operator in the span being nilpotent.  On
    other sets it is not: {E12, E21} are nilpotent, but E12 + E21 is not.
    """
    n = len(operators[0]) if operators else 0
    # Each step is a list of sparse rows; M v sums the columns of M that v meets.
    space = [{i: ONE} for i in range(n)]
    for r in range(n + 1):
        if not space:
            return r
        images = []
        for v, columns in product(space, operators):
            image = {}
            _add_image(image, ONE, v.items(), columns)
            images.append(image)
        nxt = list(_eliminate(images).values())
        if len(nxt) >= len(space):
            return None
        space = nxt
    return None


def _completeness(conn: FlatConnection) -> CompletenessEvidence:
    cols = conn.nonzero_gamma
    right = tuple(zip(*cols))  # right[j][i] = nabla_{e_i} e_j: the columns of R_{e_j}
    traces = tuple(
        sum((v for i, col in enumerate(r) for k, v in col if k == i), ZERO) for r in right
    )
    return CompletenessEvidence(
        complete=all(t == 0 for t in traces),
        traces=traces,
        nabla_nilindex=_uniform_nilindex(cols),
        right_mult_nilpotent=tuple(_uniform_nilindex([r]) is not None for r in right),
    )


@dataclass(frozen=True)
class DualRep:
    """Action of the base algebra on its dual: rho(x) xi = -xi o nabla_x."""

    connection: FlatConnection

    @property
    def dim(self) -> int:
        return self.connection.dim

    @cached_property
    def nonzero_entries(self) -> tuple[tuple[tuple[int, int, Fraction], ...], ...]:
        """The (row, column, value) of each nonzero entry of each rho(e_i), row-major.

        rho(e_i) = -transpose(nabla_{e_i}), so row j of rho(e_i) is -nabla_{e_i} e_j.
        """
        return tuple(
            tuple((j, k, -v) for j, col in enumerate(plane) for k, v in col)
            for plane in self.connection.nonzero_gamma
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
    rep = DualRep(conn)
    entries = rep.nonzero_entries
    # rows[i][t]: the (column, value) of the nonzero entries in row t of rho(e_i)
    rows = [[[] for _ in range(n)] for _ in range(n)]
    for i, plane in enumerate(entries):
        for r, c, value in plane:
            rows[i][r].append((c, value))
    brackets = conn.base.nonzero_brackets
    for i, j in combinations(range(n), 2):
        residual = {}  # rho([e_i, e_j]) - rho(e_i) rho(e_j) + rho(e_j) rho(e_i), by (row, column)
        for k, c in brackets[i][j]:
            for r, col, value in entries[k]:
                _add(residual, (r, col), c * value)
        for a, b, sign in ((i, j, -ONE), (j, i, ONE)):
            for r, t, x in entries[a]:
                for col, y in rows[b][t]:
                    _add(residual, (r, col), sign * x * y)
        if residual:
            raise RuntimeError("dual representation law failed despite flatness")
    return rep
