"""Flat torsion-free connections on a Lie algebra and their dual representation.

A connection is its table of nonzero coefficients: ``nonzero_gamma[i][j]``
lists the (k, v) of nabla_{e_i} e_j = sum of v e_k, k ascending and v != 0.
Torsion-freeness is the pre-Lie axiom x.y - y.x = [x, y]; flatness says
x -> nabla_x is a representation.  The left-symmetric associator identity
(x,y,z) = (y,x,z) is computed as an independent cross-validation of the
curvature check.

Completeness is decided by the trace criterion tr R_x = 0 (Helmstetter
1979).  Nilpotency of every nabla_x is certified by the descending Engel
flag of nabla_{e_1..e_n} (``lie.descending_flag``, which also gives the lower
central series): flatness makes their span a Lie algebra of operators, so by
Engel's theorem the flag reaches 0 exactly when every nabla_x is nilpotent.
The flag of a single right multiplication R_{e_j} reaches 0 exactly when
R_{e_j} is nilpotent.  Both flags run on the int gamma table of the sweep
and only their lengths are read.  No verdict depends on a seed.

Each verdict on a connection (the sweep report, the completeness evidence
and the dual representation, a ``cohomology.DualRep`` checked here against
the representation law) is computed once per ``FlatConnection`` and
carried with it; the module functions below are accessors.  Every verdict
is computed from the table and the base's bracket pairs, never from dense
matrix products.  The sweep makes each product nabla_{e_a} nabla_{e_b} e_s
once, into the commutator of its pair, and adds the images of the bracket
and the skew product to it: its cost follows the nonzero products and
entries, not the n^3 slots (i, j, s), and a residual is densified only
when it is nonzero.  Keeping verdicts is sound because a connection is
immutable, and the constructor rejects a table that is not canonical, so
equal tables mean equal connections.  The report and the completeness
evidence depend only on the base's pairs and the gamma table, and a
connection's verdicts are always its own: a caller holding a connection with
an equal table reads them from that one (``extension.induced_flat_connection``
does, on the ``source`` an extension was built from).

The sweep, the Engel flags and the representation law run on Python ints:
gamma and the bracket are scaled once per connection by one D, the lcm of
their denominators (``FlatConnection.integer_tables``, gamma's cells and
the base's pairs scaled as one flat sequence and regrouped), and rho =
-gamma^T is read off the scaled gamma, as its one int table
(``cohomology.DualRep.integer_tables``, which the law reads here and the
differentials there); no Fraction copy of rho is kept.  Torsion is
of degree 1 in the scaled tables, and curvature, the associator and every
term of the law of degree 2, so each scaled residual is D or D^2 times the
rational one: it is zero exactly when that one is, and a nonzero witness
is divided back to the same Fractions.  D is positive, so a flag step of the scaled nabla spans the
same subspace as the rational one, and an r-fold product of scaled
operators, D^r times the rational product, is zero exactly when that one
is: the flag stops at the same step, with the same dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations

from .cohomology import DualRep
from .lie import LieAlgebra, NonzeroTable, _check_canonical, _mirrored, descending_flag
from .linalg import Vector, _add, _dense, _integer_tables, _pair_value

GammaTensor = tuple[tuple[Vector, ...], ...]


@dataclass(frozen=True)
class FlatConnection:
    """A connection over a base Lie algebra, stored as its nonzero gamma table.

    ``gamma``, ``integer_tables``, ``report``, ``completeness`` and ``dual``
    are computed on first use and kept on the instance.  A verdict that
    raises is not kept: every access raises again.
    """

    base: LieAlgebra
    nonzero_gamma: NonzeroTable
    label: str = ""

    def __post_init__(self):
        n = self.base.dim
        table = self.nonzero_gamma
        if len(table) != n or any(len(plane) != n for plane in table):
            raise ValueError("gamma table shape does not match base dimension")
        cells = (((i, j), t) for i, plane in enumerate(table) for j, t in enumerate(plane))
        _check_canonical(cells, n, "gamma cell")

    @staticmethod
    def from_entries(
        base: LieAlgebra,
        entries: dict[tuple[int, int], Vector],
        label: str = "",
    ) -> "FlatConnection":
        """Build from 0-based {(i, j): nabla_{e_i} e_j}; unlisted pairs are zero."""
        n = base.dim
        table = [[()] * n for _ in range(n)]
        for (i, j), v in entries.items():
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"bad connection index pair ({i}, {j})")
            table[i][j] = tuple((k, x) for k, x in enumerate(_pair_value(i, j, v, n)) if x)
        return FlatConnection(base, tuple(map(tuple, table)), label)

    @staticmethod
    def zero(base: LieAlgebra, label: str = "") -> "FlatConnection":
        return FlatConnection.from_entries(base, {}, label=label)

    @property
    def dim(self) -> int:
        return self.base.dim

    @cached_property
    def gamma(self) -> GammaTensor:
        """The dense tensor gamma[i][j][k], a read-only view decoded from the table once."""
        n = self.dim
        return tuple(tuple(_dense(dict(t), n) for t in plane) for plane in self.nonzero_gamma)

    @cached_property
    def integer_tables(self) -> tuple[int, NonzeroTable, NonzeroTable]:
        """(D, ``nonzero_gamma``, the base's n x n bracket table), both scaled
        by D, the lcm of the denominators of gamma and the base's ``pairs``, to
        ints.  Gamma's planes and then the pairs are scaled as one flat
        sequence of cells; gamma's n^2 cells are regrouped into planes, and
        the pairs mirrored on ints (``lie._mirrored``), as negation keeps
        denominators."""
        n = self.dim
        d, cells = _integer_tables([*chain.from_iterable(self.nonzero_gamma), *self.base.pairs])
        cols = tuple([cells[i * n:i * n + n] for i in range(n)])
        return d, cols, _mirrored(n, cells[n * n:])

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


def _skew(cols: NonzeroTable, i: int, j: int) -> dict:
    """e_i.e_j - e_j.e_i as a sparse row."""
    skew = dict(cols[i][j])
    for k, v in cols[j][i]:
        _add(skew, k, -v)
    return skew


def _witnesses(residuals: dict, scale: int, n: int) -> tuple:
    """The nonzero residuals {key: {t: v}} of the scaled tables in key order,
    each key 1-based and each residual divided back by scale as n Fractions."""
    return tuple(
        (tuple(x + 1 for x in key), _dense({t: Fraction(v, scale) for t, v in r.items()}, n))
        for key, r in sorted(residuals.items()) if r
    )


def _sweep(conn: FlatConnection) -> ConnectionReport:
    n = conn.dim
    # gamma and the bracket scaled by one D to ints: torsion is of degree 1
    # in them, curvature and the associator of degree 2.
    d, cols, brackets = conn.integer_tables
    # Both residuals start as -[nabla_i, nabla_j] e_s by (i, j, s), i < j: each nonzero
    # entry (b, s -> k, x) meets the columns nabla_{e_a} e_k != 0 in feeds[k], once.
    feeds = [[(a, plane[k]) for a, plane in enumerate(cols) if plane[k]] for k in range(n)]
    associator = {}
    for b, plane in enumerate(cols):
        for s, col in enumerate(plane):
            for k, x in col:
                for a, image in feeds[k]:
                    if a != b:
                        key, y = ((a, b, s), -x) if a < b else ((b, a, s), x)
                        acc = associator.setdefault(key, {})
                        for t, v in image:
                            _add(acc, t, y * v)
    curvature = {key: dict(image) for key, image in associator.items()}
    columns = [[(s, col) for s, col in enumerate(plane) if col] for plane in cols]
    torsion = {}
    for i, j in combinations(range(n), 2):
        skew = _skew(cols, i, j)
        torsion[i, j] = residual = dict(skew)
        for k, c in brackets[i][j]:
            _add(residual, k, -c)
        # -R(e_i, e_j) e_s = nabla_{[e_i, e_j]} e_s - [nabla_i, nabla_j] e_s, and
        # KV2 on e_s: (e_i,e_j,e_s) - (e_j,e_i,e_s) = nabla_{e_i.e_j - e_j.e_i} e_s
        # - [nabla_i, nabla_j] e_s, from the products themselves and not from
        # the curvature residual, so that the two verdicts cross-check.
        for terms, acc in ((brackets[i][j], curvature), (skew.items(), associator)):
            for k, c in terms:
                for s, col in columns[k]:
                    image = acc.setdefault((i, j, s), {})
                    for t, v in col:
                        _add(image, t, c * v)

    scales = ((torsion, d), (curvature, -d * d), (associator, d * d))  # curvature built negated
    report = ConnectionReport(*(_witnesses(r, scale, n) for r, scale in scales))
    if not report.kv_consistent:
        raise RuntimeError(
            "curvature/torsion checks disagree with the KV axiom checks; "
            "this indicates an internal bug"
        )
    return report


def induced_bracket(conn: FlatConnection, name: str = "") -> LieAlgebra:
    """The algebra with bracket x.y - y.x (equals the base bracket iff torsion-free)."""
    cols = conn.nonzero_gamma
    pairs = (tuple(sorted(_skew(cols, i, j).items())) for i, j in combinations(range(conn.dim), 2))
    return LieAlgebra(conn.dim, tuple(pairs), name)


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
    """Completeness via tr(R_x) = 0 on the basis (sufficient by linearity).

    Raises ValueError when the connection is not flat torsion-free, since the
    criterion is only meaningful for flat Lie algebras.  Computed once per
    connection and kept as ``conn.completeness``.
    """
    return conn.completeness


def _uniform_nilindex(operators) -> int | None:
    """Smallest r with every r-fold product of the operators zero (None if none).

    Each operator is the tuple of its columns, column c listing the nonzero
    (k, v) of its image of e_c, v an int: a rational operator scaled by a
    positive D, whose r-fold products are D^r times the rational ones, so
    the index is the same.  The r-th term of their ``descending_flag``
    spans the images of all r-fold products, so the index is the flag's
    length when it reaches 0; only the length is read.  For a single
    operator, reaching 0 is its nilpotency.  When the operators span a Lie
    algebra of operators, Engel's theorem makes reaching 0 equivalent to
    every operator in the span being nilpotent.  On other sets it is not:
    {E12, E21} are nilpotent, but E12 + E21 is not.
    """
    flag = descending_flag(operators, len(operators[0]) if operators else 0)
    return None if flag[-1] else len(flag) - 1


def _completeness(conn: FlatConnection) -> CompletenessEvidence:
    d, cols, _ = conn.integer_tables
    right = tuple(zip(*cols))  # right[j][i] = nabla_{e_i} e_j: the columns of R_{e_j}
    traces = tuple(
        Fraction(sum(v for i, col in enumerate(r) for k, v in col if k == i), d) for r in right
    )
    return CompletenessEvidence(
        complete=all(t == 0 for t in traces),
        traces=traces,
        nabla_nilindex=_uniform_nilindex(cols),
        right_mult_nilpotent=tuple(_uniform_nilindex([r]) is not None for r in right),
    )


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
    # Every term of the residual is of degree 2 in the scaled rho and bracket.
    _, entries, brackets = rep.integer_tables
    # rows[i][t]: the (column, value) of the nonzero entries in row t of rho(e_i)
    rows = [[[(k, -v) for k, v in col] for col in plane] for plane in conn.integer_tables[1]]
    for i, j in combinations(range(n), 2):
        residual = {}  # rho([e_i, e_j]) - rho(e_i) rho(e_j) + rho(e_j) rho(e_i), by (row, column)
        for k, c in brackets[i][j]:
            for r, col, value in entries[k]:
                _add(residual, (r, col), c * value)
        for a, b, sign in ((i, j, -1), (j, i, 1)):
            for r, t, x in entries[a]:
                for col, y in rows[b][t]:
                    _add(residual, (r, col), sign * x * y)
        if residual:
            raise RuntimeError("dual representation law failed despite flatness")
    return rep
