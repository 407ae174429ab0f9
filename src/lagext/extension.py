"""Symplectic Lie algebras built as Lagrangian extensions, and their reductions.

An extension triple (connection on h, 2-cocycle alpha) yields the algebra
h + h* with brackets

    [x, y]  = [x, y]_h + alpha(x, y)
    [x, xi] = rho(x) xi          (rho the dual representation)
    [xi, eta] = 0

in the ordered basis (e_1..e_n, e^1..e^n), and the pairing form
omega(e_i, e^j) = -delta_ij, i.e. the block matrix [[0, -I], [I, 0]].
The dual copy h* is always an abelian ideal; it is Lagrangian and normal,
and quotienting by it recovers the connection exactly.

A form is stored as its coordinates over the pairs i < j and read through
its one int table; subspaces (J, its orthogonal) are read through their int
echelon rows, and the orthogonal's Fraction rows only where they become the
basis of a reduction; a linear map (psi, the lifts of a reduction) is read
as its columns in sparse rows: no dense vector is read here.  The built
extension's bracket is read straight off the pair table of the base and
the connection's gamma table, rho(e_i)[t][m] = -gamma_i(e_t)_m.

The omega identities run on ints.  Each form keeps one table: its rows
scaled by the lcm D' of its denominators (``integer_omega``, the pair
coordinates scaled by ``linalg._integer_tables`` as one cell and mirrored
on ints, as the bracket's int table is from its pairs) and, built once from
that table and the bracket's ``integer_brackets``, the table
W[a][u] = D omega([e_a, e_u], .) of sparse int rows
(``integer_omega_brackets``).  dw is the cyclic sums of W; both omega solves
(the canonical and the induced connection) read their right-hand sides off
W and invert their pairing by one int elimination; ``omega_row``, the
pullback and the orthogonal read the scaled rows on vectors scaled to ints;
and psi's bracket check reads the two extensions' ``integer_brackets``.
Each value that leaves these kernels is made as one Fraction, divided back
by its scale.  The dense ``omega`` is a view decoded from the pair
coordinates, for callers that print or compare a matrix.

A quotient is checked for the Jacobi identity only where nothing else
certifies it: ``classify_and_reduce`` runs ``require_jacobi`` on its
reduction, while ``induced_flat_connection`` relies on the flat torsion-free
sweep of the induced connection over the quotient, which makes the
quotient's bracket the commutator of a left-symmetric product.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations

from .cohomology import (
    OneCochain,
    ThreeCochain,
    TwoCochain,
    coboundary_1,
    coboundary_2,
)
from .connection import (
    FlatConnection,
    check_flat_torsion_free,
    dual_representation,
    is_geodesically_complete,
)
from .lie import (
    LieAlgebra,
    NonzeroTable,
    _lcs_dims,
    _quotient,
    is_nilpotent,
    nilpotency_class,
    require_jacobi,
)
from .linalg import (
    ONE,
    RatMatrix,
    Subspace,
    ZERO,
    _add,
    _dense,
    _echelon,
    _integer_row,
    _integer_tables,
    _inverse_rows,
    _kernel,
    _subspace,
    format_rational,
)


class CocycleError(ValueError):
    """The supplied 2-cochain is not a cocycle; carries the residual witnesses."""

    def __init__(self, residual: ThreeCochain):
        self.witnesses = residual.witnesses()
        self._first_witness = residual.first_witness()
        super().__init__(f"2-cochain is not a cocycle: {self._first_witness}")


class IntegrityError(RuntimeError):
    """Two independent verification paths disagreed (bug or counterexample)."""


@dataclass(frozen=True)
class SymplecticLieAlgebra:
    """A Lie algebra with a candidate symplectic form, stored as ``form``.

    ``form`` lists omega(e_i, e_j) for the pairs i < j of
    ``combinations(range(dim), 2)``, the order of ``LieAlgebra.pairs``.
    Construction does not assert closedness; use ``d_omega`` /
    ``validate`` to check dw = 0 and non-degeneracy.  The form's rows scaled
    to ints (``integer_omega``), its dense matrix (``omega``, a view decoded
    from ``form``), the table W of omega on brackets
    (``integer_omega_brackets``), dw of the form (``d_omega_result``) and the
    classification of ``lagrangian_ideal`` (``ideal_verdict``) are computed on
    first use and kept, as the algebra and the form are immutable.

    ``name`` labels what is derived from it (``label``); ``source`` is the
    connection a built extension came from, which ``induced_flat_connection``
    reads.  A named copy, ``replace(s, name=...)``, holds the same algebra
    object and source, so the algebra's int tables are computed once.
    """

    algebra: LieAlgebra
    form: tuple[Fraction, ...]
    lagrangian_ideal: Subspace | None = None
    name: str = ""
    source: FlatConnection | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        n = self.algebra.dim
        if len(self.form) != n * (n - 1) // 2:
            raise ValueError("omega shape does not match algebra dimension")

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @property
    def label(self) -> str:
        """``name``, or the algebra's name when it has none."""
        return self.name or self.algebra.name

    @cached_property
    def omega(self) -> RatMatrix:
        """The dense matrix of the form, a read-only view decoded from ``form`` once."""
        n = self.dim
        rows = [[ZERO] * n for _ in range(n)]
        for (i, j), x in zip(combinations(range(n), 2), self.form):
            if x:
                rows[i][j], rows[j][i] = x, -x
        return RatMatrix(tuple(map(tuple, rows)))

    @cached_property
    def integer_omega(self) -> tuple[int, tuple[dict[int, int], ...]]:
        """D', the lcm of the denominators of the form, and its rows scaled by
        D' to ints, row p as {q: D' omega(e_p, e_q)} over the nonzero entries,
        q ascending: the one scaled copy every omega identity reads.  The
        nonzero pair coordinates are scaled as one cell and mirrored on ints;
        negation keeps denominators."""
        pairs = zip(combinations(range(self.dim), 2), self.form)
        d, (terms,) = _integer_tables([[(ij, x) for ij, x in pairs if x]])
        rows = [{} for _ in range(self.dim)]
        for (i, j), x in terms:
            rows[i][j] = x
            rows[j][i] = -x
        return d, tuple(rows)

    @cached_property
    def integer_omega_brackets(self) -> tuple[int, tuple[tuple[dict[int, int], ...], ...]]:
        """D and W, W[a][u] = D omega([e_a, e_u], .) as sparse int rows, with D
        the bracket's D times the form's D'; built once per form from
        ``algebra.integer_brackets`` and ``integer_omega``."""
        return _omega_table(self)

    def omega_row(self, v: dict[int, Fraction]) -> dict[int, Fraction]:
        """omega(v, .) as a sparse row {q: omega(v, e_q)}, for a sparse row v."""
        d, (row,) = _integer_tables([v.items()])
        out = _int_omega_row(self, row)
        d *= self.integer_omega[0]
        return {q: Fraction(x, d) for q, x in out.items()}

    def pullback(self, columns) -> tuple[Fraction, ...]:
        """The pair coordinates of omega(c_a, c_b), a < b, for sparse rows c_a.

        The columns are scaled by the lcm D'' of their denominators to ints;
        omega(c_a, .) is read once per column on the scaled rows of omega, and
        each coordinate is one Fraction, divided back by D' D''^2.
        """
        d, cols = _integer_tables([c.items() for c in columns])
        d = d * d * self.integer_omega[0]
        out = []
        for a, b in combinations(range(len(cols)), 2):
            if b == a + 1:
                row = _int_omega_row(self, cols[a])
            x = sum([row[q] * y for q, y in cols[b] if q in row])
            out.append(Fraction(x, d) if x else ZERO)
        return tuple(out)

    @cached_property
    def d_omega_result(self) -> "DOmegaResult":
        """dw of the form on every basis triple, computed once per instance.

        dw(e_i, e_j, e_k) = w(e_i, [e_j, e_k]) + w(e_j, [e_k, e_i]) + w(e_k, [e_i, e_j])
        = -(W[j][k][i] + W[k][i][j] + W[i][j][k]) / D, three reads of the
        kept ``integer_omega_brackets`` per triple.
        """
        d, w = self.integer_omega_brackets
        residuals = []
        for i, j, k in combinations(range(self.dim), 3):
            x = w[j][k].get(i, 0) + w[k][i].get(j, 0) + w[i][j].get(k, 0)
            residuals.append(((i + 1, j + 1, k + 1), Fraction(-x, d) if x else ZERO))
        return DOmegaResult(tuple(residuals))

    @cached_property
    def ideal_verdict(self) -> "IdealVerdict":
        """The classification of ``lagrangian_ideal``, computed once per instance."""
        j = self.lagrangian_ideal
        return _classify_ideal(self, j, symplectic_orthogonal(self, j))

    def is_nondegenerate(self) -> bool:
        """omega has full rank, decided by one elimination of its int rows."""
        ints = {}
        _echelon(self.integer_omega[1], ints)
        return len(ints) == self.dim

    def validate(self) -> None:
        """Raise ValueError unless omega is invertible and closed."""
        if not self.is_nondegenerate():
            raise ValueError("omega is degenerate")
        witness = self.d_omega_result.first_witness()
        if witness:
            raise ValueError(f"omega is not closed: {witness}")


@lru_cache(maxsize=64)
def standard_form(n: int) -> tuple[Fraction, ...]:
    """[[0, -I], [I, 0]] on (e_1..e_n, e^1..e^n), as its pair coordinates.

    Made once per n and shared by every caller (each built extension): the
    tuple is immutable."""
    return tuple(-ONE if j == n + i else ZERO for i, j in combinations(range(2 * n), 2))


@lru_cache(maxsize=64)
def dual_subspace(n: int) -> Subspace:
    """span(e^1..e^n) inside the 2n-dimensional extension.

    Made and validated once per n and shared by every caller (each built
    extension): a ``Subspace`` is immutable, and its int rows are only read."""
    return Subspace(2 * n, tuple({n + i: 1} for i in range(n)))


@dataclass(frozen=True)
class ExtensionTriple:
    """Connection on the base plus a 2-cocycle for its dual representation.

    The built extension (``extension``) is computed on first use and kept on
    the instance, so it is built once per triple, as each verdict on the
    connection is computed once per connection.  This is sound because a
    triple is immutable: its connection and its cocycle are stored as tuples
    of Fractions.  A build that raises is not kept: every access raises again.
    """

    connection: FlatConnection
    cocycle: TwoCochain

    def __post_init__(self):
        if self.cocycle.dim != self.connection.dim:
            raise ValueError("cocycle dimension does not match connection")

    @staticmethod
    def with_zero_cocycle(connection: FlatConnection) -> "ExtensionTriple":
        return ExtensionTriple(connection, TwoCochain.zero(connection.dim))

    @cached_property
    def extension(self) -> "SymplecticLieAlgebra":
        """The built extension, named ext(<connection label>)."""
        return _build(self)


def build_extension(triple: ExtensionTriple, name: str = "") -> SymplecticLieAlgebra:
    """The 2n-dimensional algebra of the triple, with the standard pairing form.

    Raises CocycleError when the cochain fails the cocycle condition (the
    Jacobi identity of the result is equivalent to it), and ValueError when
    the connection is not flat torsion-free.  The extension is the triple's
    kept one, labelled ext(<connection label>) by its algebra; with a
    ``name``, a copy of it under that name, sharing its algebra and source.
    """
    extension = triple.extension
    return replace(extension, name=name) if name else extension


def _build(triple: ExtensionTriple) -> SymplecticLieAlgebra:
    conn = triple.connection
    report = check_flat_torsion_free(conn)
    if not report.ok:
        raise ValueError("extension requires a flat torsion-free connection")
    residual = coboundary_2(dual_representation(conn), triple.cocycle)
    if not residual.is_zero():
        raise CocycleError(residual)

    n = conn.dim
    alpha = triple.cocycle.values
    # rho_terms[i][m]: [e_i, e^m] = rho(e_i) e^m = sum of rho(e_i)[t][m] e^t,
    # with rho(e_i)[t][m] = -gamma_i(e_t)_m, read off gamma's cells with t ascending
    rho_terms = [[[] for _ in range(n)] for _ in range(n)]
    for i, plane in enumerate(conn.nonzero_gamma):
        for t, cell in enumerate(plane):
            for m, v in cell:
                rho_terms[i][m].append((n + t, -v))
    pairs = []
    p = 0
    for i in range(n):
        for _ in range(i + 1, n):
            # pair p's block of alpha's coordinates is the h*-part of [e_i, e_j]
            block = alpha[p * n:p * n + n]
            pairs.append(conn.base.pairs[p] + tuple((n + k, x) for k, x in enumerate(block) if x))
            p += 1
        pairs.extend(map(tuple, rho_terms[i]))
    pairs.extend(() for _ in range(p))  # [e^l, e^m] = 0
    algebra = require_jacobi(
        LieAlgebra(2 * n, tuple(pairs), f"ext({conn.label or 'conn'})")
    )
    return SymplecticLieAlgebra(algebra, standard_form(n), dual_subspace(n), source=conn)


@dataclass(frozen=True)
class DOmegaResult:
    """dw on every basis triple i<j<k (1-based in output); each residual is read by truthiness."""

    residuals: tuple[tuple[tuple[int, int, int], Fraction], ...]

    def is_zero(self) -> bool:
        return not any(v for _, v in self.residuals)

    def witnesses(self) -> tuple[tuple[tuple[int, int, int], Fraction], ...]:
        return tuple((t, v) for t, v in self.residuals if v)

    def first_witness(self) -> str:
        """The first nonzero residual as ``d_omega(i,j,k) = x``; "" if none."""
        for (i, j, k), value in self.residuals:
            if value:
                return f"d_omega({i},{j},{k}) = {format_rational(value)}"
        return ""


def d_omega(s: SymplecticLieAlgebra, omega: RatMatrix | None = None) -> DOmegaResult:
    """Chevalley-Eilenberg differential of omega on all basis triples.

    Without ``omega``, of the algebra's own form: that one is computed once
    and kept as ``s.d_omega_result``.  An explicit dense ``omega`` is checked
    square of the algebra's size and antisymmetric, and computed afresh.
    """
    if omega is None:
        return s.d_omega_result
    return SymplecticLieAlgebra(s.algebra, _form_of(omega, s.dim)).d_omega_result


def _form_of(omega: RatMatrix, n: int) -> tuple[Fraction, ...]:
    """The pair coordinates of a dense n x n antisymmetric omega."""
    if omega.rows != n or omega.cols != n:
        raise ValueError("omega shape does not match algebra dimension")
    for i in range(n):
        for j in range(i, n):
            if omega[i, j] != -omega[j, i]:
                raise ValueError("omega is not antisymmetric")
    return tuple(omega[i, j] for i, j in combinations(range(n), 2))


def _int_omega_row(s: SymplecticLieAlgebra, terms) -> dict[int, int]:
    """D' omega(v, .) as a sparse int row, for v the sum of x e_p over the
    (p, x) in terms, read on the scaled rows ``s.integer_omega``."""
    rows = s.integer_omega[1]
    out = {}
    for p, x in terms:
        for q, y in rows[p].items():
            _add(out, q, x * y)
    return out


def _omega_table(s: SymplecticLieAlgebra):
    """``s.integer_omega_brackets``: D = D_bracket D' and the n x n table
    W[a][u] = D' omega(D_bracket [e_a, e_u], .), antisymmetric in (a, u)."""
    d, table = s.algebra.integer_brackets
    n = s.dim
    w = [[{} for _ in range(n)] for _ in range(n)]
    for a, u in combinations(range(n), 2):
        if row := _int_omega_row(s, table[a][u]):
            w[a][u] = row
            w[u][a] = {q: -x for q, x in row.items()}
    return d * s.integer_omega[0], tuple(map(tuple, w))


def _omega_solve(s: SymplecticLieAlgebra, lifts, tests) -> NonzeroTable:
    """The connection omega(nabla_x y, u) = -omega(y, [x, u]) for the test vectors u.

    ``lifts`` are m basis indices l_t and ``tests`` m vectors u as sparse rows
    {index: nonzero value}: the unit vectors for ``canonical_connection``, the
    basis of a Lagrangian ideal for ``induced_flat_connection``.  Cell [a][b]
    lists the nonzero (t, x_t) of nabla_{e_{l_a}} e_{l_b} = sum_t x_t e_{l_t},
    solving sum_t x_t omega(u, e_{l_t}) = -omega([e_{l_a}, u], e_{l_b}) for
    every u, the equation above by antisymmetry.

    It runs on ints.  Each equation is linear in u, so u is scaled to coprime
    ints (the rows of a ``Subspace`` already are), which leaves the solution
    as it is.  The pairing P[u][t] =
    D' omega(u, e_{l_t}) is inverted once, by one int elimination of [P | I]
    (ValueError when singular), and the right-hand sides D omega([e_a, u], .)
    are sums of rows of the kept table W.  So
    x_t = -sum_u P^-1[t][u] D omega([e_a, u], e_b) / D_bracket, summed over the
    nonzero entries only, and each x_t is made as one Fraction.
    """
    d, w = s.algebra.integer_brackets[0], s.integer_omega_brackets[1]
    position = {l: t for t, l in enumerate(lifts)}
    m = len(position)
    tests = [_integer_row(u) for u in tests]
    inverse = _inverse_rows([
        {position[q]: x for q, x in _int_omega_row(s, u.items()).items() if q in position}
        for u in tests
    ], m)
    # P^-1[t][u] = inverse[t][m + u] / inverse[t][t]; columns[u] lists the
    # nonzero (t, numerator), and x_t is divided by -inverse[t][t] D_bracket.
    columns = [[] for _ in tests]
    for t, row in enumerate(inverse):
        for j, x in row.items():
            if j >= m:
                columns[j - m].append((t, x))
    scale = [-row[t] * d for t, row in enumerate(inverse)]
    gamma = []
    for a in position:
        cells = [{} for _ in range(m)]
        for u, column in zip(tests, columns):
            # D omega([e_a, u], e_q) sums x W[a][p][q] over the entries x of u
            for p, x in u.items():
                for q, y in w[a][p].items():
                    if (b := position.get(q)) is not None:
                        for t, v in column:
                            _add(cells[b], t, x * y * v)
        gamma.append(tuple(
            tuple((t, Fraction(x, scale[t])) for t, x in sorted(cell.items())) for cell in cells
        ))
    return tuple(gamma)


@dataclass(frozen=True)
class IdealVerdict:
    status: str  # not_ideal | not_isotropic | isotropic | lagrangian
    normal: bool

    @property
    def is_lagrangian(self) -> bool:
        return self.status == "lagrangian"


def symplectic_orthogonal(s: SymplecticLieAlgebra, j: Subspace) -> Subspace:
    """{v : omega(u, v) = 0 for all u in J}: the kernel of the rows omega(u, .)
    of J's int echelon rows u, read on ints.  A nonzero J of another ambient
    dimension raises."""
    if j.dim and j.ambient_dim != s.dim:
        raise ValueError("ambient dimension mismatch")
    return _kernel([_int_omega_row(s, u.items()) for u in j.ints], s.dim)


def is_lagrangian_ideal(s: SymplecticLieAlgebra, j: Subspace) -> IdealVerdict:
    """Classify J and report whether its symplectic orthogonal is an ideal.

    Isotropy is decided first; an isotropic subspace that is not an ideal
    reports not_ideal.  The verdict on ``s.lagrangian_ideal`` is computed once
    per algebra and kept as ``s.ideal_verdict``.
    """
    if j == s.lagrangian_ideal:
        return s.ideal_verdict
    return _classify_ideal(s, j, symplectic_orthogonal(s, j))


def _classify_ideal(s: SymplecticLieAlgebra, j: Subspace, perp: Subspace) -> IdealVerdict:
    """The verdict on J, given its symplectic orthogonal."""
    normal = s.algebra.is_ideal(perp)
    # J is isotropic iff omega vanishes on every pair of its echelon rows.
    if any(s.pullback(j.ints)):
        return IdealVerdict("not_isotropic", normal)
    # A Lagrangian J is its own orthogonal, whose ideal check is just made.
    if not (normal if perp == j else s.algebra.is_ideal(j)):
        return IdealVerdict("not_ideal", normal)
    if 2 * j.dim == s.dim:
        return IdealVerdict("lagrangian", normal)
    return IdealVerdict("isotropic", normal)


def classify_and_reduce(
    s: SymplecticLieAlgebra, j: Subspace
) -> tuple[IdealVerdict, SymplecticLieAlgebra | None]:
    """The verdict on J and, when J is a normal isotropic ideal, the reduction
    orth(J)/J with the induced form (None otherwise).

    The orthogonal of J is computed once and serves both the classification
    and the quotient.  For Lagrangian J the reduction is the zero algebra;
    for J = 0 it is s itself.
    """
    perp = symplectic_orthogonal(s, j)
    verdict = _classify_ideal(s, j, perp)
    if verdict.status in ("not_ideal", "not_isotropic") or not verdict.normal:
        return verdict, None

    def inside(row):  # a vector of the orthogonal in its echelon basis: its pivot entries
        return tuple((t, row[p]) for t, p in enumerate(perp.pivots) if p in row)

    rows, r = perp.rows, perp.dim
    pairs = tuple(inside(s.algebra.bracket_rows(rows[a], rows[b])) for a, b in combinations(range(r), 2))
    perp_algebra = LieAlgebra(r, pairs, f"{s.label}|perp")
    j_inside = _subspace(r, [dict(inside(u)) for u in j.ints])
    # J is an ideal of g inside the orthogonal, so it is one of the orthogonal;
    # nothing else certifies the quotient, so Jacobi is checked on it.
    reduced = require_jacobi(_quotient(perp_algebra, j_inside, name=f"{s.label}/red"))
    result = SymplecticLieAlgebra(
        reduced, s.pullback([rows[t] for t in j_inside.complement_coordinates()])
    )
    if reduced.dim:
        result.validate()
    return verdict, result


def induced_flat_connection(s: SymplecticLieAlgebra, j: Subspace) -> FlatConnection:
    """The connection on g/J defined by omega_h(nabla_x y, u) = -omega(y, [x, u]).

    J must be a Lagrangian ideal.  The result is verified flat torsion-free,
    and geodesically complete whenever the ambient algebra is nilpotent.
    When the quotient's pairs and the solved gamma table equal those of
    ``s.source``, the connection s was built from, the checks read that
    connection's kept verdicts, which are the same; the result's own are
    computed on first use.
    """
    verdict = is_lagrangian_ideal(s, j)
    if not verdict.is_lagrangian:
        raise ValueError(f"induced connection requires a Lagrangian ideal, got {verdict.status}")
    if j.ambient_dim != s.dim:  # a zero J of another size, Lagrangian when s is 0
        raise ValueError("ambient dimension mismatch")
    # The verdict has checked J an ideal.  The flat torsion-free check below
    # certifies the quotient's Jacobi identity: its bracket is then the
    # commutator of the left-symmetric product x.y = nabla_x y.
    quotient = _quotient(s.algebra, j, name=f"{s.label}/ideal")
    try:
        gamma = _omega_solve(s, j.complement_coordinates(), j.ints)
    except ValueError:
        raise ValueError("pairing between quotient and ideal is degenerate") from None
    conn = FlatConnection(quotient, gamma, label=f"induced({s.label})")
    source = s.source
    if source is None or (quotient.pairs, gamma) != (source.base.pairs, source.nonzero_gamma):
        source = conn
    report = check_flat_torsion_free(source)
    if not report.ok:
        raise IntegrityError("induced connection failed the flat torsion-free check")
    if is_nilpotent(s.algebra):
        if not is_geodesically_complete(source).complete:
            raise IntegrityError(
                "induced connection of a nilpotent symplectic algebra must be complete"
            )
    return conn


def canonical_connection(s: SymplecticLieAlgebra) -> FlatConnection:
    """The connection solving omega(nabla_x y, z) = -omega(y, [x, z]) for all z.

    Requires a genuine symplectic structure (closed, non-degenerate), which
    ``validate`` checks against the kept ``d_omega_result``; the result is
    verified flat and torsion-free.
    """
    s.validate()
    # validate() has checked omega invertible, so the pairing with the unit
    # vectors, which is omega itself, is too.
    units = [{m: 1} for m in range(s.dim)]
    gamma = _omega_solve(s, range(s.dim), units)
    conn = FlatConnection(s.algebra, gamma, label=f"canonical({s.label})")
    report = check_flat_torsion_free(conn)
    if not report.ok:
        raise IntegrityError("canonical connection failed the flat torsion-free check")
    return conn


@dataclass(frozen=True)
class NilpotencyCertificate:
    nilpotent: bool
    lcs_dims: tuple[int, ...]
    extension_class: int | None
    base_nilpotent: bool
    complete: bool
    condition_sum_ok: bool | None
    power_bound: int | None

    @property
    def conditions_verdict(self) -> bool:
        return bool(self.base_nilpotent and self.complete and self.condition_sum_ok)


def extension_nilpotency(triple: ExtensionTriple) -> NilpotencyCertificate:
    """Nilpotency of the extension, certified two independent ways.

    Path (a): the lower central series of the built algebra (authoritative),
    the descending flag of its ad_{e_j} run on the algebra's int bracket
    table; the certificate reads only its dimensions, so no term of the
    series is written as Fractions.  The table is scaled by a positive D,
    and D [e_j, v] spans the line of [e_j, v], so the dimensions are those
    of the rational series.
    Path (b): base nilpotent + connection complete + the vanishing of the
    condition sum sum_j rho(x)^j alpha(x, ad_x^{p-1-j} y) for all x, y, with
    p = class(h) + r and r the uniform nilindex of rho, read off the Engel
    flag of nabla (rho = -nabla^T, and a product of transposes is the
    transpose of the reversed product, so both have the same index).

    The condition sum is the lower-left block of ad_(x,0)^p, as ad_(x,0) is
    block lower-triangular on h + h*: [[ad_x, 0], [alpha(x, .), rho(x)]].
    When the flag reaches 0 the sum is identically zero for every alpha: in
    each term either j >= r, so rho(x)^j = 0, or p-1-j >= class(h), so
    ad_x^{p-1-j} = 0.  When it does not, some rho(x) is not nilpotent; it is
    a diagonal block of ad_(x,xi), so by Engel's theorem the extension is not
    nilpotent.  Hence condition_sum_ok is exactly "the flag reaches 0", with
    no sampled direction.  A disagreement between the paths raises
    IntegrityError.
    """
    extension = build_extension(triple)
    lcs_dims = _lcs_dims(extension.algebra)
    verdict_a = lcs_dims[-1] == 0

    conn = triple.connection
    base_class = nilpotency_class(conn.base)
    base_nilpotent = base_class is not None
    evidence = is_geodesically_complete(conn)

    condition_ok: bool | None = None
    p: int | None = None
    if base_nilpotent:
        rho_index = evidence.nabla_nilindex
        p = max(1, base_class + (rho_index if rho_index is not None else conn.dim))
        condition_ok = rho_index is not None

    certificate = NilpotencyCertificate(
        nilpotent=verdict_a,
        lcs_dims=lcs_dims,
        extension_class=len(lcs_dims) - 1 if verdict_a else None,
        base_nilpotent=base_nilpotent,
        complete=evidence.complete,
        condition_sum_ok=condition_ok,
        power_bound=p,
    )
    if verdict_a != certificate.conditions_verdict:
        raise IntegrityError(
            "lower-central-series verdict and the three-condition verdict disagree: "
            f"{verdict_a} vs {certificate.conditions_verdict}"
        )
    return certificate


def equivalence_map_psi(
    t1: ExtensionTriple, t2: ExtensionTriple, sigma: OneCochain
) -> RatMatrix:
    """The isomorphism (x, xi) -> (x, xi + sigma(x)) between two extensions.

    Requires both triples to share the connection and the cocycles to be
    related by alpha_2 = alpha_1 - d(sigma).  The returned 2n x 2n matrix is
    verified to preserve brackets on all basis pairs, on ints: psi's columns
    scaled by the lcm of sigma's denominators, read against both extensions'
    ``integer_brackets``, with each side multiplied by the other's scales.
    For symmetric sigma the pullback identity Psi^T omega Psi = omega is
    verified as well, by ``pullback``.
    """
    c1, c2 = t1.connection, t2.connection
    if c1.nonzero_gamma != c2.nonzero_gamma or c1.base.pairs != c2.base.pairs:
        raise ValueError("triples must share the same connection")
    rep = dual_representation(t1.connection)
    expected = t1.cocycle - coboundary_1(rep, sigma)
    if expected != t2.cocycle:
        raise ValueError("cocycles are not related by the coboundary of sigma")

    cols = _psi_columns(sigma)
    g1 = build_extension(t1)
    g2 = build_extension(t2)
    # C = D_sigma psi and T_i = D_i [., .]_i, so sum_k T_1[a][b][k] C_k is
    # D_1 D_sigma psi([e_a, e_b]_1) and sum T_2[p][q] C_a[p] C_b[q] is
    # D_2 D_sigma^2 [psi e_a, psi e_b]_2; f1 and f2 bring both to one scale.
    d_sigma, ints = _integer_tables([col.items() for col in cols])
    d1, table1 = g1.algebra.integer_brackets
    d2, table2 = g2.algebra.integer_brackets
    f1, f2 = d2 * d_sigma, d1
    for a, b in combinations(range(len(cols)), 2):
        image = {}
        for k, c in table1[a][b]:
            c *= f1
            for t, v in ints[k]:
                _add(image, t, c * v)
        bracket = {}
        for p, x in ints[a]:
            plane, x = table2[p], f2 * x
            for q, y in ints[b]:
                for k, c in plane[q]:
                    _add(bracket, k, x * y * c)
        if image != bracket:
            raise IntegrityError(f"bracket preservation fails at basis pair ({a+1},{b+1})")
    # Psi^T omega Psi is alternating, so it is decided on its pair coordinates.
    if sigma.is_symmetric and g2.pullback(cols) != g1.form:
        raise IntegrityError("pullback of omega under a Lagrangian shift must be omega")
    return RatMatrix(tuple(_dense(col, len(cols)) for col in cols)).transpose()


def _psi_columns(sigma: OneCochain) -> list[dict[int, Fraction]]:
    """psi's columns as sparse rows: e_a + sigma(e_a) for a < n, then the e^k."""
    n = sigma.dim
    cols = [{a: ONE, **{n + k: x for k, x in enumerate(sigma.entries[a]) if x}} for a in range(n)]
    return cols + [{n + k: ONE} for k in range(n)]


def adjusted_symplectic_form(
    triple: ExtensionTriple, sigma: OneCochain, sigma_l: OneCochain
) -> RatMatrix:
    """Symplectic form carried by the shifted extension with cocycle alpha - d(sigma).

    Computed as the exact pullback of the standard pairing form under the
    verified isomorphism (x, xi) -> (x, xi + (sigma_l - sigma)(x)) onto the
    extension by alpha - d(sigma_l); its h x h block is the alternating part
    of (sigma_l - sigma).  The result is antisymmetric and invertible by
    construction and is re-verified to be closed on the shifted extension.
    """
    if not sigma_l.is_symmetric:
        raise ValueError("sigma_l must be a symmetric (Lagrangian) 1-cochain")
    if not triple.cocycle.is_lagrangian:
        raise ValueError("base cocycle must satisfy the cyclic-sum condition")
    rep = dual_representation(triple.connection)
    alpha_bar = triple.cocycle - coboundary_1(rep, sigma)
    alpha_hat = triple.cocycle - coboundary_1(rep, sigma_l)
    t_bar = ExtensionTriple(triple.connection, alpha_bar)
    t_hat = ExtensionTriple(triple.connection, alpha_hat)
    tau = sigma_l - sigma
    equivalence_map_psi(t_bar, t_hat, tau)
    # Psi^T omega Psi, omega the standard pairing form of the extension by alpha_hat.
    form = build_extension(t_hat).pullback(_psi_columns(tau))
    adjusted = SymplecticLieAlgebra(build_extension(t_bar).algebra, form)
    if not adjusted.is_nondegenerate():
        raise ValueError("adjusted form is degenerate")
    witness = adjusted.d_omega_result.first_witness()
    if witness:
        raise IntegrityError(f"adjusted form is not closed on the shifted extension: {witness}")
    return adjusted.omega
