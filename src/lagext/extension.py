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
its sparse rows; subspaces (J, its orthogonal) are read through their
sparse echelon rows, and a linear map (psi, the lifts of a reduction) as its
columns in sparse rows, with omega and brackets read by ``omega_row`` and
``LieAlgebra.bracket_rows``: no dense vector is read here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations

from .cohomology import (
    OneCochain,
    ThreeCochain,
    TwoCochain,
    coboundary_1,
    coboundary_2,
)
from .connection import (
    DualRep,
    FlatConnection,
    check_flat_torsion_free,
    dual_representation,
    is_geodesically_complete,
)
from .lie import (
    LieAlgebra,
    NonzeroTable,
    _quotient,
    lower_central_series,
    nilpotency_class,
    require_jacobi,
)
from .linalg import (
    ONE,
    RatMatrix,
    Subspace,
    Vector,
    ZERO,
    _add,
    _dense,
    _eliminate,
    _integer_tables,
    _kernel,
    _sparse,
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
    ``validate`` to check dw = 0 and non-degeneracy.  The sparse rows of the
    form (``omega_rows``), its dense matrix (``omega``, a view), dw of the
    form (``d_omega_result``) and the classification of ``lagrangian_ideal``
    (``ideal_verdict``) are computed on first use and kept, as the algebra and
    the form are immutable.
    """

    algebra: LieAlgebra
    form: tuple[Fraction, ...]
    lagrangian_ideal: Subspace | None = None

    def __post_init__(self):
        n = self.algebra.dim
        if len(self.form) != n * (n - 1) // 2:
            raise ValueError("omega shape does not match algebra dimension")

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @cached_property
    def omega_rows(self) -> tuple[dict[int, Fraction], ...]:
        """Row p of omega as {q: omega(e_p, e_q)} over its nonzero entries, q ascending."""
        rows = [{} for _ in range(self.dim)]
        for (i, j), x in zip(combinations(range(self.dim), 2), self.form):
            if x:
                rows[i][j] = x
                rows[j][i] = -x
        return tuple(rows)

    @cached_property
    def omega(self) -> RatMatrix:
        """The dense matrix of the form, a read-only view decoded once."""
        return RatMatrix(tuple(_dense(row, self.dim) for row in self.omega_rows))

    def omega_row(self, v: dict[int, Fraction]) -> dict[int, Fraction]:
        """omega(v, .) as a sparse row {q: omega(v, e_q)}, for a sparse row v."""
        out = {}
        for p, x in v.items():
            for q, y in self.omega_rows[p].items():
                _add(out, q, x * y)
        return out

    def pullback(self, columns) -> tuple[Fraction, ...]:
        """The pair coordinates of omega(c_a, c_b), a < b, for sparse rows c_a, each
        omega(c_a, .) computed once: the form omega pulls back along the map."""
        rows = [self.omega_row(c) for c in columns[:-1]]
        return tuple(
            sum((rows[a][q] * y for q, y in columns[b].items() if q in rows[a]), ZERO)
            for a, b in combinations(range(len(columns)), 2)
        )

    def omega_value(self, x: Vector, y: Vector) -> Fraction:
        """omega(x, y) of dense vectors: a dense wrapper over ``pullback``."""
        return self.pullback([_sparse(x), _sparse(y)])[0]

    @cached_property
    def d_omega_result(self) -> "DOmegaResult":
        """dw of the form on every basis triple, computed once per instance.

        dw(e_i, e_j, e_k) = w(e_i, [e_j, e_k]) + w(e_j, [e_k, e_i]) + w(e_k, [e_i, e_j]),
        each term summed over the nonzero structure constants of the bracket
        and the nonzero entries of the row of omega.
        """
        # Bilinear in omega and the bracket: summed over the table scaled by
        # its D and the rows by their own D', and divided back by D D'.
        d, table = self.algebra.integer_brackets
        d_rows, (rows,) = _integer_tables(tuple(tuple(row.items()) for row in self.omega_rows))
        rows = [dict(row) for row in rows]

        def w(p, terms):
            row = rows[p]
            return sum(row[q] * c for q, c in terms if q in row)

        residuals = []
        for i, j, k in combinations(range(self.dim), 3):
            x = w(i, table[j][k]) + w(j, table[k][i]) + w(k, table[i][j])
            residuals.append(((i + 1, j + 1, k + 1), Fraction(x, d * d_rows) if x else ZERO))
        return DOmegaResult(tuple(residuals))

    @cached_property
    def ideal_verdict(self) -> "IdealVerdict":
        """The classification of ``lagrangian_ideal``, computed once per instance."""
        j = self.lagrangian_ideal
        return _classify_ideal(self, j, symplectic_orthogonal(self, j))

    def is_nondegenerate(self) -> bool:
        """omega has full rank, decided by one elimination of its sparse rows."""
        return len(_eliminate([dict(row) for row in self.omega_rows])) == self.dim

    def validate(self) -> None:
        """Raise ValueError unless omega is invertible and closed."""
        if not self.is_nondegenerate():
            raise ValueError("omega is degenerate")
        witness = self.d_omega_result.first_witness()
        if witness:
            raise ValueError(f"omega is not closed: {witness}")


def standard_form(n: int) -> tuple[Fraction, ...]:
    """[[0, -I], [I, 0]] on (e_1..e_n, e^1..e^n), as its pair coordinates."""
    return tuple(-ONE if j == n + i else ZERO for i, j in combinations(range(2 * n), 2))


def dual_subspace(n: int) -> Subspace:
    """span(e^1..e^n) inside the 2n-dimensional extension."""
    return Subspace(2 * n, tuple({n + i: ONE} for i in range(n)))


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

    def dual_rep(self) -> DualRep:
        return dual_representation(self.connection)

    @cached_property
    def extension(self) -> "SymplecticLieAlgebra":
        """The built extension, named ext(<connection label>)."""
        return _build(self)


def build_extension(triple: ExtensionTriple, name: str = "") -> SymplecticLieAlgebra:
    """The 2n-dimensional algebra of the triple, with the standard pairing form.

    Raises CocycleError when the cochain fails the cocycle condition (the
    Jacobi identity of the result is equivalent to it), and ValueError when
    the connection is not flat torsion-free.  The algebra is named ``name``,
    or ext(<connection label>) by default.
    """
    extension = triple.extension
    if not name:
        return extension
    return SymplecticLieAlgebra(
        extension.algebra.rename(name), extension.form, extension.lagrangian_ideal
    )


def _build(triple: ExtensionTriple) -> SymplecticLieAlgebra:
    conn = triple.connection
    report = check_flat_torsion_free(conn)
    if not report.ok:
        raise ValueError("extension requires a flat torsion-free connection")
    rep = dual_representation(conn)
    residual = coboundary_2(rep, triple.cocycle)
    if not residual.is_zero():
        raise CocycleError(residual)

    n = conn.dim
    alpha = triple.cocycle.values
    # rho_terms[i][m]: [e_i, e^m] = rho(e_i) e^m = sum of rho(e_i)[t][m] e^t,
    # t ascending since the entries of rho(e_i) are listed row-major
    rho_terms = [[[] for _ in range(n)] for _ in range(n)]
    for i, entries in enumerate(rep.nonzero_entries):
        for t, m, value in entries:
            rho_terms[i][m].append((n + t, value))
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
    return SymplecticLieAlgebra(algebra, standard_form(n), dual_subspace(n))


@dataclass(frozen=True)
class DOmegaResult:
    """dw evaluated on every basis triple i<j<k (1-based indices in output)."""

    residuals: tuple[tuple[tuple[int, int, int], Fraction], ...]

    def is_zero(self) -> bool:
        return all(v == 0 for _, v in self.residuals)

    def witnesses(self) -> tuple[tuple[tuple[int, int, int], Fraction], ...]:
        return tuple((t, v) for t, v in self.residuals if v != 0)

    def first_witness(self) -> str:
        """The first nonzero residual as ``d_omega(i,j,k) = x``; "" if none."""
        for (i, j, k), value in self.witnesses():
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


def _omega_solve(s: SymplecticLieAlgebra, lifts, tests) -> NonzeroTable:
    """The connection omega(nabla_x y, u) = -omega(y, [x, u]) for the test vectors u.

    ``lifts`` are m basis indices l_t and ``tests`` m vectors u as sparse rows
    {index: nonzero value}: the unit vectors for ``canonical_connection``, the
    basis of a Lagrangian ideal for ``induced_flat_connection``.  Cell [a][b]
    lists the nonzero (t, x_t) of nabla_{e_{l_a}} e_{l_b} = sum_t x_t e_{l_t},
    solving sum_t x_t omega(u, e_{l_t}) = -omega([e_{l_a}, u], e_{l_b}) for
    every u, the equation above by antisymmetry.
    The pairing omega(u, e_{l_t}) is inverted once (ValueError when singular),
    and omega([e_{l_a}, u], .) is read once per (a, u), for every b.
    """
    pairing = [s.omega_row(u) for u in tests]
    inverse = RatMatrix(tuple(tuple(row.get(t, ZERO) for t in lifts) for row in pairing)).inverse()
    # columns[u]: the nonzero (k, -v) of column u of the inverse, which carries
    # the sign of the right-hand side
    columns = [[(k, -v) for k, v in enumerate(col) if v] for col in zip(*inverse.entries)]
    gamma = []
    for a in lifts:
        # omega([e_a, u], .) for each test vector u, shared by every b
        rows = [s.omega_row(s.algebra.bracket_rows({a: ONE}, u)) for u in tests]
        plane = []
        for b in lifts:
            x = {}
            for u, row in enumerate(rows):
                if f := row.get(b):
                    for k, v in columns[u]:
                        _add(x, k, f * v)
            plane.append(tuple(sorted(x.items())))
        gamma.append(tuple(plane))
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
    of J's echelon rows u.  A nonzero J of another ambient dimension raises."""
    if j.dim and j.ambient_dim != s.dim:
        raise ValueError("vector length does not match column count")
    return _kernel(_eliminate([s.omega_row(u) for u in j.rows]), s.dim)


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
    if any(s.pullback(j.rows)):
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
    perp_algebra = LieAlgebra(r, pairs, f"{s.algebra.name}|perp")
    j_inside = _subspace(r, [dict(inside(u)) for u in j.rows])
    # J is an ideal of g inside the orthogonal, so it is one of the orthogonal.
    reduced = _quotient(perp_algebra, j_inside, name=f"{s.algebra.name}/red")
    result = SymplecticLieAlgebra(
        reduced, s.pullback([rows[t] for t in j_inside.complement_coordinates()])
    )
    if reduced.dim:
        result.validate()
    return verdict, result


def symplectic_reduction(s: SymplecticLieAlgebra, j: Subspace) -> SymplecticLieAlgebra:
    """Quotient orth(J)/J with the induced form, for a normal isotropic ideal J.

    For Lagrangian J the result is the zero algebra; for J = 0 it is s itself.
    """
    verdict, result = classify_and_reduce(s, j)
    if verdict.status in ("not_ideal", "not_isotropic"):
        raise ValueError(f"reduction requires an isotropic ideal, got {verdict.status}")
    if result is None:
        raise ValueError("reduction requires a normal ideal (orthogonal must be an ideal)")
    return result


def induced_flat_connection(s: SymplecticLieAlgebra, j: Subspace) -> FlatConnection:
    """The connection on g/J defined by omega_h(nabla_x y, u) = -omega(y, [x, u]).

    J must be a Lagrangian ideal.  The result is verified flat torsion-free,
    and geodesically complete whenever the ambient algebra is nilpotent.
    """
    verdict = is_lagrangian_ideal(s, j)
    if not verdict.is_lagrangian:
        raise ValueError(f"induced connection requires a Lagrangian ideal, got {verdict.status}")
    if j.ambient_dim != s.dim:  # a zero J of another size, Lagrangian when s is 0
        raise ValueError("ambient dimension mismatch")
    # The verdict has checked J an ideal.
    quotient = _quotient(s.algebra, j, name=f"{s.algebra.name}/ideal")
    try:
        gamma = _omega_solve(s, j.complement_coordinates(), j.rows)
    except ValueError:
        raise ValueError("pairing between quotient and ideal is degenerate") from None
    conn = FlatConnection(quotient, gamma, label=f"induced({s.algebra.name})")
    report = check_flat_torsion_free(conn)
    if not report.ok:
        raise IntegrityError("induced connection failed the flat torsion-free check")
    if lower_central_series(s.algebra)[-1].dim == 0:
        if not is_geodesically_complete(conn).complete:
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
    units = [{m: ONE} for m in range(s.dim)]
    gamma = _omega_solve(s, range(s.dim), units)
    conn = FlatConnection(s.algebra, gamma, label=f"canonical({s.algebra.name})")
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

    Path (a): the lower central series of the built algebra (authoritative).
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
    series = lower_central_series(extension.algebra)
    lcs_dims = tuple(sp.dim for sp in series)
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
    verified to preserve brackets on all basis pairs; for symmetric sigma
    the pullback identity Psi^T omega Psi = omega is verified as well.
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
    table = g1.algebra.nonzero_brackets
    for a, b in combinations(range(len(cols)), 2):
        # psi([e_a, e_b]_1), summed over the nonzero terms of the bracket and of psi's columns
        image = {}
        for k, c in table[a][b]:
            for t, v in cols[k].items():
                _add(image, t, c * v)
        if image != g2.algebra.bracket_rows(cols[a], cols[b]):
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
    rep = triple.dual_rep()
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
