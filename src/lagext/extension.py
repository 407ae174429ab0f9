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
    lower_central_series,
    nilpotency_class,
    quotient_algebra,
    require_jacobi,
)
from .linalg import (
    ONE,
    RatMatrix,
    Subspace,
    Vector,
    ZERO,
    _add,
    _sparse,
    format_rational,
    kernel_basis,
    unit_vector,
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
    """A Lie algebra with a candidate symplectic form.

    Construction does not assert closedness; use ``d_omega`` /
    ``validate`` to check dw = 0 and non-degeneracy.  dw of the algebra's own
    form (``d_omega_result``) and the classification of ``lagrangian_ideal``
    (``ideal_verdict``) are computed on first use and kept, as the algebra and
    the form are immutable.
    """

    algebra: LieAlgebra
    omega: RatMatrix
    lagrangian_ideal: Subspace | None = None

    def __post_init__(self):
        n = self.algebra.dim
        if self.omega.rows != n or self.omega.cols != n:
            raise ValueError("omega shape does not match algebra dimension")
        for i in range(n):
            for j in range(i, n):
                if self.omega[i, j] != -self.omega[j, i]:
                    raise ValueError("omega is not antisymmetric")

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def omega_value(self, x: Vector, y: Vector) -> Fraction:
        return sum(
            (
                x[p] * self.omega[p, q] * y[q]
                for p in range(self.dim)
                if x[p] != 0
                for q in range(self.dim)
                if y[q] != 0
            ),
            ZERO,
        )

    @cached_property
    def d_omega_result(self) -> "DOmegaResult":
        """dw of ``omega`` on every basis triple, computed once per instance."""
        return _d_omega(self.algebra, self.omega)

    @cached_property
    def ideal_verdict(self) -> "IdealVerdict":
        """The classification of ``lagrangian_ideal``, computed once per instance."""
        return _classify_ideal(self, self.lagrangian_ideal)

    def validate(self) -> None:
        """Raise ValueError unless omega is invertible and closed."""
        if not self.omega.is_invertible():
            raise ValueError("omega is degenerate")
        witness = self.d_omega_result.first_witness()
        if witness:
            raise ValueError(f"omega is not closed: {witness}")


def standard_omega(n: int) -> RatMatrix:
    """[[0, -I], [I, 0]] on (e_1..e_n, e^1..e^n)."""
    one = Fraction(1)
    rows = []
    for i in range(n):
        row = [ZERO] * (2 * n)
        row[n + i] = -one
        rows.append(tuple(row))
    for i in range(n):
        row = [ZERO] * (2 * n)
        row[i] = one
        rows.append(tuple(row))
    return RatMatrix(tuple(rows))


def dual_subspace(n: int) -> Subspace:
    """span(e^1..e^n) inside the 2n-dimensional extension."""
    return Subspace.from_vectors(2 * n, [unit_vector(2 * n, n + i) for i in range(n)])


@dataclass(frozen=True)
class ExtensionTriple:
    """Connection on the base plus a 2-cocycle for its dual representation.

    The built extension (``extension``) is computed on first use and kept on
    the instance, so it is built once per triple, as each verdict on the
    connection is computed once per connection.  This is sound because a
    triple is immutable: the tensors of its connection and its cocycle are
    tuples of Fractions.  A build that raises is not kept: every access
    raises again.
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
        extension.algebra.rename(name), extension.omega, extension.lagrangian_ideal
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
    return SymplecticLieAlgebra(algebra, standard_omega(n), dual_subspace(n))


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

    dw(e_i, e_j, e_k) = w(e_i, [e_j, e_k]) + w(e_j, [e_k, e_i]) + w(e_k, [e_i, e_j]),
    each term summed over the nonzero structure constants of the bracket and
    the nonzero entries of the row of omega.  Without ``omega``, of the
    algebra's own form: that one is computed once and kept as
    ``s.d_omega_result``.  An explicit ``omega`` is computed afresh.
    """
    if omega is None:
        return s.d_omega_result
    return _d_omega(s.algebra, omega)


def _d_omega(algebra: LieAlgebra, omega: RatMatrix) -> DOmegaResult:
    n = algebra.dim
    table = algebra.nonzero_brackets
    w = _omega_on_brackets(omega)
    out = []
    for i, j, k in combinations(range(n), 3):
        value = w(i, table[j][k]) + w(j, table[k][i]) + w(k, table[i][j])
        out.append(((i + 1, j + 1, k + 1), value))
    return DOmegaResult(tuple(out))


def _omega_on_brackets(omega: RatMatrix):
    """w(p, terms) = omega(e_p, v) for v the sum of c e_q over (q, c) in terms,
    summed over the nonzero entries of row p of omega."""
    rows = [{q: x for q, x in enumerate(row) if x} for row in omega.entries]

    def w(p: int, terms) -> Fraction:
        row = rows[p]
        return sum((row[q] * c for q, c in terms if q in row), ZERO)

    return w


def _omega_solve(s: SymplecticLieAlgebra, lifts, tests) -> tuple[tuple[Vector, ...], ...]:
    """The connection omega(nabla_x y, u) = -omega(y, [x, u]) for the test vectors u.

    ``lifts`` are m basis indices l_t and ``tests`` m vectors u as sparse rows
    {index: nonzero value}: the unit vectors for ``canonical_connection``, the
    basis of a Lagrangian ideal for ``induced_flat_connection``.  gamma[a][b]
    is the x in Q^m of nabla_{e_{l_a}} e_{l_b} = sum_t x_t e_{l_t}, solving
    sum_t x_t omega(e_{l_t}, u) = -omega(e_{l_b}, [e_{l_a}, u]) for every u.
    The pairing omega(e_{l_t}, u) is inverted once (ValueError when singular);
    each [e_{l_a}, u] is read off ``nonzero_brackets`` once per (a, u), and
    each omega value through ``_omega_on_brackets``.
    """
    w = _omega_on_brackets(s.omega)
    inverse = RatMatrix(tuple(tuple(w(t, u.items()) for t in lifts) for u in tests)).inverse()
    # columns[u]: the nonzero (k, v) of column u of the inverse
    columns = [[(k, v) for k, v in enumerate(col) if v] for col in zip(*inverse.entries)]
    table = s.algebra.nonzero_brackets
    gamma = []
    for a in lifts:
        # [e_a, u] for each test vector u as (k, value) terms, shared by every b
        brackets = [[(k, y * c) for q, y in u.items() for k, c in table[a][q]] for u in tests]
        plane = []
        for b in lifts:
            x = [ZERO] * len(tests)
            for u, terms in enumerate(brackets):
                if terms and (f := -w(b, terms)):
                    for k, v in columns[u]:
                        x[k] += f * v
            plane.append(tuple(x))
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
    """{v : omega(v, u) = 0 for all u in J}."""
    if j.dim == 0:
        return Subspace.full(s.dim)
    rows = [s.omega.apply(u) for u in j.basis]
    return kernel_basis(RatMatrix(tuple(rows)))


def is_lagrangian_ideal(s: SymplecticLieAlgebra, j: Subspace) -> IdealVerdict:
    """Classify J and report whether its symplectic orthogonal is an ideal.

    Isotropy is decided first; an isotropic subspace that is not an ideal
    reports not_ideal.  The verdict on ``s.lagrangian_ideal`` is computed once
    per algebra and kept as ``s.ideal_verdict``.
    """
    if j == s.lagrangian_ideal:
        return s.ideal_verdict
    return _classify_ideal(s, j)


def _classify_ideal(s: SymplecticLieAlgebra, j: Subspace) -> IdealVerdict:
    normal = s.algebra.is_ideal(symplectic_orthogonal(s, j))
    isotropic = all(
        s.omega_value(u, v) == 0 for u in j.basis for v in j.basis
    )
    if not isotropic:
        return IdealVerdict("not_isotropic", normal)
    if not s.algebra.is_ideal(j):
        return IdealVerdict("not_ideal", normal)
    if 2 * j.dim == s.dim:
        return IdealVerdict("lagrangian", normal)
    return IdealVerdict("isotropic", normal)


def symplectic_reduction(s: SymplecticLieAlgebra, j: Subspace) -> SymplecticLieAlgebra:
    """Quotient orth(J)/J with the induced form, for a normal isotropic ideal J.

    For Lagrangian J the result is the zero algebra; for J = 0 it is s itself.
    """
    verdict = is_lagrangian_ideal(s, j)
    if verdict.status in ("not_ideal", "not_isotropic"):
        raise ValueError(f"reduction requires an isotropic ideal, got {verdict.status}")
    if not verdict.normal:
        raise ValueError("reduction requires a normal ideal (orthogonal must be an ideal)")

    perp = symplectic_orthogonal(s, j)
    r = perp.dim
    # Structure constants of the orthogonal as a subalgebra, in its echelon basis.
    sub = {
        (a, b): perp.coordinates(s.algebra.bracket_vectors(perp.basis[a], perp.basis[b]))
        for a, b in combinations(range(r), 2)
    }
    perp_algebra = LieAlgebra.from_brackets(r, sub, name=f"{s.algebra.name}|perp")
    j_inside = Subspace.from_vectors(r, [perp.coordinates(u) for u in j.basis])
    reduced = quotient_algebra(perp_algebra, j_inside, name=f"{s.algebra.name}/red")

    keep = j_inside.complement_coordinates()
    lifts = [perp.basis[t] for t in keep]
    omega_rows = [
        tuple(s.omega_value(x, y) for y in lifts) for x in lifts
    ]
    reduced_omega = RatMatrix(tuple(omega_rows))
    result = SymplecticLieAlgebra(reduced, reduced_omega)
    if reduced.dim:
        result.validate()
    return result


def induced_flat_connection(s: SymplecticLieAlgebra, j: Subspace) -> FlatConnection:
    """The connection on g/J defined by omega_h(nabla_x y, u) = -omega(y, [x, u]).

    J must be a Lagrangian ideal.  The result is verified flat torsion-free,
    and geodesically complete whenever the ambient algebra is nilpotent.
    """
    verdict = is_lagrangian_ideal(s, j)
    if not verdict.is_lagrangian:
        raise ValueError(f"induced connection requires a Lagrangian ideal, got {verdict.status}")
    quotient = quotient_algebra(s.algebra, j, name=f"{s.algebra.name}/ideal")
    try:
        gamma = _omega_solve(s, j.complement_coordinates(), j._rows)
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
    if t1.connection.gamma != t2.connection.gamma or t1.connection.base != t2.connection.base:
        raise ValueError("triples must share the same connection")
    rep = dual_representation(t1.connection)
    expected = t1.cocycle - coboundary_1(rep, sigma)
    if expected != t2.cocycle:
        raise ValueError("cocycles are not related by the coboundary of sigma")

    n = t1.connection.dim
    total = 2 * n
    # column a < n is e_a + sigma(e_a) in the dual coordinates; column n + k is e^k
    cols = [(*unit_vector(n, a), *sigma.entries[a]) for a in range(n)]
    cols += [unit_vector(total, n + k) for k in range(n)]
    psi = RatMatrix(tuple(cols)).transpose()

    g1 = build_extension(t1)
    g2 = build_extension(t2)
    table = g1.algebra.nonzero_brackets
    nonzero_cols = [[(t, v) for t, v in enumerate(col) if v] for col in cols]
    for a, b in combinations(range(total), 2):
        # psi([e_a, e_b]_1), summed over the nonzero terms of the bracket and of psi's columns
        image = {}
        for k, c in table[a][b]:
            for t, v in nonzero_cols[k]:
                _add(image, t, c * v)
        if image != _sparse(g2.algebra.bracket_vectors(cols[a], cols[b])):
            raise IntegrityError(f"bracket preservation fails at basis pair ({a+1},{b+1})")
    if sigma.is_symmetric:
        pulled = psi.transpose() @ g2.omega @ psi
        if pulled != g1.omega:
            raise IntegrityError("pullback of omega under a Lagrangian shift must be omega")
    return psi


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
    psi = equivalence_map_psi(t_bar, t_hat, tau)
    base = standard_omega(triple.connection.dim)
    adjusted = psi.transpose() @ base @ psi
    if not adjusted.is_invertible():
        raise ValueError("adjusted form is degenerate")
    shifted = build_extension(t_bar)
    witness = d_omega(shifted, adjusted).first_witness()
    if witness:
        raise IntegrityError(f"adjusted form is not closed on the shifted extension: {witness}")
    return adjusted
