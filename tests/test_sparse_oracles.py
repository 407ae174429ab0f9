"""The sparse Lie and extension layers against frozen copies of the dense code.

The ``dense_*`` functions below are the dense implementations that the
nonzero-structure-constant loops replaced, kept unchanged as differential
oracles; the gamma references solve each system with ``solve_linear`` as the
dense code did.  Outputs must agree by value and by type.

The ``frozen_*`` functions are the seeded nilpotency evidence that the Engel
flag of nabla replaced: per-basis and seeded random-direction checks in the
completeness evidence, and the uniform nilindex of rho with a sampled
condition sum in the nilpotency certificate.

The ``dense_sweep``, ``dense_dual`` and ``dense_completeness`` functions are
the connection layer as it was before it read the table of nonzero
coefficients: the torsion, curvature and associator sweep from dense
``RatMatrix`` products, the representation law of the dual from dense
products and differences, and right-multiplication nilpotency from
``RatMatrix.is_nilpotent``.

``frozen_center``, ``frozen_derivation_space``, ``frozen_canonical_gamma``,
``frozen_induced_gamma`` and ``frozen_psi`` are the Lie and symplectic
routines as they were before every bracket was read from the nonzero table:
the center and the derivations from dense scans of the bracket tensor, the
two connections each from its own copy of the omega solve, and psi checked
with a ``psi.apply`` and two ``psi.col`` per basis pair.

``dense_rho_matrices``, ``dense_coboundary_1``, ``dense_coboundary_2``,
``dense_unflatten`` and ``dense_extension_bracket`` are the cochain maps as
they were before the sparse rows of d1 and d2 became their only formula:
the dense rho matrices, the evaluators that applied them with
``RatMatrix.apply`` and the dense ``value_at`` of a cochain, the decoding of
flattened coordinates through ``from_pairs``, and the extension's bracket
tensor with its rho block read column by column off those matrices.

``DenseTwoCochain``, ``dense_two_cochain_from_row`` and
``dense_two_cochain_from_coefficients`` are the 2-cochain as it was before
it was stored as its coordinates: the dense antisymmetric tensor, checked
entry by entry on construction, and the decoders that filled it.

``DenseLieAlgebra``, ``frozen_extension_algebra``, ``frozen_quotient``,
``frozen_induced_bracket`` and ``frozen_transform`` are the Lie algebra as
it was before it was stored as its nonzero bracket table: the dense n^3
tensor with its antisymmetry scan, the table derived back from it, and the
builders that assembled a dense tensor by hand.
"""

from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction as F
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from lagext.catalog import (
    base_algebra,
    connection_for,
    instantiate,
    sample_parameters,
    table1_entries,
)
from lagext.cohomology import (
    OneCochain,
    ThreeCochain,
    TwoCochain,
    coboundary_1,
    coboundary_2,
    coboundary_image,
    cocycle_bases,
    cohomology,
    pair_list,
    triple_list,
    two_cochain_from_coefficients,
)
from lagext.connection import (
    CompletenessEvidence,
    ConnectionReport,
    FlatConnection,
    _completeness,
    _dual,
    check_flat_torsion_free,
    dual_representation,
    induced_bracket,
    is_geodesically_complete,
)
from lagext.extension import (
    CocycleError,
    ExtensionTriple,
    IntegrityError,
    NilpotencyCertificate,
    SymplecticLieAlgebra,
    build_extension,
    canonical_connection,
    d_omega,
    equivalence_map_psi,
    induced_flat_connection,
    is_lagrangian_ideal,
    symplectic_orthogonal,
)
from lagext.lie import (
    LieAlgebra,
    center,
    check_jacobi,
    derivation_space,
    lower_central_series,
    nilpotency_class,
    quotient_algebra,
    transform,
)
from lagext.lie import _freeze_tensor
from lagext.linalg import (
    ZERO,
    RatMatrix,
    Subspace,
    Vector,
    _dense,
    _pair_value,
    _quotient_rows,
    _sparse,
    is_zero_vector,
    kernel_basis,
    solve_linear,
    unit_vector,
    vec_add,
    vec_dot,
    vec_scale,
    vec_sub,
    zero_vector,
)
from lagext.sampling import random_rational, rng_for


def typed(value):
    """Nested tuples with each scalar paired with its type, so 0 != Fraction(0)."""
    if isinstance(value, (tuple, list)):
        return tuple(typed(x) for x in value)
    if isinstance(value, Subspace):
        return (value.ambient_dim, typed(value.basis), value.pivots)
    if isinstance(value, RatMatrix):
        return typed(value.entries)
    return (type(value), value)


# ---------------------------------------------------------------------------
# frozen dense implementations
# ---------------------------------------------------------------------------


def dense_bracket_vectors(algebra, x, y):
    n = algebra.dim
    out = [F(0)] * n
    for i in range(n):
        if x[i] == 0:
            continue
        for j in range(n):
            if y[j] == 0:
                continue
            coeff = x[i] * y[j]
            row = algebra.bracket[i][j]
            for k in range(n):
                if row[k] != 0:
                    out[k] += coeff * row[k]
    return tuple(out)


def dense_ad_matrix(algebra, x):
    n = algebra.dim
    cols = [dense_bracket_vectors(algebra, x, unit_vector(n, j)) for j in range(n)]
    return RatMatrix(tuple(cols)).transpose()


def dense_is_ideal(algebra, sub):
    n = algebra.dim
    return all(
        sub.contains(dense_bracket_vectors(algebra, unit_vector(n, i), v))
        for i in range(n)
        for v in sub.basis
    )


def dense_check_jacobi(algebra):
    """(1-based triple, residual) for every basis triple with a nonzero Jacobi sum."""
    n = algebra.dim
    c = algebra.bracket
    violations = []
    for i, j, k in combinations(range(n), 3):
        r = [F(0)] * n
        for a, inner_row in ((i, c[j][k]), (j, c[k][i]), (k, c[i][j])):
            for t in range(n):
                coeff = inner_row[t]
                if coeff:
                    outer = c[a][t]
                    for m in range(n):
                        if outer[m]:
                            r[m] += coeff * outer[m]
        if any(x != 0 for x in r):
            violations.append(((i + 1, j + 1, k + 1), tuple(r)))
    return tuple(violations)


def dense_lower_central_series(algebra):
    full = Subspace.full(algebra.dim)
    series = [full]
    while True:
        vectors = [
            dense_bracket_vectors(algebra, x, y) for x in full.basis for y in series[-1].basis
        ]
        nxt = Subspace.from_vectors(algebra.dim, vectors)
        if nxt.dim == series[-1].dim:
            break
        series.append(nxt)
        if nxt.dim == 0:
            break
    return tuple(series)


def dense_d_omega(s, omega=None):
    om = omega if omega is not None else s.omega
    n = s.dim
    e = [unit_vector(n, i) for i in range(n)]

    def w(x, y):
        return sum(
            (x[p] * om[p, q] * y[q] for p in range(n) if x[p] != 0 for q in range(n) if y[q] != 0),
            F(0),
        )

    out = []
    for i, j, k in combinations(range(n), 3):
        value = (
            w(e[i], dense_bracket_vectors(s.algebra, e[j], e[k]))
            + w(e[j], dense_bracket_vectors(s.algebra, e[k], e[i]))
            + w(e[k], dense_bracket_vectors(s.algebra, e[i], e[j]))
        )
        out.append(((i + 1, j + 1, k + 1), value))
    return tuple(out)


def dense_rho_matrices(rep):
    """Each rho(e_i) as a dense matrix, densified from the nonzero entries."""
    n = rep.dim
    mats = []
    for entries in rep.nonzero_entries:
        rows = [[F(0)] * n for _ in range(n)]
        for r, c, value in entries:
            rows[r][c] = value
        mats.append(RatMatrix(tuple(tuple(r) for r in rows)))
    return tuple(mats)


def dense_one_cochain_value_at(sigma, x):
    """sigma(x) for x = sum x_i e_i, summed over every entry of sigma."""
    n = sigma.dim
    out = [F(0)] * n
    for i in range(n):
        if x[i] != 0:
            for k in range(n):
                out[k] += x[i] * sigma.entries[i][k]
    return tuple(out)


def dense_value_at(alpha, x, y):
    """alpha(x, y) for x, y given in the basis, summed over the nonzero coefficients."""
    n = alpha.dim
    tensor = alpha.tensor
    out = [F(0)] * n
    for i in range(n):
        if x[i] == 0:
            continue
        for j in range(n):
            if y[j] == 0:
                continue
            coeff = x[i] * y[j]
            row = tensor[i][j]
            for k in range(n):
                if row[k] != 0:
                    out[k] += coeff * row[k]
    return tuple(out)


def dense_coboundary_1(rep, sigma):
    """(d sigma)(x,y) = rho(x) sigma(y) - rho(y) sigma(x) - sigma([x,y]), pair by pair."""
    n = rep.dim
    mats = dense_rho_matrices(rep)
    c = rep.connection.base.bracket
    values = {}
    for i, j in pair_list(n):
        term = list(mats[i].apply(sigma.value(j)))
        term2 = mats[j].apply(sigma.value(i))
        term3 = dense_one_cochain_value_at(sigma, c[i][j])
        values[(i, j)] = tuple(a - b - d for a, b, d in zip(term, term2, term3))
    return DenseTwoCochain.from_pairs(n, values)


def dense_coboundary_2(rep, alpha):
    """Residual of the degree-2 coboundary on all lex triples, triple by triple."""
    n = rep.dim
    mats = dense_rho_matrices(rep)
    c = rep.connection.base.bracket
    out = []
    for i, j, k in triple_list(n):
        v = list(mats[i].apply(alpha.value(j, k)))
        for t, x in enumerate(mats[j].apply(alpha.value(k, i))):
            v[t] += x
        for t, x in enumerate(mats[k].apply(alpha.value(i, j))):
            v[t] += x
        ei, ej, ek = (tuple(1 if s == m else 0 for s in range(n)) for m in (i, j, k))
        for t, x in enumerate(dense_value_at(alpha, ei, c[j][k])):
            v[t] += x
        for t, x in enumerate(dense_value_at(alpha, ek, c[i][j])):
            v[t] += x
        for t, x in enumerate(dense_value_at(alpha, ej, c[k][i])):
            v[t] += x
        out.append(tuple(v))
    return ThreeCochain(n, tuple(out))


@dataclass(frozen=True)
class DenseTwoCochain:
    """Alternating bilinear map into the dual: a[i][j][k] = alpha(e_i,e_j)(e_k)."""

    tensor: tuple[tuple[Vector, ...], ...]

    def __post_init__(self):
        n = self.dim
        for i in range(n):
            for j in range(i, n):
                upper, lower = self.tensor[i][j], self.tensor[j][i]
                for k in range(n):
                    a, b = upper[k], lower[k]
                    if (a or b) and a != -b:
                        raise ValueError("2-cochain tensor is not antisymmetric in (i, j)")

    @property
    def dim(self) -> int:
        return len(self.tensor)

    @staticmethod
    def zero(n: int) -> "DenseTwoCochain":
        return DenseTwoCochain(tuple(tuple(zero_vector(n) for _ in range(n)) for _ in range(n)))

    @staticmethod
    def from_pairs(n: int, values: dict[tuple[int, int], Vector]) -> "DenseTwoCochain":
        """Build from {(i, j): alpha(e_i, e_j)} with i < j, 0-based."""
        t = [[list(zero_vector(n)) for _ in range(n)] for _ in range(n)]
        for (i, j), v in values.items():
            if not 0 <= i < j < n:
                raise ValueError(f"bad pair ({i}, {j})")
            for k in range(n):
                x = v[k] if type(v[k]) is F else F(v[k])
                t[i][j][k] = x
                t[j][i][k] = -x if x else ZERO
        return DenseTwoCochain(tuple(tuple(tuple(row) for row in plane) for plane in t))

    def value(self, i: int, j: int) -> Vector:
        return self.tensor[i][j]

    def is_zero(self) -> bool:
        return all(
            is_zero_vector(row) for plane in self.tensor for row in plane
        )

    def cyclic_sum(self, i: int, j: int, k: int) -> F:
        return self.tensor[i][j][k] + self.tensor[j][k][i] + self.tensor[k][i][j]

    @property
    def is_lagrangian(self) -> bool:
        """Cyclic-sum-zero on all triples (the Bianchi condition)."""
        n = self.dim
        return all(self.cyclic_sum(i, j, k) == 0 for i, j, k in combinations(range(n), 3))

    def flatten(self) -> Vector:
        n = self.dim
        return tuple(
            self.tensor[i][j][k] for (i, j) in pair_list(n) for k in range(n)
        )

    @staticmethod
    def unflatten(n: int, v: Vector) -> "DenseTwoCochain":
        if len(v) != len(pair_list(n)) * n:
            raise ValueError("vector length does not match the 2-cochain coordinates")
        return dense_two_cochain_from_row(n, _sparse(v))

    def __sub__(self, other: "DenseTwoCochain") -> "DenseTwoCochain":
        n = self.dim
        return DenseTwoCochain(
            tuple(
                tuple(
                    tuple(
                        self.tensor[i][j][k] - other.tensor[i][j][k] for k in range(n)
                    )
                    for j in range(n)
                )
                for i in range(n)
            )
        )


def dense_two_cochain_from_row(n, row):
    """The dense 2-cochain with flattened coordinates row, {column: nonzero Fraction}."""
    pairs = pair_list(n)
    t = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for col, x in row.items():
        (i, j), k = pairs[col // n], col % n
        t[i][j][k], t[j][i][k] = x, -x
    return DenseTwoCochain(tuple(tuple(tuple(r) for r in plane) for plane in t))


def dense_two_cochain_from_coefficients(space, coefficients, n):
    """Linear combination of a flattened-cochain subspace basis, decoded densely."""
    if len(coefficients) != space.dim:
        raise ValueError("coefficient count does not match basis size")
    total = {}
    for coeff, row in zip(coefficients, space._rows):
        if coeff:
            for t, x in row.items():
                total[t] = total.get(t, ZERO) + coeff * x
    return dense_two_cochain_from_row(n, {t: x for t, x in total.items() if x})


def dense_unflatten(n, v):
    """The dense 2-cochain of flattened coordinates v, through ``from_pairs``."""
    values = {}
    for p, (i, j) in enumerate(pair_list(n)):
        values[(i, j)] = tuple(v[p * n + k] for k in range(n))
    return DenseTwoCochain.from_pairs(n, values)


def dense_extension_bracket(triple):
    """The bracket tensor of the extension: base and alpha blocks, then rho column by column."""
    conn = triple.connection
    n = conn.dim
    total = 2 * n
    c = [[[F(0)] * total for _ in range(total)] for _ in range(total)]
    base = conn.base.bracket
    tensor = triple.cocycle.tensor
    for i, j in combinations(range(n), 2):
        for k in range(n):
            c[i][j][k] = base[i][j][k]
            c[i][j][n + k] = tensor[i][j][k]
            c[j][i][k] = -base[i][j][k]
            c[j][i][n + k] = -tensor[i][j][k]
    for i, rho_i in enumerate(dense_rho_matrices(dual_representation(conn))):
        for m in range(n):
            col = rho_i.col(m)
            for t in range(n):
                c[i][n + m][n + t] = col[t]
                c[n + m][i][n + t] = -col[t]
    return _freeze_tensor(c)


def dense_rho_of(rep, x):
    n = rep.dim
    mats = dense_rho_matrices(rep)
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        if x[i] != 0:
            m = mats[i]
            for r in range(n):
                for c in range(n):
                    rows[r][c] = rows[r][c] + m[r, c] * x[i]
    return tuple(tuple(row) for row in rows)


def solved_induced_gamma(s, j):
    """gamma of induced_flat_connection, one solve_linear per (a, b)."""
    keep = j.complement_coordinates()
    n = len(keep)
    lifts = [unit_vector(s.dim, t) for t in keep]
    pairing_t = RatMatrix(
        tuple(tuple(s.omega_value(lifts[a], u) for u in j.basis) for a in range(n))
    ).transpose()
    gamma = []
    for a in range(n):
        plane = []
        for b in range(n):
            rhs = tuple(
                -s.omega_value(lifts[b], dense_bracket_vectors(s.algebra, lifts[a], u))
                for u in j.basis
            )
            plane.append(solve_linear(pairing_t, rhs))
        gamma.append(tuple(plane))
    return tuple(gamma)


def solved_canonical_gamma(s):
    """gamma of canonical_connection, one solve_linear per (i, j)."""
    n = s.dim
    omega_t = s.omega.transpose()
    e = [unit_vector(n, i) for i in range(n)]
    return tuple(
        tuple(
            solve_linear(
                omega_t,
                tuple(
                    -s.omega_value(e[jj], dense_bracket_vectors(s.algebra, e[i], e[m]))
                    for m in range(n)
                ),
            )
            for jj in range(n)
        )
        for i in range(n)
    )


def frozen_center(algebra):
    """{x : [x, e_i] = 0 for all i} as the kernel of the stacked ad action."""
    n = algebra.dim
    if n == 0:
        return Subspace.zero(0)
    rows = []
    for j in range(n):
        # row block: x -> [x, e_j], i.e. entry (k, i) = c[i][j][k]
        for k in range(n):
            rows.append(tuple(algebra.bracket[i][j][k] for i in range(n)))
    return kernel_basis(RatMatrix(tuple(rows)))


def frozen_derivation_space(algebra):
    """Kernel of D[x,y] = [Dx,y] + [x,Dy], D flattened row-major (n^2 unknowns)."""
    n = algebra.dim
    if n == 0:
        return Subspace.zero(0)
    if n == 1:
        # no bracket constraints: every endomorphism is a derivation
        return Subspace.full(1)
    c = algebra.bracket
    rows = []
    for i, j in combinations(range(n), 2):
        for k in range(n):
            # coefficient of D[a][b] in (D[e_i,e_j] - [De_i,e_j] - [e_i,De_j])_k
            row = [F(0)] * (n * n)
            for b in range(n):
                row[k * n + b] += c[i][j][b]          # (D [e_i,e_j])_k picks D[k][b]
            for a in range(n):
                row[a * n + i] -= c[a][j][k]          # [De_i, e_j]_k picks D[a][i]
                row[a * n + j] -= c[i][a][k]          # [e_i, De_j]_k picks D[a][j]
            rows.append(tuple(row))
    return kernel_basis(RatMatrix(tuple(rows)))


def frozen_omega_on_brackets(omega):
    """w(p, terms) = omega(e_p, sum of c e_q over (q, c) in terms)."""
    rows = [{q: x for q, x in enumerate(row) if x} for row in omega.entries]

    def w(p, terms):
        row = rows[p]
        return sum((row[q] * c for q, c in terms if q in row), F(0))

    return w


def frozen_sparse_solver(solver):
    """x -> solver x for x given as (index, value) pairs."""
    n = solver.rows
    columns = [[(k, v) for k, v in enumerate(solver.col(c)) if v] for c in range(solver.cols)]

    def solve(terms):
        out = [F(0)] * n
        for c, f in terms:
            if f:
                for k, v in columns[c]:
                    out[k] += f * v
        return tuple(out)

    return solve


def frozen_induced_gamma(s, j):
    """gamma of induced_flat_connection, from its own copy of the omega solve."""
    keep = j.complement_coordinates()
    n = len(keep)
    omega_rows = [s.omega.row(t) for t in keep]
    pairing = RatMatrix(tuple(tuple(vec_dot(row, u) for u in j.basis) for row in omega_rows))
    solve = frozen_sparse_solver(pairing.transpose().inverse())
    gamma = [[None] * n for _ in range(n)]
    for a in range(n):
        # [lift_a, u] for each u in J, shared by every b
        brackets = [s.algebra.bracket_vectors(unit_vector(s.dim, keep[a]), u) for u in j.basis]
        for b in range(n):
            gamma[a][b] = solve(enumerate(-vec_dot(omega_rows[b], v) for v in brackets))
    return _freeze_tensor(gamma)


def frozen_canonical_gamma(s):
    """gamma of canonical_connection, from its own copy of the omega solve."""
    n = s.dim
    solve = frozen_sparse_solver(s.omega.transpose().inverse())
    table = s.algebra.nonzero_brackets
    w = frozen_omega_on_brackets(s.omega)
    gamma = [[None] * n for _ in range(n)]
    for i in range(n):
        for jj in range(n):
            # rhs_m = -omega(e_j, [e_i, e_m]), zero where [e_i, e_m] is
            gamma[i][jj] = solve((m, -w(jj, terms)) for m, terms in enumerate(table[i]) if terms)
    return _freeze_tensor(gamma)


def frozen_psi(t1, t2, sigma):
    """The matrix of equivalence_map_psi, with its bracket and pullback checks;
    brackets are read by ``dense_bracket_vectors``."""
    n = t1.connection.dim
    total = 2 * n
    rows = []
    for r in range(n):
        rows.append(unit_vector(total, r))
    for k in range(n):
        row = [F(0)] * total
        for i in range(n):
            row[i] = sigma.entries[i][k]
        row[n + k] = F(1)
        rows.append(tuple(row))
    psi = RatMatrix(tuple(rows))

    g1 = build_extension(t1)
    g2 = build_extension(t2)
    for a in range(total):
        for b in range(a + 1, total):
            lhs = psi.apply(
                dense_bracket_vectors(g1.algebra, unit_vector(total, a), unit_vector(total, b))
            )
            rhs = dense_bracket_vectors(g2.algebra, psi.col(a), psi.col(b))
            if lhs != rhs:
                raise IntegrityError(f"bracket preservation fails at basis pair ({a+1},{b+1})")
    if sigma.is_symmetric:
        pulled = psi.transpose() @ g2.omega @ psi
        if pulled != g1.omega:
            raise IntegrityError("pullback of omega under a Lagrangian shift must be omega")
    return psi


def dense_right_mult_matrix(conn, j):
    """Matrix of y -> y . e_j (column i = nabla_{e_i} e_j)."""
    n = conn.dim
    return RatMatrix(
        tuple(tuple(conn.gamma[i][j][k] for i in range(n)) for k in range(n))
    )


def dense_nabla_of(conn, x):
    """Matrix of nabla_x, scanning every (j, k) cell of each plane x meets."""
    n = conn.dim
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        xi = x[i]
        if not xi:
            continue
        plane = conn.gamma[i]
        for j in range(n):
            row = plane[j]
            for k in range(n):
                if row[k]:
                    rows[k][j] += xi * row[k]
    return RatMatrix(tuple(tuple(r) for r in rows))


def dense_residual_columns(i, j, m):
    """((i+1, j+1, s+1), column s) for every nonzero column s of m."""
    columns = (((i + 1, j + 1, s + 1), m.col(s)) for s in range(m.cols))
    return [(key, col) for key, col in columns if not is_zero_vector(col)]


def dense_sweep(conn):
    """The torsion, curvature and associator witnesses from dense matrix products."""
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
        curvature += dense_residual_columns(i, j, commutator - dense_nabla_of(conn, c[i][j]))
        m = dense_nabla_of(conn, conn.gamma[i][j]) - dense_nabla_of(conn, conn.gamma[j][i])
        associator += dense_residual_columns(i, j, m - commutator)
    return ConnectionReport(tuple(torsion), tuple(curvature), tuple(associator))


def dense_dual(conn):
    """(rho matrices, whether rho([e_i,e_j]) = [rho_i, rho_j] holds), by dense products."""
    n = conn.dim
    mats = tuple(-conn.nabla_matrix(i).transpose() for i in range(n))

    def rho_of(x):
        total = RatMatrix.zero(n, n)
        for i in range(n):
            if x[i]:
                total = total + RatMatrix(tuple(vec_scale(x[i], row) for row in mats[i].entries))
        return total

    holds = all(
        (rho_of(conn.base.bracket[i][j]) - (mats[i] @ mats[j] - mats[j] @ mats[i])).is_zero()
        for i, j in combinations(range(n), 2)
    )
    return mats, holds


def dense_completeness(conn):
    """Traces and the Engel flag of dense matrices; right multiplication by is_nilpotent."""
    n = conn.dim
    right = [dense_right_mult_matrix(conn, j) for j in range(n)]
    traces = tuple(m.trace() for m in right)
    return CompletenessEvidence(
        complete=all(t == 0 for t in traces),
        traces=traces,
        nabla_nilindex=frozen_uniform_nilindex([conn.nabla_matrix(i) for i in range(n)]),
        right_mult_nilpotent=tuple(m.is_nilpotent() for m in right),
    )


def frozen_nonzero_directions(seed, label, n, count):
    """``count`` seeded nonzero vectors, drawn as the seeded evidence drew them."""
    rng = rng_for(seed, label)
    directions = []
    while len(directions) < count:
        v = tuple(random_rational(rng) for _ in range(n))
        if any(x != 0 for x in v):
            directions.append(v)
    return directions


def frozen_completeness(conn):
    """(complete, traces, right_mult_nilpotent, all_nilpotent) as the seeded
    evidence gave them: all_nilpotent also asked nabla_x to be nilpotent on the
    basis and on eight seeded random directions."""
    n = conn.dim
    right = [dense_right_mult_matrix(conn, j) for j in range(n)]
    traces = tuple(m.trace() for m in right)
    nabla = [conn.nabla_matrix(i) for i in range(n)]
    randoms = frozen_nonzero_directions("flat-conn-directions", conn.label or "conn", n, 8)
    right_mult_nilpotent = tuple(m.is_nilpotent() for m in right)
    all_nilpotent = (
        all(m.is_nilpotent() for m in nabla)
        and all(right_mult_nilpotent)
        and all(conn.nabla_of(x).is_nilpotent() for x in randoms)
    )
    return all(t == 0 for t in traces), traces, right_mult_nilpotent, all_nilpotent


def frozen_uniform_nilindex(matrices):
    """Smallest r with every r-fold product of the n x n matrices zero (None if none)."""
    n = matrices[0].rows
    space = Subspace.full(n)
    for r in range(n + 1):
        if space.dim == 0:
            return r
        images = [m.apply(v) for m in matrices for v in space.basis]
        nxt = Subspace.from_vectors(n, images)
        if nxt.dim >= space.dim:
            return None
        space = nxt
    return None


def frozen_uniform_rho_nilindex(rep):
    """Smallest r with every r-fold product of rho generators zero (None if none)."""
    return frozen_uniform_nilindex(dense_rho_matrices(rep))


def frozen_certificate(triple, sampled_condition_sum):
    """The certificate as the seeded code built it, before its two-path check.

    ``sampled_condition_sum(conn, rep, alpha, p)`` is the sampled path (b) for
    a nonzero cocycle; for the zero cocycle it was not called.
    """
    lcs_dims = tuple(
        s.dim for s in lower_central_series(build_extension(triple).algebra)
    )
    verdict_a = lcs_dims[-1] == 0
    conn = triple.connection
    base_class = nilpotency_class(conn.base)
    rep = dual_representation(conn)
    condition_ok = p = None
    if base_class is not None:
        rho_index = frozen_uniform_rho_nilindex(rep)
        p = max(1, base_class + (rho_index if rho_index is not None else conn.dim))
        alpha = triple.cocycle
        condition_ok = alpha.is_zero() or sampled_condition_sum(conn, rep, alpha, p)
    return NilpotencyCertificate(
        nilpotent=verdict_a,
        lcs_dims=lcs_dims,
        extension_class=len(lcs_dims) - 1 if verdict_a else None,
        base_nilpotent=base_class is not None,
        complete=frozen_completeness(conn)[0],
        condition_sum_ok=condition_ok,
        power_bound=p,
    )


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------


def assert_lie_layer_matches_dense(algebra, vectors, subspaces):
    n = algebra.dim
    units = [unit_vector(n, i) for i in range(n)]
    for x in units + vectors:
        for y in units + vectors:
            assert typed(algebra.bracket_vectors(x, y)) == typed(
                dense_bracket_vectors(algebra, x, y)
            )
    jacobi = tuple((v.triple, v.residual) for v in check_jacobi(algebra))
    assert typed(jacobi) == typed(dense_check_jacobi(algebra))
    series = lower_central_series(algebra)
    assert typed(series) == typed(dense_lower_central_series(algebra))
    for sub in list(subspaces) + list(series):
        assert algebra.is_ideal(sub) == dense_is_ideal(algebra, sub)


def assert_extension_matches_dense(ext, rng):
    n = ext.dim
    vectors = [tuple(random_rational(rng) for _ in range(n)) for _ in range(2)]
    j = ext.lagrangian_ideal
    assert_lie_layer_matches_dense(ext.algebra, vectors, [j, symplectic_orthogonal(ext, j)])
    assert typed(d_omega(ext).residuals) == typed(dense_d_omega(ext))
    assert typed(induced_flat_connection(ext, j).gamma) == typed(solved_induced_gamma(ext, j))


def assert_connection_layer_matches_dense(conn):
    """The sweep, the dual's law check and the completeness evidence, any connection."""
    report, dense = check_flat_torsion_free(conn), dense_sweep(conn)
    assert typed((report.torsion, report.curvature, report.associator)) == typed(
        (dense.torsion, dense.curvature, dense.associator)
    )
    evidence, dense = _completeness(conn), dense_completeness(conn)
    assert evidence == dense and typed(evidence.traces) == typed(dense.traces)
    mats, holds = dense_dual(conn)
    if holds:
        rep = _dual(conn)
        assert typed(dense_rho_matrices(rep)) == typed(mats)
        assert rep.nonzero_entries == tuple(
            tuple((r, c, x) for r, row in enumerate(m.entries) for c, x in enumerate(row) if x)
            for m in mats
        )
    else:
        with pytest.raises(RuntimeError, match="dual representation law failed"):
            _dual(conn)
    return report


def perturbed(conn, rng):
    """conn with one seeded cell gamma[i][j][k] moved by a nonzero rational."""
    n = conn.dim
    i, j, k = (rng.randrange(n) for _ in range(3))
    shift = F(0)
    while not shift:
        shift = random_rational(rng)
    gamma = [[list(row) for row in plane] for plane in conn.gamma]
    gamma[i][j][k] += shift
    label = f"{conn.label}+{shift}@{i},{j},{k}"
    return FlatConnection(conn.base, _freeze_tensor(gamma), label=label)


def flat_row_extensions():
    """The zero extension of each flat non-suspect catalog row, at its first sample."""
    for entry in table1_entries():
        if entry.suspect:
            continue
        conn = instantiate(entry, sample_parameters(entry, 1)[0])
        if check_flat_torsion_free(conn).ok:
            yield build_extension(ExtensionTriple.with_zero_cocycle(conn))


def test_connection_layer_matches_dense_code_on_every_catalog_sample():
    checked = flat = 0
    for entry in table1_entries():
        for sample in sample_parameters(entry, 3):
            conn = instantiate(entry, sample)
            if isinstance(conn, FlatConnection):
                flat += assert_connection_layer_matches_dense(conn).ok
                checked += 1
    assert (checked, flat) == (113, 108)


def test_connection_layer_matches_dense_code_on_canonical_and_induced_connections():
    extensions = 0
    for ext in flat_row_extensions():
        canonical = canonical_connection(ext)
        assert canonical.dim == 8
        assert assert_connection_layer_matches_dense(canonical).ok
        induced = induced_flat_connection(ext, ext.lagrangian_ideal)
        assert assert_connection_layer_matches_dense(induced).ok
        extensions += 1
    assert extensions == 64


def test_connection_layer_matches_dense_code_on_single_cell_perturbations():
    rng = rng_for(53, "sparse-oracles-perturbations")
    # Zero connections on the catalog bases give torsion whose bracket terms
    # meet planes that neither nabla_{e_i} nor nabla_{e_j} reaches.
    bases = [FlatConnection.zero(base_algebra(code)) for code in "alt"] * 4
    bases += flat_catalog_samples()
    bases += [canonical_connection(ext) for ext in list(flat_row_extensions())[::8]]
    seen = {"torsion": 0, "curvature": 0, "associator": 0, "curvature only": 0}
    for conn in bases:
        for _ in range(2):
            report = assert_connection_layer_matches_dense(perturbed(conn, rng))
            seen["torsion"] += bool(report.torsion)
            seen["curvature"] += bool(report.curvature)
            seen["associator"] += bool(report.associator)
            seen["curvature only"] += bool(report.curvature and not report.torsion)
    assert all(seen.values()), seen


# Mostly zeros: seven entries in eight are zero.
NONZERO_ENTRIES = [F(p, q) for p in range(-3, 4) if p for q in (1, 2, 3)]
sparse_entries = st.sampled_from([F(0)] * (7 * len(NONZERO_ENTRIES)) + NONZERO_ENTRIES)


def sparse_vector(n):
    return st.lists(sparse_entries, min_size=n, max_size=n).map(tuple)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_lie_layer_matches_dense_code_on_sparse_tensors(data):
    n = data.draw(st.integers(min_value=1, max_value=8))
    entries = {
        (i, j): data.draw(sparse_vector(n)) for i, j in combinations(range(n), 2)
    }
    algebra = LieAlgebra.from_brackets(n, entries, "sparse")
    vectors = data.draw(st.lists(sparse_vector(n), min_size=1, max_size=3))
    coordinates = data.draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
    subspaces = [
        Subspace.from_vectors(n, vectors),
        Subspace.from_vectors(n, [unit_vector(n, k) for k in sorted(coordinates)]),
    ]
    assert_lie_layer_matches_dense(algebra, vectors, subspaces)
    assert_kernels_match_frozen(algebra)


def flat_catalog_samples(samples=3):
    for entry in table1_entries():
        if entry.suspect:
            continue
        for sample in sample_parameters(entry, samples):
            conn = instantiate(entry, sample)
            if check_flat_torsion_free(conn).ok:
                yield conn


def test_every_flat_catalog_extension_matches_dense_code():
    rng = rng_for(41, "sparse-oracles")
    checked = 0
    for conn in flat_catalog_samples():
        ext = build_extension(ExtensionTriple.with_zero_cocycle(conn))
        assert_extension_matches_dense(ext, rng)
        assert typed(quotient_algebra(ext.algebra, ext.lagrangian_ideal).bracket) == typed(
            conn.base.bracket
        )
        rep = dual_representation(conn)
        for x in [unit_vector(conn.dim, 0), tuple(random_rational(rng) for _ in range(conn.dim))]:
            assert typed(rep.rho_of(x)) == typed(dense_rho_of(rep, x))
        checked += 1
    assert checked == 108


def test_engel_flag_evidence_matches_frozen_seeded_evidence():
    checked = 0
    for conn in flat_catalog_samples():
        evidence = is_geodesically_complete(conn)
        assert (
            evidence.complete,
            evidence.traces,
            evidence.right_mult_nilpotent,
            evidence.all_nilpotent,
        ) == frozen_completeness(conn)
        # rho = -nabla^T has the same uniform index as nabla.
        assert evidence.nabla_nilindex == frozen_uniform_rho_nilindex(dual_representation(conn))
        checked += 1
    assert checked == 108


def test_seeded_cocycle_extensions_match_dense_code():
    rng = rng_for(43, "sparse-oracles-cocycles")
    for label in ("l_26", "a_3", "t_8", "t_18", "a_10", "l_38"):
        conn = connection_for(label)
        z2, z2l = cocycle_bases(dual_representation(conn))
        for basis in (z2l, z2):
            coeffs = tuple(random_rational(rng) for _ in range(basis.dim))
            alpha = two_cochain_from_coefficients(basis, coeffs, conn.dim)
            ext = build_extension(ExtensionTriple(conn, alpha), name=f"{label}_ext")
            assert_extension_matches_dense(ext, rng)
            if basis is z2l:  # a Lagrangian cocycle keeps omega closed
                assert typed(canonical_connection(ext).gamma) == typed(
                    solved_canonical_gamma(ext)
                )


def test_eight_dimensional_canonical_connections_match_dense_code():
    rng = rng_for(47, "sparse-oracles-canonical")
    for label in ("l_26", "t_8"):
        ext = build_extension(ExtensionTriple.with_zero_cocycle(connection_for(label)))
        canonical = canonical_connection(ext)
        assert typed(canonical.gamma) == typed(solved_canonical_gamma(ext))
        algebra = canonical.base
        vectors = [tuple(random_rational(rng) for _ in range(8)) for _ in range(2)]
        assert_lie_layer_matches_dense(algebra, vectors, [ext.lagrangian_ideal])
        rep = dual_representation(canonical)
        for x in vectors + [unit_vector(8, 3)]:
            assert typed(rep.rho_of(x)) == typed(dense_rho_of(rep, x))


def test_lagrangian_ideal_verdict_is_kept_and_matches_a_fresh_classification():
    ext = build_extension(ExtensionTriple.with_zero_cocycle(connection_for("l_26")))
    verdict = is_lagrangian_ideal(ext, ext.lagrangian_ideal)
    assert verdict is is_lagrangian_ideal(ext, ext.lagrangian_ideal)
    # An equal subspace built afresh gets the kept verdict; another subspace
    # is classified on its own.
    same = Subspace.from_vectors(8, [unit_vector(8, 4 + i) for i in range(4)])
    assert is_lagrangian_ideal(ext, same) is verdict
    other = Subspace.from_vectors(8, [unit_vector(8, 0)])
    assert is_lagrangian_ideal(ext, other).status == "not_ideal"


def test_induced_connection_rejects_a_degenerate_pairing():
    # With omega = 0 every half-dimensional subspace of an abelian algebra is
    # a Lagrangian ideal by the dimension count, and the pairing is singular.
    s = SymplecticLieAlgebra(
        LieAlgebra.abelian(2), RatMatrix.zero(2, 2), Subspace.from_vectors(2, [unit_vector(2, 1)])
    )
    with pytest.raises(ValueError, match="^pairing between quotient and ideal is degenerate$"):
        induced_flat_connection(s, s.lagrangian_ideal)


def test_lower_central_series_is_kept_per_algebra():
    ext = build_extension(ExtensionTriple.with_zero_cocycle(connection_for("t_8")))
    assert lower_central_series(ext.algebra) is lower_central_series(ext.algebra)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_vec_add_and_vec_sub_match_entrywise_arithmetic(data):
    n = data.draw(st.integers(min_value=0, max_value=8))
    a, b = data.draw(sparse_vector(n)), data.draw(sparse_vector(n))
    assert typed(vec_add(a, b)) == typed(tuple(x + y for x, y in zip(a, b)))
    assert typed(vec_sub(a, b)) == typed(tuple(x - y for x, y in zip(a, b)))


def dense_combination(space, coefficients):
    """sum of c * b over the basis vectors b of space, dense."""
    total = [F(0)] * space.ambient_dim
    for coeff, basis_vec in zip(coefficients, space.basis):
        if coeff != 0:
            for t, x in enumerate(basis_vec):
                total[t] += coeff * x
    return tuple(total)


def seeded_two_cochains(conn, z2, z2l, rng):
    """Seeded cochains in Z2_L, in Z2, off Z2 along one coordinate, and dense random ones.

    Each comes paired with the ``DenseTwoCochain`` that the frozen
    constructors build from the same input, and each combination is checked
    against the dense decoding of its coordinates.
    """
    n = conn.dim
    twins = []
    for space in (z2l, z2l, z2):
        coeffs = tuple(random_rational(rng) for _ in range(space.dim))
        alpha = two_cochain_from_coefficients(space, coeffs, n)
        dense = dense_unflatten(n, dense_combination(space, coeffs))
        assert typed(alpha.tensor) == typed(dense.tensor)
        twins.append((alpha, dense_two_cochain_from_coefficients(space, coeffs, n)))
    width = len(pair_list(n)) * n
    for alpha, _ in twins[:2]:
        bump = [F(0)] * width
        bump[rng.randrange(width)] = F(rng.choice((-2, -1, 1, 3)), rng.choice((1, 2, 5)))
        moved = tuple(a + b for a, b in zip(alpha.flatten(), bump))
        twins.append((TwoCochain.unflatten(n, moved), DenseTwoCochain.unflatten(n, moved)))
    pairs = {pair: tuple(random_rational(rng) for _ in range(n)) for pair in pair_list(n)}
    twins.append((TwoCochain.from_pairs(n, pairs), DenseTwoCochain.from_pairs(n, pairs)))
    return twins


def seeded_one_cochains(n, rng):
    """A seeded 1-cochain, its symmetric part, and one matrix unit."""
    rows = [[random_rational(rng) for _ in range(n)] for _ in range(n)]
    symmetric = [[rows[i][k] + rows[k][i] for k in range(n)] for i in range(n)]
    unit = OneCochain.unit(n, rng.randrange(n), rng.randrange(n))
    return [OneCochain.from_rows(rows), OneCochain.from_rows(symmetric), unit]


def assert_differentials_match_dense(conn, rng):
    """coboundary_1, coboundary_2, CocycleError and the extension against the frozen copies.

    Returns how many of the seeded cochains were closed, not closed, Lagrangian and not.
    """
    n = conn.dim
    rep = dual_representation(conn)
    z2, z2l = cocycle_bases(rep)
    for sigma in seeded_one_cochains(n, rng):
        d1, dense = coboundary_1(rep, sigma), dense_coboundary_1(rep, sigma)
        assert typed(d1.tensor) == typed(dense.tensor)
    buildable = check_flat_torsion_free(conn).ok
    seen = Counter()
    for alpha, _ in seeded_two_cochains(conn, z2, z2l, rng):
        residual, dense = coboundary_2(rep, alpha), dense_coboundary_2(rep, alpha)
        assert typed(residual.values) == typed(dense.values)
        closed = dense.is_zero()
        seen["closed" if closed else "not closed"] += 1
        seen["Lagrangian" if alpha.is_lagrangian else "not Lagrangian"] += 1
        if buildable and not closed:
            with pytest.raises(CocycleError) as excinfo:
                build_extension(ExtensionTriple(conn, alpha))
            assert typed(excinfo.value.witnesses) == typed(dense.witnesses())
    if buildable:
        for v in [(F(0),) * z2l.ambient_dim] + list(z2l.basis):
            alpha = TwoCochain.unflatten(n, v)
            assert typed(alpha.tensor) == typed(dense_unflatten(n, v).tensor)
            triple = ExtensionTriple(conn, alpha)
            assert typed(build_extension(triple).algebra.bracket) == typed(
                dense_extension_bracket(triple)
            )
    return seen


def test_differentials_match_frozen_dense_code_on_every_catalog_sample():
    rng = rng_for(59, "sparse-oracles-differentials")
    flat = 0
    seen = Counter()
    for entry in table1_entries():
        for sample in sample_parameters(entry, 3):
            conn = instantiate(entry, sample)
            if isinstance(conn, FlatConnection) and check_flat_torsion_free(conn).flat:
                seen += assert_differentials_match_dense(conn, rng)
                flat += 1
    assert flat == 108
    assert len(seen) == 4, seen


@pytest.mark.parametrize("label", ["l_26", "t_8"])
def test_differentials_match_frozen_dense_code_on_eight_dimensional_canonical_connections(label):
    ext = build_extension(ExtensionTriple.with_zero_cocycle(connection_for(label)))
    seen = assert_differentials_match_dense(canonical_connection(ext), rng_for(61, label))
    assert len(seen) == 4, seen


def assert_kernels_match_frozen(algebra):
    """The center, the derivations and the lower central series: basis, pivots and types."""
    assert typed(center(algebra)) == typed(frozen_center(algebra))
    assert typed(derivation_space(algebra)) == typed(frozen_derivation_space(algebra))
    assert typed(lower_central_series(algebra)) == typed(dense_lower_central_series(algebra))


@pytest.mark.parametrize("n", range(4))
def test_kernels_match_frozen_code_on_abelian_algebras(n):
    algebra = LieAlgebra.abelian(n)
    assert_kernels_match_frozen(algebra)
    assert derivation_space(algebra).dim == n * n and center(algebra).dim == n


def assert_psi_matches_frozen(triple, sigma):
    rep = dual_representation(triple.connection)
    shifted = ExtensionTriple(triple.connection, triple.cocycle - coboundary_1(rep, sigma))
    psi = equivalence_map_psi(triple, shifted, sigma)
    assert typed(psi) == typed(frozen_psi(triple, shifted, sigma))


def test_nonzero_table_readers_match_frozen_code_on_every_flat_row():
    """Bases and extensions of every flat row at two samples, for the zero class
    and one seeded Z2_L class: kernels, both connections, and psi for a
    symmetric and a non-symmetric sigma."""
    rng = rng_for(67, "sparse-oracles-nonzero-table")
    checked = Counter()
    for conn in flat_catalog_samples(2):
        assert_kernels_match_frozen(conn.base)
        n = conn.dim
        _, z2l = cocycle_bases(dual_representation(conn))
        coeffs = tuple(random_rational(rng) for _ in range(z2l.dim))
        seeded = two_cochain_from_coefficients(z2l, coeffs, n)
        for alpha in (TwoCochain.zero(n), seeded):
            triple = ExtensionTriple(conn, alpha)
            ext = build_extension(triple)
            assert_kernels_match_frozen(ext.algebra)
            assert typed(canonical_connection(ext).gamma) == typed(frozen_canonical_gamma(ext))
            j = ext.lagrangian_ideal
            assert typed(induced_flat_connection(ext, j).gamma) == typed(
                frozen_induced_gamma(ext, j)
            )
            checked["extensions"] += 1
            checked["nonzero classes"] += not alpha.is_zero()
        sigma, symmetric, _ = seeded_one_cochains(n, rng)
        assert not sigma.is_symmetric and symmetric.is_symmetric
        for s in (sigma, symmetric):
            assert_psi_matches_frozen(ExtensionTriple(conn, seeded), s)
        checked["rows"] += 1
    assert checked == {"rows": 86, "extensions": 172, "nonzero classes": 86}


def assert_two_cochains_match_dense(twins):
    """Each TwoCochain against its DenseTwoCochain twin: the tensor, every value,
    the coordinates, the predicates, differences and equality, with Fraction types."""
    for alpha, dense in twins:
        n = dense.dim
        assert alpha.dim == n
        assert typed(alpha.tensor) == typed(dense.tensor)
        assert typed(alpha.flatten()) == typed(dense.flatten())
        for i, j in product(range(n), repeat=2):
            assert typed(alpha.value(i, j)) == typed(dense.value(i, j))
        assert (alpha.is_lagrangian, alpha.is_zero()) == (dense.is_lagrangian, dense.is_zero())
    # Each cochain against itself and its neighbour in the list.
    for (a, da), (b, db) in zip(twins, twins[1:] + twins[:1]):
        for (x, dx), (y, dy) in (((a, da), (a, da)), ((a, da), (b, db))):
            assert (x == y) == (dx == dy)
            assert typed((x - y).tensor) == typed((dx - dy).tensor)
            assert typed((x - y).flatten()) == typed((dx - dy).flatten())


def test_two_cochain_matches_frozen_dense_class_on_every_catalog_sample():
    rng = rng_for(71, "sparse-oracles-two-cochains")
    seen = Counter()
    for conn in flat_catalog_samples():
        z2, z2l = cocycle_bases(dual_representation(conn))
        twins = seeded_two_cochains(conn, z2, z2l, rng)
        assert_two_cochains_match_dense(twins)
        seen.update("Lagrangian" if a.is_lagrangian else "not Lagrangian" for a, _ in twins)
        seen["samples"] += 1
    assert seen["samples"] == 108 and seen["Lagrangian"] and seen["not Lagrangian"]


@pytest.mark.parametrize("n", range(4))
def test_two_cochain_matches_frozen_dense_class_in_low_dimension(n):
    """Zero cochains, and for n >= 2 seeded ones from Fractions and from ints;
    n < 3 has no triples."""
    rng = rng_for(73, f"two-cochains-{n}")
    zeros = [F(0)] * (len(pair_list(n)) * n)
    twins = [
        (TwoCochain.zero(n), DenseTwoCochain.zero(n)),
        (TwoCochain.from_pairs(n, {}), DenseTwoCochain.from_pairs(n, {})),
        (TwoCochain.unflatten(n, zeros), DenseTwoCochain.unflatten(n, zeros)),
    ]
    if n >= 2:
        pairs = {pair: tuple(random_rational(rng) for _ in range(n)) for pair in pair_list(n)}
        twins.append((TwoCochain.from_pairs(n, pairs), DenseTwoCochain.from_pairs(n, pairs)))
        ints = [rng.randint(-2, 2) for _ in zeros]
        twins.append((TwoCochain.unflatten(n, ints), DenseTwoCochain.unflatten(n, ints)))
        pairs = {pair: tuple(rng.randint(-2, 2) for _ in range(n)) for pair in pair_list(n)}
        twins.append((TwoCochain.from_pairs(n, pairs), DenseTwoCochain.from_pairs(n, pairs)))
    assert_two_cochains_match_dense(twins)
    if n < 3:
        assert all(alpha.is_lagrangian for alpha, _ in twins)


@pytest.mark.parametrize("label", ["l_26", "t_8"])
def test_cohomology_representatives_match_frozen_dense_decoding(label):
    """two_cochain_from_coefficients and the H2 and H2_L representatives of an
    8-dim rung against the dense decoding of the same coordinates."""
    ext = build_extension(ExtensionTriple.with_zero_cocycle(connection_for(label)))
    rep = dual_representation(canonical_connection(ext))
    n = rep.dim
    summary = cohomology(rep)
    z2, z2l = cocycle_bases(rep)
    rng = rng_for(79, label)
    for space in (z2, z2l):
        coeffs = tuple(random_rational(rng) for _ in range(space.dim))
        assert_two_cochains_match_dense([(
            two_cochain_from_coefficients(space, coeffs, n),
            dense_two_cochain_from_coefficients(space, coeffs, n),
        )])
    for reps, z, lagrangian in (
        (summary.h2_representatives, z2, False),
        (summary.h2_lagrangian_representatives, z2l, True),
    ):
        rows = _quotient_rows(z, coboundary_image(rep, lagrangian))
        assert len(reps) == len(rows) > 0
        assert_two_cochains_match_dense(
            [(r, dense_two_cochain_from_row(n, row)) for r, row in zip(reps, rows)]
        )


@dataclass(frozen=True)
class DenseLieAlgebra:
    """Structure-constant Lie algebra stored as its dense bracket tensor."""

    dim: int
    bracket: tuple[tuple[Vector, ...], ...]
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
    def from_brackets(dim, entries, name=""):
        c = [[list(zero_vector(dim)) for _ in range(dim)] for _ in range(dim)]
        for (i, j), v in entries.items():
            if not 0 <= i < j < dim:
                raise ValueError(f"bad bracket index pair ({i}, {j})")
            c[i][j] = _pair_value(i, j, v, dim)
            c[j][i] = [-x for x in c[i][j]]
        return DenseLieAlgebra(dim, _freeze_tensor(c), name)

    @property
    def nonzero_brackets(self):
        return tuple(
            tuple(tuple((k, x) for k, x in enumerate(row) if x) for row in plane)
            for plane in self.bracket
        )


def frozen_extension_algebra(triple):
    """The extension's bracket tensor as ``_build`` assembled it, unchecked."""
    conn = triple.connection
    rep = dual_representation(conn)
    n = conn.dim
    total = 2 * n
    c = [[list(zero_vector(total)) for _ in range(total)] for _ in range(total)]
    base = conn.base.bracket
    alpha = triple.cocycle.values
    for p, (i, j) in enumerate(combinations(range(n), 2)):
        for k in range(n):
            c[i][j][k] = base[i][j][k]
            c[i][j][n + k] = alpha[p * n + k]
            c[j][i][k] = -base[i][j][k]
            c[j][i][n + k] = -alpha[p * n + k]
    for i, entries in enumerate(rep.nonzero_entries):
        for t, m, value in entries:
            c[i][n + m][n + t] = value
            c[n + m][i][n + t] = -value
    return DenseLieAlgebra(total, _freeze_tensor(c), f"ext({conn.label or 'conn'})")


def frozen_quotient(algebra, ideal, name=""):
    keep = ideal.complement_coordinates()
    m = len(keep)
    table = algebra.nonzero_brackets
    c = [[list(zero_vector(m)) for _ in range(m)] for _ in range(m)]
    for a in range(m):
        for b in range(m):
            terms = table[keep[a]][keep[b]]
            if terms:
                w = ideal.reduce(_dense(dict(terms), algebra.dim))
                for t in range(m):
                    c[a][b][t] = w[keep[t]]
    return DenseLieAlgebra(m, _freeze_tensor(c), name)


def frozen_induced_bracket(conn, name=""):
    n = conn.dim
    c = [
        [[conn.gamma[i][j][k] - conn.gamma[j][i][k] for k in range(n)] for j in range(n)]
        for i in range(n)
    ]
    return DenseLieAlgebra(n, _freeze_tensor(c), name)


def frozen_transform(algebra, p, name=""):
    n = algebra.dim
    p_inv = p.inverse()
    cols = [p.col(j) for j in range(n)]
    c = [
        [list(p_inv.apply(algebra.bracket_vectors(cols[a], cols[b]))) for b in range(n)]
        for a in range(n)
    ]
    return DenseLieAlgebra(n, _freeze_tensor(c), name)


def seeded_unitriangular(n, rng):
    """I plus seeded entries above the diagonal, one in three nonzero: invertible."""
    return RatMatrix.from_rows([
        [F(1) if a == b else F(rng.choice((0, 0, 0, 0, 1, -1))) / 2 if a < b else F(0)
         for b in range(n)]
        for a in range(n)
    ])


def assert_fraction_tensor(tensor):
    assert all(type(x) is F for plane in tensor for row in plane for x in row)


def assert_algebras_match_dense(twins):
    """Each LieAlgebra against its DenseLieAlgebra twin: the dense view, the
    n x n table and the name, with Fraction types; equality and hashes."""
    for algebra, dense in twins:
        assert (algebra.dim, algebra.name) == (dense.dim, dense.name)
        assert algebra.bracket == dense.bracket
        assert_fraction_tensor(algebra.bracket)
        assert_fraction_tensor(dense.bracket)
        assert typed(algebra.nonzero_brackets) == typed(dense.nonzero_brackets)
        # A canonical table (k ascending, no zero c) makes table equality
        # the same as tensor equality.
        for terms in algebra.pairs:
            ks = [k for k, _ in terms]
            assert ks == sorted(set(ks)) and all(type(c) is F and c for _, c in terms)
        for copy in (replace(algebra), algebra.rename(algebra.name)):
            assert copy == algebra and hash(copy) == hash(algebra)
            assert copy.bracket == algebra.bracket
    for (a, da), (b, db) in zip(twins, twins[1:] + twins[:1]):
        assert (a == b) == (da == db)
        assert a != b or hash(a) == hash(b)


def lie_twins(algebra, dense, rng):
    """The pair itself and its seeded change of basis, each with its dense twin."""
    p = seeded_unitriangular(algebra.dim, rng)
    moved = (transform(algebra, p, "moved"), frozen_transform(algebra, p, "moved"))
    return [(algebra, dense), moved]


BASE_ENTRIES = {
    "a": {},
    "l": {(0, 1): (0, 0, 1, 0)},
    "t": {(0, 3): (0, -1, 0, 0), (1, 3): (0, 0, -1, 0)},
}


def test_lie_algebra_matches_frozen_dense_class_on_every_flat_catalog_sample():
    """The bases, the zero-class and one seeded-class extension of every flat
    sample, their quotients by the Lagrangian ideal, the induced brackets, and
    a seeded change of basis of the bases and of every eighth sample's extensions."""
    rng = rng_for(83, "sparse-oracles-lie-algebra")
    twins = []
    for code, entries in BASE_ENTRIES.items():
        dense = DenseLieAlgebra.from_brackets(4, entries, code)
        twins += lie_twins(base_algebra(code), dense, rng)
        assert base_algebra(code) == LieAlgebra.from_brackets(4, entries, code)
    seen = Counter()
    for conn in flat_catalog_samples():
        n = conn.dim
        twins.append((induced_bracket(conn, "induced"), frozen_induced_bracket(conn, "induced")))
        _, z2l = cocycle_bases(dual_representation(conn))
        coeffs = tuple(random_rational(rng) for _ in range(z2l.dim))
        for alpha in (TwoCochain.zero(n), two_cochain_from_coefficients(z2l, coeffs, n)):
            triple = ExtensionTriple(conn, alpha)
            ext = build_extension(triple)
            twin = (ext.algebra, frozen_extension_algebra(triple))
            twins += lie_twins(*twin, rng) if seen["samples"] % 8 == 0 else [twin]
            j = ext.lagrangian_ideal
            quotient = quotient_algebra(ext.algebra, j, conn.base.name)
            assert quotient == conn.base
            twins.append((quotient, frozen_quotient(ext.algebra, j, conn.base.name)))
            seen["nonzero classes"] += not alpha.is_zero()
        seen["samples"] += 1
    assert seen == {"samples": 108, "nonzero classes": 108}
    assert_algebras_match_dense(twins)


@pytest.mark.parametrize("n", range(4))
def test_lie_algebra_matches_frozen_dense_class_in_low_dimension(n):
    """Abelian algebras, seeded brackets from Fractions and from ints, their
    induced brackets and changes of basis, and quotients by the center."""
    rng = rng_for(89, f"lie-algebra-{n}")
    pairs = list(combinations(range(n), 2))
    inputs = [
        {},
        {pair: tuple(random_rational(rng) for _ in range(n)) for pair in pairs},
        {pair: tuple(rng.randint(-1, 1) for _ in range(n)) for pair in pairs},
    ]
    twins = []
    for entries in inputs:
        algebra = LieAlgebra.from_brackets(n, entries, "low")
        twins += lie_twins(algebra, DenseLieAlgebra.from_brackets(n, entries, "low"), rng)
        gamma = {
            pair: tuple(rng.randint(-1, 1) for _ in range(n)) for pair in product(range(n), repeat=2)
        }
        conn = FlatConnection.from_entries(algebra, gamma)
        twins.append((induced_bracket(conn), frozen_induced_bracket(conn)))
    for algebra in (LieAlgebra.abelian(n), LieAlgebra.from_brackets(n, inputs[1])):
        if check_jacobi(algebra) == ():
            z = center(algebra)
            twins.append((quotient_algebra(algebra, z), frozen_quotient(algebra, z)))
    assert_algebras_match_dense(twins)
