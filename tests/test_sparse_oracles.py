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

``DenseFlatConnection`` and ``frozen_table_induced_bracket`` are the flat
connection as it was before it was stored as its nonzero gamma table: the
dense n^3 tensor with its shape scan, built by ``from_entries`` through
``freeze_tensor``, the table derived back from it, and the induced bracket
read off the dense tensor.

``frozen_one_cochain_basis``, ``frozen_symmetric_one_cochain_basis``,
``frozen_coboundary_1_images``, ``frozen_matrix_of_coboundary_1``,
``frozen_coboundary_image`` and ``frozen_solve_coboundary`` are the d1 path
as it was before the C^1 bases became sparse coordinate rows: dense
``OneCochain`` bases, their images densified into the d1 matrix, and the
coboundary solve by ``solve_linear`` on that matrix.  ``frozen_adjusted_form``
is the adjusted symplectic form as the dense pullback psi^T omega psi.
``dense_lower_central_series`` and ``frozen_uniform_nilindex`` are dense
references for the two readings of ``lie.descending_flag``, the lower
central series and the uniform nilindex.

``DenseSubspace``, ``frozen_subspace``, ``frozen_from_vectors`` and
``frozen_full`` are the subspace as it was before it was stored as its
sparse echelon rows: the dense basis and the pivots written out beside
them.  ``frozen_standard_omega``, ``frozen_check_omega``,
``frozen_d_omega``, ``frozen_omega_value``, ``frozen_symplectic_orthogonal``,
``frozen_classify_ideal``, ``frozen_reduce_quotient``,
``frozen_symplectic_reduction`` and ``frozen_build_omega`` are the
symplectic layer as it was before omega was stored as its pair coordinates:
the dense 2n x 2n form with its antisymmetry scan, the orthogonal by
``kernel_basis`` of dense ``apply`` images, an ideal check on the orthogonal
and another on J, the quotient reduced at ambient width, and the reduced
and spec-file forms as dense matrices.

``frozen_eliminate`` (with ``frozen_kernel``), ``frozen_sweep``,
``frozen_check_jacobi`` and ``frozen_d_omega_result`` are the exact kernels
as they were before they ran on Python ints: every inner product a
``Fraction`` operation, the elimination normalising each pivot row as it
goes, and each residual summed over the rational tables.

``frozen_vector_omega_solve``, ``frozen_vector_orthogonal``,
``frozen_vector_classify``, ``frozen_vector_classify_and_reduce``,
``frozen_vector_psi``, ``frozen_vector_adjusted_form`` and
``frozen_vector_bracket_of_subspaces`` are the symplectic maps as they were
before a linear map was read as its sparse columns: psi and the lifts of a
reduction as dense columns, J and its orthogonal through their dense bases,
and every omega value and bracket of vectors by its own loop, here the
frozen ``frozen_omega_value`` and ``dense_bracket_vectors``.
"""

import importlib
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction as F
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from lagext import specfile
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
    _one_cochain_rows,
    coboundary_1,
    coboundary_2,
    coboundary_image,
    cocycle_bases,
    cohomology,
    pair_list,
    solve_coboundary,
    triple_list,
    two_cochain_from_coefficients,
)
from lagext.connection import (
    CompletenessEvidence,
    ConnectionReport,
    FlatConnection,
    _completeness,
    _dual,
    _uniform_nilindex,
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
    _omega_solve,
    adjusted_symplectic_form,
    build_extension,
    canonical_connection,
    classify_and_reduce,
    d_omega,
    equivalence_map_psi,
    induced_flat_connection,
    dual_subspace,
    is_lagrangian_ideal,
    standard_form,
    symplectic_orthogonal,
    symplectic_reduction,
)
from lagext.lie import (
    LieAlgebra,
    _images,
    bracket_of_subspaces,
    center,
    check_jacobi,
    derivation_space,
    descending_flag,
    lower_central_series,
    nilpotency_class,
    quotient_algebra,
    require_jacobi,
    transform,
)
from lagext.linalg import (
    ZERO,
    RatMatrix,
    Subspace,
    Vector,
    _dense,
    _eliminate,
    _kernel,
    _pair_value,
    _quotient_rows,
    _sparse,
    _subspace,
    fmt_vector,
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

# ``lagext.cohomology`` the attribute is the function; this is the module.
cohomology_module = importlib.import_module("lagext.cohomology")
linalg_module = importlib.import_module("lagext.linalg")


def typed(value):
    """Nested tuples with each scalar paired with its type, so 0 != Fraction(0)."""
    if isinstance(value, (tuple, list)):
        return tuple(typed(x) for x in value)
    if isinstance(value, (Subspace, DenseSubspace)):
        return (value.ambient_dim, typed(value.basis), value.pivots)
    if isinstance(value, RatMatrix):
        return typed(value.entries)
    return (type(value), value)


# ---------------------------------------------------------------------------
# frozen dense implementations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DenseSubspace:
    """A subspace as it was before it was stored as its sparse echelon rows: the
    dense reduced-echelon basis beside its pivots, both written out in full."""

    ambient_dim: int
    basis: tuple = ()
    pivots: tuple = ()

    @property
    def dim(self):
        return len(self.basis)

    def reduce(self, v):
        w = list(v)
        for row, p in zip(self.basis, self.pivots):
            f = w[p]
            if f:
                for j, b in enumerate(row):
                    if b:
                        w[j] -= f * b
        return tuple(w)


def frozen_subspace(ambient_dim, rows):
    """The span of sparse rows (consumed), each basis row written out at ambient width."""
    kept = _eliminate(rows)
    pivots = sorted(kept)
    return DenseSubspace(
        ambient_dim, tuple(_dense(kept[p], ambient_dim) for p in pivots), tuple(pivots)
    )


def frozen_from_vectors(ambient_dim, vectors):
    vectors = [tuple(v) for v in vectors]
    if any(len(v) != ambient_dim for v in vectors):
        raise ValueError("vector length does not match ambient dimension")
    return frozen_subspace(ambient_dim, [_sparse(v) for v in vectors])


def frozen_full(n):
    return DenseSubspace(n, tuple(unit_vector(n, i) for i in range(n)), tuple(range(n)))



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
    for coeff, row in zip(coefficients, space.rows):
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
    return freeze_tensor(c)


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
        tuple(tuple(frozen_omega_value(s.omega, lifts[a], u) for u in j.basis) for a in range(n))
    ).transpose()
    gamma = []
    for a in range(n):
        plane = []
        for b in range(n):
            rhs = tuple(
                -frozen_omega_value(s.omega, lifts[b], dense_bracket_vectors(s.algebra, lifts[a], u))
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
                    -frozen_omega_value(s.omega, e[jj], dense_bracket_vectors(s.algebra, e[i], e[m]))
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
        brackets = [dense_bracket_vectors(s.algebra, unit_vector(s.dim, keep[a]), u) for u in j.basis]
        for b in range(n):
            gamma[a][b] = solve(enumerate(-vec_dot(omega_rows[b], v) for v in brackets))
    return freeze_tensor(gamma)


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
    return freeze_tensor(gamma)


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


def dense_nabla_matrix(conn, i):
    """Matrix of nabla_{e_i} (column j = image of e_j)."""
    n = conn.dim
    return RatMatrix(
        tuple(tuple(conn.gamma[i][j][k] for j in range(n)) for k in range(n))
    )


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
    nabla = [dense_nabla_matrix(conn, i) for i in range(n)]
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
    mats = tuple(-dense_nabla_matrix(conn, i).transpose() for i in range(n))

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
        nabla_nilindex=frozen_uniform_nilindex([dense_nabla_matrix(conn, i) for i in range(n)]),
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
    nabla = [dense_nabla_matrix(conn, i) for i in range(n)]
    randoms = frozen_nonzero_directions("flat-conn-directions", conn.label or "conn", n, 8)
    right_mult_nilpotent = tuple(m.is_nilpotent() for m in right)
    all_nilpotent = (
        all(m.is_nilpotent() for m in nabla)
        and all(right_mult_nilpotent)
        and all(dense_nabla_of(conn, x).is_nilpotent() for x in randoms)
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
    return shifted(conn, {(i, j, k): shift}, f"{conn.label}+{shift}@{i},{j},{k}")


def shifted(conn, shifts, label="shifted"):
    """conn with each cell gamma[i][j][k] of {(i, j, k): shift} moved by its shift."""
    gamma = {
        (a, b): list(row) for a, plane in enumerate(conn.gamma) for b, row in enumerate(plane)
    }
    for (i, j, k), shift in shifts.items():
        gamma[i, j][k] += shift
    return FlatConnection.from_entries(conn.base, gamma, label=label)


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
        LieAlgebra.abelian(2), (F(0),), Subspace.from_vectors(2, [unit_vector(2, 1)])
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


def freeze_tensor(c):
    """A nested list of scalars as tuples of Fractions, as the dense builders froze it."""
    return tuple(
        tuple(tuple(x if type(x) is F else F(x) for x in row) for row in plane)
        for plane in c
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
        return DenseLieAlgebra(dim, freeze_tensor(c), name)

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
    return DenseLieAlgebra(total, freeze_tensor(c), f"ext({conn.label or 'conn'})")


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
    return DenseLieAlgebra(m, freeze_tensor(c), name)


def frozen_induced_bracket(conn, name=""):
    n = conn.dim
    c = [
        [[conn.gamma[i][j][k] - conn.gamma[j][i][k] for k in range(n)] for j in range(n)]
        for i in range(n)
    ]
    return DenseLieAlgebra(n, freeze_tensor(c), name)


def frozen_transform(algebra, p, name=""):
    n = algebra.dim
    p_inv = p.inverse()
    cols = [p.col(j) for j in range(n)]
    c = [
        [list(p_inv.apply(dense_bracket_vectors(algebra, cols[a], cols[b]))) for b in range(n)]
        for a in range(n)
    ]
    return DenseLieAlgebra(n, freeze_tensor(c), name)


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


@dataclass(frozen=True)
class DenseFlatConnection:
    """Connection stored as its dense gamma tensor, the table derived from it."""

    base: LieAlgebra
    gamma: tuple[tuple[Vector, ...], ...]
    params: tuple[tuple[str, F], ...] = ()
    label: str = ""

    def __post_init__(self):
        n = self.base.dim
        g = self.gamma
        if len(g) != n or any(len(p) != n for p in g) or any(
            len(row) != n for p in g for row in p
        ):
            raise ValueError("gamma tensor shape does not match base dimension")

    @staticmethod
    def from_entries(base, entries, params=(), label=""):
        n = base.dim
        g = [[list(zero_vector(n)) for _ in range(n)] for _ in range(n)]
        for (i, j), v in entries.items():
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"bad connection index pair ({i}, {j})")
            g[i][j] = _pair_value(i, j, v, n)
        return DenseFlatConnection(base, freeze_tensor(g), params, label)

    @property
    def dim(self):
        return self.base.dim

    @property
    def nonzero_gamma(self):
        return tuple(
            tuple(tuple((k, v) for k, v in enumerate(col) if v) for col in plane)
            for plane in self.gamma
        )


def frozen_table_induced_bracket(conn, name=""):
    """induced_bracket as it read the dense tensor, through ``from_brackets``."""
    n = conn.dim
    g = conn.gamma
    entries = {
        (i, j): [g[i][j][k] - g[j][i][k] for k in range(n)] for i, j in combinations(range(n), 2)
    }
    return LieAlgebra.from_brackets(n, entries, name)


def assert_canonical_table(table, n):
    """k strictly ascending in range(n) and every value a nonzero Fraction."""
    for terms in table:
        ks = [k for k, _ in terms]
        assert ks == sorted(set(ks)) and all(0 <= k < n for k in ks), terms
        assert all(type(v) is F and v for _, v in terms), terms


def assert_connections_match_dense(twins):
    """Each FlatConnection against its DenseFlatConnection twin: the dense view,
    the table, the fields and the induced bracket, with Fraction types; equality
    and hashes of each with a copy and with its neighbour in the list."""
    for conn, dense in twins:
        assert (conn.base, conn.params, conn.label) == (dense.base, dense.params, dense.label)
        assert typed(conn.gamma) == typed(dense.gamma)
        assert_fraction_tensor(conn.gamma)
        assert typed(conn.nonzero_gamma) == typed(dense.nonzero_gamma)
        for plane in conn.nonzero_gamma:
            assert_canonical_table(plane, conn.dim)
        induced = induced_bracket(conn, "induced")
        assert typed(induced.pairs) == typed(frozen_table_induced_bracket(dense, "induced").pairs)
        assert_canonical_table(induced.pairs, conn.dim)
        copy = replace(conn)
        assert copy == conn and hash(copy) == hash(conn)
    for (a, da), (b, db) in zip(twins, twins[1:] + twins[:1]):
        assert (a == b) == (da == db)
        assert a != b or hash(a) == hash(b)


def catalog_twin(entry, sample, monkeypatch):
    """A catalog sample and the same spec-file cells built by the dense class."""
    conn = instantiate(entry, sample)
    with monkeypatch.context() as patch:
        patch.setattr(specfile, "FlatConnection", DenseFlatConnection)
        dense = instantiate(entry, sample)
    return conn, dense


def test_flat_connection_matches_frozen_dense_class_on_every_flat_catalog_sample(monkeypatch):
    """Every flat sample at 3 samples, and the canonical and induced connections
    of its zero-class and seeded-Z2_L-class extensions."""
    rng = rng_for(97, "sparse-oracles-flat-connection")
    twins = []
    seen = Counter()
    for entry in table1_entries():
        if entry.suspect:
            continue
        for sample in sample_parameters(entry, 3):
            conn, dense = catalog_twin(entry, sample, monkeypatch)
            if not check_flat_torsion_free(conn).ok:
                continue
            assert type(dense) is DenseFlatConnection
            twins.append((conn, dense))
            n = conn.dim
            _, z2l = cocycle_bases(dual_representation(conn))
            coeffs = tuple(random_rational(rng) for _ in range(z2l.dim))
            for alpha in (TwoCochain.zero(n), two_cochain_from_coefficients(z2l, coeffs, n)):
                ext = build_extension(ExtensionTriple(conn, alpha))
                canonical = canonical_connection(ext)
                twins.append((canonical, DenseFlatConnection(
                    ext.algebra, frozen_canonical_gamma(ext), label=canonical.label
                )))
                j = ext.lagrangian_ideal
                induced = induced_flat_connection(ext, j)
                twins.append((induced, DenseFlatConnection(
                    induced.base, frozen_induced_gamma(ext, j), label=induced.label
                )))
                seen["nonzero classes"] += not alpha.is_zero()
            seen["samples"] += 1
    assert seen == {"samples": 108, "nonzero classes": 108}
    assert_connections_match_dense(twins)


@pytest.mark.parametrize("n", range(4))
def test_flat_connection_matches_frozen_dense_class_in_low_dimension(n):
    """The zero connection on the abelian algebra, and seeded entries from
    Fractions and from ints over it."""
    rng = rng_for(101, f"flat-connection-{n}")
    base = LieAlgebra.abelian(n)
    cells = list(product(range(n), repeat=2))
    inputs = [
        {},
        {cell: tuple(random_rational(rng) for _ in range(n)) for cell in cells},
        {cell: tuple(rng.randint(-1, 1) for _ in range(n)) for cell in cells},
    ]
    zero = DenseFlatConnection.from_entries(base, {}, label="zero")
    twins = [(FlatConnection.zero(base, "zero"), zero)]
    for entries in inputs:
        twins.append((
            FlatConnection.from_entries(base, entries, (("mu", F(n)),), "low"),
            DenseFlatConnection.from_entries(base, entries, (("mu", F(n)),), "low"),
        ))
    assert_connections_match_dense(twins)


# ---------------------------------------------------------------------------
# the dense d1 path and the two flag loops
# ---------------------------------------------------------------------------


def frozen_one_cochain_basis(n):
    """Matrix units in row-major order (the canonical C^1 coordinates)."""
    return [OneCochain.unit(n, i, k) for i in range(n) for k in range(n)]


def frozen_symmetric_one_cochain_basis(n):
    """Basis of C^1_L: E_ii, then E_ik + E_ki for i < k, lex order."""
    basis = []
    for i in range(n):
        for k in range(i, n):
            rows = [[F(0)] * n for _ in range(n)]
            rows[i][k] = F(1)
            rows[k][i] = F(1)
            basis.append(OneCochain.from_rows(rows))
    return basis


def frozen_coboundary_1_images(rep, basis):
    """Flattened d(sigma) for each dense 1-cochain sigma in basis, as sparse rows."""
    n = rep.dim
    pairs = pair_list(n)
    blocks = {}
    for p, (i, j) in enumerate(pairs):
        blocks[(i, j)] = (p * n, 1)
        blocks[(j, i)] = (p * n, -1)
    rho_cols = [[[(t, v) for t, c, v in entries if c == b] for b in range(n)]
                for entries in rep.nonzero_entries]
    bracket_into = [[] for _ in range(n)]
    table = rep.connection.base.nonzero_brackets
    for p, (i, j) in enumerate(pairs):
        for a, coeff in table[i][j]:
            bracket_into[a].append((p * n, coeff))
    images = []
    for sigma in basis:
        col = {}
        for a, row in enumerate(sigma.entries):
            for b, v in enumerate(row):
                if not v:
                    continue
                for x in range(n):
                    if x == a:
                        continue
                    start, sign = blocks[(x, a)]
                    for t, value in rho_cols[x][b]:
                        col[start + t] = col.get(start + t, ZERO) + sign * v * value
                for start, coeff in bracket_into[a]:
                    col[start + b] = col.get(start + b, ZERO) - v * coeff
        images.append({j: x for j, x in col.items() if x})
    return images


def frozen_matrix_of_coboundary_1(rep, basis=None):
    """Columns = flattened images of the given C^1 basis (default: matrix units)."""
    if basis is None:
        basis = frozen_one_cochain_basis(rep.dim)
    width = len(pair_list(rep.dim)) * rep.dim
    return RatMatrix(
        tuple(_dense(r, width) for r in frozen_coboundary_1_images(rep, basis))
    ).transpose()


def frozen_d1_basis(n, lagrangian):
    return frozen_symmetric_one_cochain_basis(n) if lagrangian else frozen_one_cochain_basis(n)


def frozen_coboundary_image(rep, lagrangian):
    """B^2 (or B^2_L): the span of the columns of the dense d1 matrix."""
    width = len(pair_list(rep.dim)) * rep.dim
    return _subspace(width, frozen_coboundary_1_images(rep, frozen_d1_basis(rep.dim, lagrangian)))


def frozen_solve_coboundary(rep, alpha, beta, lagrangian_only=False):
    """sigma with beta = alpha - d(sigma), by ``solve_linear`` on the dense d1 matrix."""
    n = rep.dim
    basis = frozen_d1_basis(n, lagrangian_only)
    m = frozen_matrix_of_coboundary_1(rep, basis)
    target = (alpha - beta).flatten()
    coeffs = solve_linear(m, target)
    if coeffs is None:
        return None
    rows = [[ZERO] * n for _ in range(n)]
    for coeff, cochain in zip(coeffs, basis):
        if coeff != 0:
            for i in range(n):
                for k in range(n):
                    rows[i][k] += coeff * cochain.entries[i][k]
    return OneCochain.from_rows(rows)


def typed_cochain(sigma):
    return typed(None if sigma is None else sigma.entries)


@pytest.mark.parametrize("n", range(5))
def test_one_cochain_rows_are_the_frozen_bases(n):
    for lagrangian in (False, True):
        rows = _one_cochain_rows(n, lagrangian)
        assert rows == [_sparse(s.flatten()) for s in frozen_d1_basis(n, lagrangian)]
        assert all(type(x) is F for row in rows for x in row.values())


def d1_targets(rep, rng):
    """(alpha, beta) pairs: shifts by seeded sigmas of three Z2 classes, and
    pairs that are not cohomologous (an H2 representative; a non-cocycle)."""
    n = rep.dim
    z2, z2l = cocycle_bases(rep)
    alphas = [TwoCochain.zero(n)]
    for space in (z2l, z2):
        coeffs = tuple(random_rational(rng) for _ in range(space.dim))
        alphas.append(two_cochain_from_coefficients(space, coeffs, n))
    pairs = [
        (alpha, alpha - coboundary_1(rep, sigma))
        for alpha in alphas
        for sigma in seeded_one_cochains(n, rng)
    ]
    summary = cohomology(rep)
    for r in summary.h2_representatives[:1] + summary.h2_lagrangian_representatives[:1]:
        pairs.append((r, TwoCochain.zero(n)))
    off = {pair: tuple(random_rational(rng) for _ in range(n)) for pair in pair_list(n)}
    pairs.append((TwoCochain.from_pairs(n, off), TwoCochain.zero(n)))
    return pairs


def assert_d1_matches_frozen(rep, rng, monkeypatch):
    """B^2, B^2_L, the cohomology summary and every solve against the dense d1 path.

    Returns how often each flag found a sigma and how often it found none.
    """
    for lagrangian in (False, True):
        assert typed(coboundary_image(rep, lagrangian)) == typed(
            frozen_coboundary_image(rep, lagrangian)
        )
    summary = cohomology(rep)
    with monkeypatch.context() as m:
        m.setattr(cohomology_module, "coboundary_image", frozen_coboundary_image)
        assert repr(summary) == repr(cohomology(rep))
    seen = Counter()
    for alpha, beta in d1_targets(rep, rng):
        for flag in (False, True):
            sigma = solve_coboundary(rep, alpha, beta, flag)
            assert typed_cochain(sigma) == typed_cochain(
                frozen_solve_coboundary(rep, alpha, beta, flag)
            )
            seen[flag, sigma is None] += 1
    return seen


def test_d1_matches_frozen_dense_path_on_every_flat_sample_and_canonical_connection(monkeypatch):
    rng = rng_for(103, "sparse-oracles-d1")
    reps = [dual_representation(conn) for conn in flat_catalog_samples()]
    for label in ("l_26", "t_8"):
        ext = build_extension(ExtensionTriple.with_zero_cocycle(connection_for(label)))
        reps.append(dual_representation(canonical_connection(ext)))
    seen = Counter()
    for rep in reps:
        seen += assert_d1_matches_frozen(rep, rng, monkeypatch)
    assert len(reps) == 110
    # Both flags find a sigma and find none.
    assert len(seen) == 4, seen


@pytest.mark.parametrize("n", [0, 3])
def test_solve_coboundary_matches_frozen_on_the_zero_representation(n):
    rep = dual_representation(FlatConnection.zero(LieAlgebra.abelian(n)))
    zero = TwoCochain.zero(n)
    unit = TwoCochain.unflatten(n, [F(int(c == 0)) for c in range(len(pair_list(n)) * n)])
    for alpha in [zero, unit] if n else [zero]:
        for flag in (False, True):
            assert typed_cochain(solve_coboundary(rep, alpha, zero, flag)) == typed_cochain(
                frozen_solve_coboundary(rep, alpha, zero, flag)
            )


def test_solve_coboundary_raises_as_the_frozen_path_on_a_cochain_of_another_dimension():
    """The frozen path names the linear system it solves; the live one names the
    cochain, as coboundary_1 and coboundary_2 do, for alpha and for beta."""
    rep = dual_representation(connection_for("l_26"))
    other, same = TwoCochain.zero(3), TwoCochain.zero(4)
    with pytest.raises(ValueError, match="^right-hand side length does not match row count$"):
        frozen_solve_coboundary(rep, other, other)
    for alpha, beta in ((other, other), (other, same), (same, other)):
        with pytest.raises(
            ValueError, match="^cochain dimension does not match the representation$"
        ):
            solve_coboundary(rep, alpha, beta)


def zero_columns(n):
    """An operator on Q^n that is zero, as its n empty columns."""
    return ((),) * n


@pytest.mark.parametrize("n", range(4))
def test_descending_flag_on_no_operators_and_zero_operators(n):
    """n = 0, no operators and zero operators: the flag is Q^n, then 0 if n > 0,
    the series of the abelian algebra, and the index is that of a zero matrix."""
    abelian = dense_lower_central_series(LieAlgebra.abelian(n))
    for operators in ((), (zero_columns(n),), (zero_columns(n),) * 2):
        flag = descending_flag(operators, n)
        assert typed(flag) == typed(abelian)
        assert len(flag) - 1 == frozen_uniform_nilindex([RatMatrix.zero(n, n)])
    assert typed(descending_flag(LieAlgebra.abelian(n).nonzero_brackets, n)) == typed(abelian)
    assert _uniform_nilindex([zero_columns(n)]) == frozen_uniform_nilindex([RatMatrix.zero(n, n)])
    # No operators at all: the index of the empty set is 0, as n is read off them.
    assert _uniform_nilindex([]) == 0


def frozen_adjusted_form(triple, sigma, sigma_l):
    """The adjusted form as the dense pullback psi^T omega psi of the standard form."""
    rep = dual_representation(triple.connection)
    t_bar = ExtensionTriple(triple.connection, triple.cocycle - coboundary_1(rep, sigma))
    t_hat = ExtensionTriple(triple.connection, triple.cocycle - coboundary_1(rep, sigma_l))
    psi = frozen_psi(t_bar, t_hat, sigma_l - sigma)
    return psi.transpose() @ frozen_standard_omega(triple.connection.dim) @ psi


def test_pullbacks_match_frozen_dense_products_on_every_flat_row():
    """equivalence_map_psi with a symmetric and a non-symmetric sigma, and the
    adjusted form, against the dense products, on every flat row's zero class."""
    rng = rng_for(107, "sparse-oracles-pullback")
    checked = 0
    for conn in flat_catalog_samples(1):
        triple = ExtensionTriple.with_zero_cocycle(conn)
        sigma, symmetric, _ = seeded_one_cochains(conn.dim, rng)
        for s in (sigma, symmetric):
            assert_psi_matches_frozen(triple, s)
        assert typed(adjusted_symplectic_form(triple, sigma, symmetric)) == typed(
            frozen_adjusted_form(triple, sigma, symmetric)
        )
        checked += 1
    assert checked == 64


# ---------------------------------------------------------------------------
# the subspace as its sparse rows, omega as its pair coordinates
# ---------------------------------------------------------------------------


def frozen_standard_omega(n):
    """[[0, -I], [I, 0]] on (e_1..e_n, e^1..e^n)."""
    one = F(1)
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


def frozen_check_omega(algebra, omega):
    """The shape and antisymmetry checks of the dense SymplecticLieAlgebra constructor."""
    n = algebra.dim
    if omega.rows != n or omega.cols != n:
        raise ValueError("omega shape does not match algebra dimension")
    for i in range(n):
        for j in range(i, n):
            if omega[i, j] != -omega[j, i]:
                raise ValueError("omega is not antisymmetric")


def frozen_d_omega(algebra, omega):
    """dw on every basis triple, each value read off the dense rows of omega."""
    n = algebra.dim
    table = algebra.nonzero_brackets
    w = frozen_omega_on_brackets(omega)
    out = []
    for i, j, k in combinations(range(n), 3):
        value = w(i, table[j][k]) + w(j, table[k][i]) + w(k, table[i][j])
        out.append(((i + 1, j + 1, k + 1), value))
    return tuple(out)


def frozen_omega_value(omega, x, y):
    """omega(x, y) off the dense matrix, summed over the nonzero entries."""
    y_support = [(q, yq) for q, yq in enumerate(y) if yq]
    total = ZERO
    for xp, row in zip(x, omega.entries):
        if xp:
            for q, yq in y_support:
                if row[q]:
                    total += xp * row[q] * yq
    return total


def frozen_symplectic_orthogonal(omega, j):
    """{v : omega(v, u) = 0 for all u in J}: ``kernel_basis`` of the rows omega u."""
    if j.dim == 0:
        return Subspace.full(omega.rows)
    return kernel_basis(RatMatrix(tuple(omega.apply(u) for u in j.basis)))


def frozen_classify_ideal(algebra, omega, j):
    """(status, normal), with one ideal check on the orthogonal and one on J."""
    normal = algebra.is_ideal(frozen_symplectic_orthogonal(omega, j))
    if not all(frozen_omega_value(omega, u, v) == 0 for u in j.basis for v in j.basis):
        return "not_isotropic", normal
    if not algebra.is_ideal(j):
        return "not_ideal", normal
    if 2 * j.dim == algebra.dim:
        return "lagrangian", normal
    return "isotropic", normal


def frozen_reduce_quotient(algebra, ideal, name=""):
    """quotient_algebra as it reduced each bracket at ambient width with
    ``reduce`` and assembled the quotient through ``from_brackets``."""
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
            w = ideal.reduce(_dense(dict(terms), algebra.dim))
            entries[a, b] = [w[k] for k in keep]
    return LieAlgebra.from_brackets(len(keep), entries, name)


def frozen_symplectic_reduction(algebra, omega, j):
    """(reduced algebra, dense reduced omega) of orth(J)/J, with the checks and
    messages of symplectic_reduction and of the validation of its result."""
    status, normal = frozen_classify_ideal(algebra, omega, j)
    if status in ("not_ideal", "not_isotropic"):
        raise ValueError(f"reduction requires an isotropic ideal, got {status}")
    if not normal:
        raise ValueError("reduction requires a normal ideal (orthogonal must be an ideal)")
    perp = frozen_symplectic_orthogonal(omega, j)
    r = perp.dim
    sub = {
        (a, b): perp.coordinates(dense_bracket_vectors(algebra, perp.basis[a], perp.basis[b]))
        for a, b in combinations(range(r), 2)
    }
    perp_algebra = LieAlgebra.from_brackets(r, sub, name=f"{algebra.name}|perp")
    j_inside = Subspace.from_vectors(r, [perp.coordinates(u) for u in j.basis])
    reduced = frozen_reduce_quotient(perp_algebra, j_inside, name=f"{algebra.name}/red")
    lifts = [perp.basis[t] for t in j_inside.complement_coordinates()]
    reduced_omega = RatMatrix(
        tuple(tuple(frozen_omega_value(omega, x, y) for y in lifts) for x in lifts)
    )
    if reduced.dim:
        if not reduced_omega.is_invertible():
            raise ValueError("omega is degenerate")
        for (a, b, c), value in frozen_d_omega(reduced, reduced_omega):
            if value:
                raise ValueError(f"omega is not closed: d_omega({a},{b},{c}) = {value}")
    return reduced, reduced_omega


def frozen_build_omega(spec, env=None):
    """The omega block as a dense antisymmetric matrix (entries mirrored with sign)."""
    env = env or {}
    if not spec.omega:
        raise ValueError("spec file has no omega block")
    n = spec.dim
    cells = specfile._antisymmetric_cells(
        spec.omega, n, "omega", lambda line: (line.value.evaluate(env),)
    )
    m = [[ZERO] * n for _ in range(n)]
    for (i, j), (value,) in cells.items():
        m[i][j], m[j][i] = value, -value
    return RatMatrix(tuple(tuple(row) for row in m))


def pair_coordinates(omega):
    """The entries omega[i, j], i < j, of a dense matrix, in the order of a form."""
    return tuple(omega[i, j] for i, j in combinations(range(omega.rows), 2))


def outcome(call):
    """call()'s value, or the type and message of the ValueError or
    IntegrityError it raises."""
    try:
        return call()
    except (ValueError, IntegrityError) as exc:
        return type(exc), str(exc)


def algebra_value(value):
    """A Lie algebra as (dim, pairs, name); anything else as it is."""
    if isinstance(value, LieAlgebra):
        return value.dim, value.pairs, value.name
    return value


def subspace_battery(s, rng):
    """Spanning sets of subspaces of s, of every verdict: 0, both halves, e^1,
    e1, the plane they span, a seeded line, the lower central series and the
    center."""
    n2 = s.dim
    n = n2 // 2
    e = [unit_vector(n2, i) for i in range(n2)]
    sets = [[], e[n:], e[:n], e[n:n + 1], e[:1], e[:1] + e[n:n + 1]]
    sets.append([tuple(random_rational(rng) for _ in range(n2))])
    sets += [list(space.basis) for space in lower_central_series(s.algebra)[1:]]
    sets.append(list(center(s.algebra).basis))
    return sets


def malformed_omegas(omega):
    """Dense matrices an algebra of omega's size must reject: one size too
    large, and omega with its last row's first entry moved."""
    n = omega.rows
    bent = [list(row) for row in omega.entries]
    if n:
        bent[n - 1][0] += 1
        yield RatMatrix(tuple(tuple(row) for row in bent))
    yield RatMatrix.zero(n + 1, n + 1)


def assert_symplectic_layer_matches_frozen(s, omega, sets, rng, seen):
    """The form and its views, dw of the own and of explicit forms, and for each
    spanning set: the echelon basis, the orthogonal, the verdict, the
    quotient, the reduction and, for a Lagrangian ideal, the induced table."""
    n = s.dim
    assert typed(s.omega) == typed(omega)
    assert typed(s.form) == typed(pair_coordinates(omega))
    assert typed(d_omega(s).residuals) == typed(frozen_d_omega(s.algebra, omega))
    seeded = [[random_rational(rng) for _ in range(n)] for _ in range(n)]
    skew = RatMatrix(tuple(tuple(seeded[i][j] - seeded[j][i] for j in range(n)) for i in range(n)))
    for m in (omega, RatMatrix(tuple(tuple(2 * x for x in row) for row in omega.entries)), skew):
        assert typed(d_omega(s, m).residuals) == typed(frozen_d_omega(s.algebra, m))
    for m in malformed_omegas(omega):
        expected = outcome(lambda: frozen_check_omega(s.algebra, m))
        assert expected is not None and outcome(lambda: d_omega(s, m)) == expected
    for vectors in sets:
        # The frozen routines get the same J, whose echelon basis is checked first.
        j = Subspace.from_vectors(n, vectors)
        assert typed(j) == typed(frozen_from_vectors(n, vectors))
        assert typed(symplectic_orthogonal(s, j)) == typed(frozen_symplectic_orthogonal(omega, j))
        verdict = is_lagrangian_ideal(s, j)
        assert (verdict.status, verdict.normal) == frozen_classify_ideal(s.algebra, omega, j)
        seen["verdict", verdict.status, verdict.normal] += 1
        quotient = outcome(lambda: quotient_algebra(s.algebra, j, "q"))
        frozen = outcome(lambda: frozen_reduce_quotient(s.algebra, j, "q"))
        assert typed(algebra_value(quotient)) == typed(algebra_value(frozen))
        reduced = outcome(lambda: symplectic_reduction(s, j))
        frozen = outcome(lambda: frozen_symplectic_reduction(s.algebra, omega, j))
        if isinstance(reduced, SymplecticLieAlgebra):
            algebra, reduced_omega = frozen
            assert typed(algebra_value(reduced.algebra)) == typed(algebra_value(algebra))
            assert typed(reduced.omega) == typed(reduced_omega)
            assert typed(reduced.form) == typed(pair_coordinates(reduced_omega))
            seen["reduced", reduced.dim] += 1
        else:
            assert reduced == frozen
        if verdict.is_lagrangian:
            assert typed(induced_flat_connection(s, j).gamma) == typed(
                frozen_induced_gamma(s, j)
            )


def assert_extension_forms_match_frozen(triple, rng, seen):
    """The symplectic layer of the triple's extension, its canonical table, psi
    for a symmetric and a non-symmetric sigma, and the adjusted form."""
    ext = build_extension(triple)
    omega = frozen_standard_omega(triple.connection.dim)
    assert_symplectic_layer_matches_frozen(ext, omega, subspace_battery(ext, rng), rng, seen)
    if triple.cocycle.is_lagrangian:
        assert typed(canonical_connection(ext).gamma) == typed(frozen_canonical_gamma(ext))
        sigma, symmetric, _ = seeded_one_cochains(triple.connection.dim, rng)
        for s in (sigma, symmetric):
            assert_psi_matches_frozen(triple, s)
        assert typed(adjusted_symplectic_form(triple, sigma, symmetric)) == typed(
            frozen_adjusted_form(triple, sigma, symmetric)
        )
        seen["lagrangian classes"] += 1


def seeded_lagrangian_class(conn, rng):
    _, z2l = cocycle_bases(dual_representation(conn))
    coeffs = tuple(random_rational(rng) for _ in range(z2l.dim))
    return two_cochain_from_coefficients(z2l, coeffs, conn.dim)


def test_forms_and_subspaces_match_frozen_dense_code_on_every_flat_catalog_sample():
    """Zero-class and seeded Z2_L-class extensions of every flat sample at 3 samples."""
    rng = rng_for(113, "sparse-oracles-form")
    seen = Counter()
    for conn in flat_catalog_samples(3):
        for alpha in (TwoCochain.zero(conn.dim), seeded_lagrangian_class(conn, rng)):
            assert_extension_forms_match_frozen(ExtensionTriple(conn, alpha), rng, seen)
    assert seen["lagrangian classes"] == 216
    # Every status, with a normal and an abnormal orthogonal, and reductions
    # to 0 and to dimension 6.
    verdicts = {key[1:] for key in seen if key[0] == "verdict"}
    assert {status for status, _ in verdicts} == {
        "not_ideal", "not_isotropic", "isotropic", "lagrangian"
    }
    assert {normal for _, normal in verdicts} == {True, False}
    assert seen["reduced", 0] and seen["reduced", 6]


@pytest.mark.parametrize("label", ["l_26", "t_8"])
def test_forms_and_subspaces_match_frozen_dense_code_on_eight_dimensional_canonical_connections(
    label,
):
    rng = rng_for(127, "sparse-oracles-form-canonical", label)
    ext = build_extension(ExtensionTriple.with_zero_cocycle(connection_for(label)))
    canonical = canonical_connection(ext)
    seen = Counter()
    for alpha in (TwoCochain.zero(8), seeded_lagrangian_class(canonical, rng)):
        assert_extension_forms_match_frozen(ExtensionTriple(canonical, alpha), rng, seen)
    assert seen["lagrangian classes"] == 2


def test_forms_match_frozen_dense_code_in_a_seeded_basis():
    """omega = P^T omega_0 P, not the standard form, and the Lagrangian ideal moved by P^-1."""
    rng = rng_for(131, "sparse-oracles-form-basis")
    seen = Counter()
    for label in ("l_26", "a_3", "t_8", "t_18"):
        ext = build_extension(ExtensionTriple.with_zero_cocycle(connection_for(label)))
        p = seeded_unitriangular(8, rng)
        omega = p.transpose() @ frozen_standard_omega(4) @ p
        s = SymplecticLieAlgebra(transform(ext.algebra, p), pair_coordinates(omega))
        moved = [p.inverse().col(4 + k) for k in range(4)]
        assert_symplectic_layer_matches_frozen(s, omega, subspace_battery(s, rng) + [moved], rng, seen)
    assert seen["verdict", "lagrangian", True] >= 4


@pytest.mark.parametrize("n", range(4))
def test_forms_and_subspaces_match_frozen_dense_code_in_low_dimension(n):
    rng = rng_for(137, "sparse-oracles-form-low", str(n))
    assert typed(standard_form(n)) == typed(pair_coordinates(frozen_standard_omega(n)))
    assert standard_form(0) == ()
    for space, frozen in (
        (Subspace.full(n), frozen_full(n)),
        (Subspace.zero(n), DenseSubspace(n)),
        (dual_subspace(n), frozen_from_vectors(2 * n, [unit_vector(2 * n, n + i) for i in range(n)])),
    ):
        assert typed(space) == typed(frozen)
    seen = Counter()
    # The abelian algebra of dimension 2n with the standard form, n = 0 included;
    # for n > 0 also the extension of the zero connection, which is that algebra.
    s = SymplecticLieAlgebra(LieAlgebra.abelian(2 * n), standard_form(n), dual_subspace(n))
    omega = frozen_standard_omega(n)
    assert_symplectic_layer_matches_frozen(s, omega, subspace_battery(s, rng), rng, seen)
    if n:
        triple = ExtensionTriple.with_zero_cocycle(FlatConnection.zero(LieAlgebra.abelian(n)))
        assert_extension_forms_match_frozen(triple, rng, seen)


def test_build_omega_matches_the_frozen_dense_matrix():
    """On each extension's spec file, by value and type, and without an omega block."""
    checked = 0
    for conn in flat_catalog_samples(1):
        ext = build_extension(ExtensionTriple.with_zero_cocycle(conn))
        text = specfile.serialize_spec(specfile.spec_from_symplectic("x", ext.algebra, ext.omega))
        spec = specfile.parse_spec(text)
        assert typed(specfile.build_omega(spec)) == typed(pair_coordinates(frozen_build_omega(spec)))
        checked += 1
    assert checked == 64
    spec = specfile.parse_spec("algebra s dim 4\nomega e^1 e1 -> 2\nomega e2 e2 -> 0\n")
    assert typed(specfile.build_omega(spec)) == typed(pair_coordinates(frozen_build_omega(spec)))
    bare = specfile.parse_spec("algebra s dim 2\n")
    assert outcome(lambda: specfile.build_omega(bare)) == outcome(lambda: frozen_build_omega(bare))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_subspaces_match_the_frozen_dense_construction(data):
    """from_vectors, sum and reduce, by basis, pivots and type."""
    n = data.draw(st.integers(min_value=0, max_value=8))
    vectors = data.draw(st.lists(sparse_vector(n), max_size=5))
    others = data.draw(st.lists(sparse_vector(n), max_size=3))
    space, frozen = Subspace.from_vectors(n, vectors), frozen_from_vectors(n, vectors)
    assert typed(space) == typed(frozen) and space.dim == frozen.dim
    assert typed(space.sum(Subspace.from_vectors(n, others))) == typed(
        frozen_from_vectors(n, vectors + others)
    )
    for v in others:
        assert typed(space.reduce(v)) == typed(frozen.reduce(v))


# ---------------------------------------------------------------------------
# the integer kernels against the Fraction kernels they replaced
# ---------------------------------------------------------------------------


def frozen_add(acc, key, value):
    x = acc.get(key)
    if x is None:
        acc[key] = value
    elif x := x + value:
        acc[key] = x
    else:
        del acc[key]


def frozen_subtract(row, f, other):
    for j, b in other.items():
        x = row.get(j)
        if x is None:
            row[j] = -f * b
        elif x := x - f * b:
            row[j] = x
        else:
            del row[j]


def frozen_eliminate(rows, kept=None):
    """Incremental RREF with every inner product a Fraction operation."""
    if kept is None:
        kept = {}
    for row in rows:
        for p in [j for j in row if j in kept]:
            frozen_subtract(row, row[p], kept[p])
        if not row:
            continue
        c = min(row)
        if row[c] != 1:
            inv = F(1) / row[c]
            for j in row:
                row[j] *= inv
        for prow in kept.values():
            f = prow.get(c)
            if f is not None:
                frozen_subtract(prow, f, row)
        kept[c] = row
    return kept


def frozen_add_image(acc, f, terms, columns):
    for k, x in terms:
        fx = f * x
        for t, v in columns[k]:
            frozen_add(acc, t, fx * v)


def frozen_skew(cols, i, j):
    skew = dict(cols[i][j])
    for k, v in cols[j][i]:
        frozen_add(skew, k, -v)
    return skew


def frozen_sweep(conn):
    """(torsion, curvature, associator) of the sweep over the Fraction tables."""
    n = conn.dim
    cols = conn.nonzero_gamma
    right = tuple(zip(*cols))
    brackets = conn.base.nonzero_brackets
    support = [{s for s, col in enumerate(plane) if col} for plane in cols]
    torsion, curvature, associator = [], [], []
    one = F(1)
    for i, j in combinations(range(n), 2):
        skew = frozen_skew(cols, i, j)
        residual = dict(skew)
        for k, c in brackets[i][j]:
            frozen_add(residual, k, -c)
        if residual:
            torsion.append(((i + 1, j + 1), _dense(residual, n)))
        touched = support[i] | support[j]
        for k in list(skew) + [k for k, _ in brackets[i][j]]:
            touched |= support[k]
        for s in sorted(touched):
            commutator = {}
            frozen_add_image(commutator, one, cols[j][s], cols[i])
            frozen_add_image(commutator, -one, cols[i][s], cols[j])
            residual = dict(commutator)
            frozen_add_image(residual, -one, brackets[i][j], right[s])
            if residual:
                curvature.append(((i + 1, j + 1, s + 1), _dense(residual, n)))
            residual = {k: -v for k, v in commutator.items()}
            frozen_add_image(residual, one, skew.items(), right[s])
            if residual:
                associator.append(((i + 1, j + 1, s + 1), _dense(residual, n)))
    return tuple(torsion), tuple(curvature), tuple(associator)


def frozen_check_jacobi(algebra):
    """((triple, residual), ...) of the Jacobi sums over the Fraction table."""
    n = algebra.dim
    table = algebra.nonzero_brackets
    violations = []
    for i, j, k in combinations(range(n), 3):
        r = [ZERO] * n
        for a, inner in ((i, table[j][k]), (j, table[k][i]), (k, table[i][j])):
            outer = table[a]
            for t, coeff in inner:
                for m, x in outer[t]:
                    r[m] += coeff * x
        if any(r):
            violations.append(((i + 1, j + 1, k + 1), tuple(r)))
    return tuple(violations)


def frozen_d_omega_result(s):
    """The residuals of d(omega) over the Fraction bracket table and omega rows."""
    table = s.algebra.nonzero_brackets

    def w(p, terms):
        row = s.omega_rows[p]
        return sum((row[q] * c for q, c in terms if q in row), ZERO)

    return tuple(
        ((i + 1, j + 1, k + 1), w(i, table[j][k]) + w(j, table[k][i]) + w(k, table[i][j]))
        for i, j, k in combinations(range(s.dim), 3)
    )


def sweep_lines(report):
    """Every residual of a sweep as the verify records write the first one."""
    torsion, curvature, associator = report
    return (
        [f"T(e{i},e{j}) = {fmt_vector(v)}" for (i, j), v in torsion]
        + [f"R(e{i},e{j})e{s} = {fmt_vector(v)}" for (i, j, s), v in curvature]
        + [f"A(e{i},e{j},e{s}) = {fmt_vector(v)}" for (i, j, s), v in associator]
    )


def assert_sweep_matches_frozen(conn):
    report = check_flat_torsion_free(conn)
    live = (report.torsion, report.curvature, report.associator)
    frozen = frozen_sweep(conn)
    assert typed(live) == typed(frozen)
    assert sweep_lines(live) == sweep_lines(frozen)
    return report


def assert_jacobi_matches_frozen(algebra):
    live = tuple((v.triple, v.residual) for v in check_jacobi(algebra))
    frozen = frozen_check_jacobi(algebra)
    assert typed(live) == typed(frozen)
    if frozen:
        (triple, residual), *_ = frozen
        with pytest.raises(ValueError) as raised:
            require_jacobi(algebra)
        assert str(raised.value) == (
            f"Jacobi identity fails at {triple}: residual {fmt_vector(residual)}"
        )
    return live


def assert_d_omega_matches_frozen(s):
    result = s.d_omega_result
    frozen = frozen_d_omega_result(s)
    assert typed(result.residuals) == typed(frozen)
    first = [f"d_omega({i},{j},{k}) = {v}" for (i, j, k), v in frozen if v][:1]
    assert result.first_witness() == "".join(first)
    return result


def with_bracket_shifted(algebra, p, k, shift):
    """algebra with the coefficient of e_k in its p-th pair moved by shift."""
    terms = dict(algebra.pairs[p])
    terms[k] = terms.get(k, ZERO) + shift
    pairs = list(algebra.pairs)
    pairs[p] = tuple(sorted((t, c) for t, c in terms.items() if c))
    return LieAlgebra(algebra.dim, tuple(pairs), algebra.name)


def frozen_kernel(kept, width):
    """The kernel of the reduced rows kept, by the frozen elimination."""
    vectors = {c: {c: F(1)} for c in range(width) if c not in kept}
    for p, row in kept.items():
        for j in row.keys() - {p}:
            vectors[j][p] = -row[j]
    reduced = frozen_eliminate(vectors.values())
    return Subspace(width, tuple(reduced[p] for p in sorted(reduced)))


def frozen_cocycle_bases_by_fractions(rep):
    """Z2 and Z2_L by the frozen Fraction elimination, fed the rational d2
    rows (the dense d2 matrix, row by row) and then the cyclic sums."""
    width = len(pair_list(rep.dim)) * rep.dim
    d2 = cohomology_module.matrix_of_coboundary_2(rep)
    kept = frozen_eliminate([_sparse(row) for row in d2.entries])
    z2 = frozen_kernel(kept, width)
    cyclic = cohomology_module.cyclic_sum_matrix(rep.dim)
    return z2, frozen_kernel(frozen_eliminate([_sparse(row) for row in cyclic.entries], kept), width)


def assert_elimination_matches_frozen(rep):
    live = cocycle_bases(rep)
    frozen = frozen_cocycle_bases_by_fractions(rep)
    assert typed(live) == typed(frozen)
    assert [typed_kept(dict(enumerate(space.rows))) for space in live] == [
        typed_kept(dict(enumerate(space.rows))) for space in frozen
    ]
    return live


def test_integer_kernels_match_the_fraction_kernels_on_every_catalog_sample():
    """The sweep, with the witnesses of the defective rows byte for byte,
    Jacobi on each base and on a seeded corruption of it, and Z2, Z2_L."""
    rng = rng_for(151, "integer-kernels-catalog")
    first_torsion = {}
    checked = flat = 0
    for entry in table1_entries():
        for sample in sample_parameters(entry, 3):
            conn = instantiate(entry, sample)
            if not isinstance(conn, FlatConnection):
                continue
            report = assert_sweep_matches_frozen(conn)
            checked += 1
            if report.torsion:
                first_torsion.setdefault(entry.label, []).append(sweep_lines(
                    (report.torsion, report.curvature, report.associator))[0])
            base = conn.base
            assert_jacobi_matches_frozen(base)
            if base.dim >= 3:
                p = rng.randrange(len(base.pairs))
                shifted_base = with_bracket_shifted(base, p, rng.randrange(base.dim), F(rng.choice([1, -2]), 3))
                assert_jacobi_matches_frozen(shifted_base)
            if report.flat:
                flat += 1
                assert_elimination_matches_frozen(conn.dual)
    assert (checked, flat) == (113, 108)
    assert first_torsion == {
        "t_6": ["T(e2,e4) = (0, 0, -1/6, 0)"],
        "t_7": ["T(e2,e4) = (0, 0, -1/6, 0)"],
        "t_20": ["T(e2,e3) = (0, 0, -1, 0)", "T(e2,e3) = (0, 0, -2, 0)", "T(e2,e3) = (0, 0, -1/3, 0)"],
    }


def test_integer_kernels_match_the_fraction_kernels_on_perturbed_connections():
    """Single-cell perturbations give torsion, curvature and associator witnesses."""
    rng = rng_for(157, "integer-kernels-perturbed")
    seen = Counter()
    for conn in list(flat_catalog_samples(1)) + [
        canonical_connection(ext) for ext in list(flat_row_extensions())[::16]
    ]:
        for _ in range(2):
            report = assert_sweep_matches_frozen(perturbed(conn, rng))
            seen.update(name for name in ("torsion", "curvature", "associator") if getattr(report, name))
    assert set(seen) == {"torsion", "curvature", "associator"}, seen


def seeded_class_extensions(conn, rng):
    """The extensions of conn by a seeded Z2_L and a seeded Z2 cocycle; the
    second leaves omega not closed unless it happens to be Lagrangian."""
    z2, z2l = cocycle_bases(dual_representation(conn))
    for basis in (z2l, z2):
        coeffs = tuple(random_rational(rng) for _ in range(basis.dim))
        alpha = two_cochain_from_coefficients(basis, coeffs, conn.dim)
        yield build_extension(ExtensionTriple(conn, alpha))


def test_integer_kernels_match_the_fraction_kernels_on_zero_and_seeded_extensions():
    """Jacobi and d(omega) of the zero extension and of two seeded classes of
    every flat row, the sweep of their canonical connections, and the
    d(omega) witnesses of the classes that are not Lagrangian."""
    rng = rng_for(163, "integer-kernels-extensions")
    open_forms = checked = 0
    for ext in flat_row_extensions():
        conn = induced_flat_connection(ext, ext.lagrangian_ideal)
        for s in (ext, *seeded_class_extensions(conn, rng)):
            assert assert_jacobi_matches_frozen(s.algebra) == ()
            result = assert_d_omega_matches_frozen(s)
            if result.is_zero():
                assert_sweep_matches_frozen(canonical_connection(s))
            else:
                open_forms += 1
            broken = with_bracket_shifted(s.algebra, rng.randrange(len(s.algebra.pairs)),
                                          rng.randrange(s.dim), F(1, 7))
            assert_jacobi_matches_frozen(broken)
            assert_d_omega_matches_frozen(SymplecticLieAlgebra(broken, s.form))
            checked += 1
    assert checked == 3 * 64
    assert open_forms > 32


@pytest.mark.parametrize("label", ["l_26", "t_8"])
def test_integer_kernels_match_the_fraction_kernels_on_eight_dimensional_canonical_connections(label):
    rng = rng_for(167, "integer-kernels-canonical", label)
    ext = build_extension(ExtensionTriple.with_zero_cocycle(connection_for(label)))
    canonical = canonical_connection(ext)
    assert assert_sweep_matches_frozen(canonical).ok
    assert assert_sweep_matches_frozen(perturbed(canonical, rng)).torsion
    assert assert_jacobi_matches_frozen(canonical.base) == ()
    assert_d_omega_matches_frozen(ext)
    z2, z2l = assert_elimination_matches_frozen(canonical.dual)
    assert (z2.dim, z2l.dim) == {"l_26": (123, 82), "t_8": (88, 56)}[label]


# Primes above 2^61, as denominators no product of small ones reaches.
LARGE_PRIMES = (
    2305843009213693967, 2305843009213693973, 2305843009213694009,
    2305843009213694017, 2305843009213694087, 2305843009213694149,
)


def sympy_rref_rows(rows, width):
    """{pivot: {column: Fraction}} of the reduced row echelon form, by sympy."""
    import sympy

    if not rows or not width:
        return {}
    matrix = sympy.Matrix(len(rows), width, lambda r, c: sympy.Rational(
        rows[r].get(c, 0).numerator, rows[r].get(c, 0).denominator))
    reduced, pivots = matrix.rref()
    return {
        p: {c: F(int(x.p), int(x.q)) for c in range(width) if (x := reduced[r, c]) != 0}
        for r, p in enumerate(pivots)
    }


def typed_kept(kept):
    return sorted((p, sorted((c, type(x), x) for c, x in row.items())) for p, row in kept.items())


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_elimination_gives_one_rref_for_fraction_int_and_mixed_rows(data):
    """Each row is drawn as ints and scaled by a seeded nonzero rational, with
    denominators among primes above 2^61, which leaves its span alone; the
    rows are then given as Fractions, as ints, mixed, and in two batches
    through kept.  Every form gives the frozen Fraction RREF and sympy's."""
    width = data.draw(st.integers(min_value=0, max_value=7))
    small = st.sampled_from([0] * 12 + [1, -1, 2, -3, 5, 7])
    ints = data.draw(st.lists(st.lists(small, min_size=width, max_size=width), max_size=6))
    ints = [{c: x for c, x in enumerate(row) if x} for row in ints]
    scale = st.builds(
        F,
        st.sampled_from([1, -1, 3, -2, LARGE_PRIMES[0], -LARGE_PRIMES[1]]),
        st.sampled_from((1, 6) + LARGE_PRIMES),
    )
    fractions = []
    for row in ints:
        f = data.draw(scale)
        fractions.append({c: f * x for c, x in row.items()})
    mixed = [
        {c: (int(x) if x.denominator == 1 and data.draw(st.booleans()) else x) for c, x in row.items()}
        for row in fractions
    ]
    expected = frozen_eliminate([dict(row) for row in fractions])
    assert typed_kept(expected) == typed_kept(sympy_rref_rows(fractions, width))
    alternating = [row if r % 2 else fractions[r] for r, row in enumerate(ints)]
    for rows in (fractions, ints, mixed, alternating):
        assert typed_kept(_eliminate([dict(row) for row in rows])) == typed_kept(expected)
    cut = data.draw(st.integers(min_value=0, max_value=len(mixed)))
    kept = _eliminate([dict(row) for row in fractions[:cut]])
    assert typed_kept(_eliminate([dict(row) for row in mixed[cut:]], kept)) == typed_kept(expected)
    assert typed_kept(kept) == typed_kept(expected)  # kept is updated in place


def test_cocycle_bases_makes_a_fraction_only_for_each_entry_the_kernel_writes_out(monkeypatch):
    """A Fraction inner loop in the kernel makes a Fraction per operation;
    the integer kernel makes one per off-pivot entry of the rows it returns."""
    ext = build_extension(ExtensionTriple.with_zero_cocycle(connection_for("l_26")))
    rep = canonical_connection(ext).dual
    written = []
    real_eliminate = linalg_module._eliminate

    def recording_eliminate(rows, kept=None):
        kept = real_eliminate(rows, kept)
        written.append(sum(len(row) - 1 for row in kept.values()))
        return kept

    made = [0]
    real_new = F.__new__

    def counting_new(cls, *args, **kwargs):
        made[0] += 1
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(linalg_module, "_eliminate", recording_eliminate)
    monkeypatch.setattr(cohomology_module, "_eliminate", recording_eliminate)
    monkeypatch.setattr(F, "__new__", counting_new)
    z2, z2l = cocycle_bases(rep)
    monkeypatch.undo()
    assert (z2.dim, z2l.dim) == (123, 82)
    assert len(written) == 4  # d2, the kernel of Z2, the cyclic sums, the kernel of Z2_L
    assert 0 < made[0] <= sum(written)


# ---------------------------------------------------------------------------
# linear maps as sparse columns against the dense-vector code they replaced
# ---------------------------------------------------------------------------


def frozen_vector_omega_solve(s, lifts, tests):
    """_omega_solve with omega(e_p, v) read off the dense omega for each b and
    the brackets [e_a, u] as uncombined (k, value) terms."""
    w = frozen_omega_on_brackets(s.omega)
    inverse = RatMatrix(tuple(tuple(w(t, u.items()) for t in lifts) for u in tests)).inverse()
    columns = [[(k, v) for k, v in enumerate(col) if v] for col in zip(*inverse.entries)]
    table = s.algebra.nonzero_brackets
    gamma = []
    for a in lifts:
        brackets = [[(k, y * c) for q, y in u.items() for k, c in table[a][q]] for u in tests]
        plane = []
        for b in lifts:
            x = {}
            for u, terms in enumerate(brackets):
                if terms and (f := -w(b, terms)):
                    for k, v in columns[u]:
                        frozen_add(x, k, f * v)
            plane.append(tuple(sorted(x.items())))
        gamma.append(tuple(plane))
    return tuple(gamma)


def frozen_vector_orthogonal(s, j):
    """The kernel of the images of J's rows under the operator whose column p
    is row p of omega."""
    if j.dim and j.ambient_dim != s.dim:
        raise ValueError("vector length does not match column count")
    operator = tuple(row.items() for row in s.omega_rows)
    return _kernel(_eliminate(_images((operator,), j.rows)), s.dim)


def frozen_vector_classify(s, j, perp):
    """(status, normal), isotropy decided by ``contains`` on J's dense basis."""
    normal = s.algebra.is_ideal(perp)
    if not all(perp.contains(u) for u in j.basis):
        return "not_isotropic", normal
    if not (normal if perp == j else s.algebra.is_ideal(j)):
        return "not_ideal", normal
    if 2 * j.dim == s.dim:
        return "lagrangian", normal
    return "isotropic", normal


def frozen_vector_classify_and_reduce(s, j):
    """((status, normal), reduction or None), the orthogonal's brackets and
    J's coordinates read off dense vectors, the form by dense omega values."""
    perp = frozen_vector_orthogonal(s, j)
    verdict = frozen_vector_classify(s, j, perp)
    if verdict[0] in ("not_ideal", "not_isotropic") or not verdict[1]:
        return verdict, None
    r = perp.dim
    sub = {
        (a, b): perp.coordinates(dense_bracket_vectors(s.algebra, perp.basis[a], perp.basis[b]))
        for a, b in combinations(range(r), 2)
    }
    perp_algebra = LieAlgebra.from_brackets(r, sub, name=f"{s.algebra.name}|perp")
    j_inside = Subspace.from_vectors(r, [perp.coordinates(u) for u in j.basis])
    reduced = quotient_algebra(perp_algebra, j_inside, name=f"{s.algebra.name}/red")
    lifts = [perp.basis[t] for t in j_inside.complement_coordinates()]
    form = tuple(
        frozen_omega_value(s.omega, lifts[a], lifts[b]) for a, b in combinations(range(len(lifts)), 2)
    )
    result = SymplecticLieAlgebra(reduced, form)
    if reduced.dim:
        result.validate()
    return verdict, result


def frozen_vector_psi(t1, t2, sigma):
    """equivalence_map_psi on dense columns, with their brackets by
    ``dense_bracket_vectors`` and the pullback by dense omega values."""
    c1, c2 = t1.connection, t2.connection
    if c1.nonzero_gamma != c2.nonzero_gamma or c1.base != c2.base:
        raise ValueError("triples must share the same connection")
    if t1.cocycle - coboundary_1(dual_representation(c1), sigma) != t2.cocycle:
        raise ValueError("cocycles are not related by the coboundary of sigma")
    n = c1.dim
    total = 2 * n
    cols = [(*unit_vector(n, a), *sigma.entries[a]) for a in range(n)]
    cols += [unit_vector(total, n + k) for k in range(n)]
    psi = RatMatrix(tuple(cols)).transpose()
    g1 = build_extension(t1)
    g2 = build_extension(t2)
    table = g1.algebra.nonzero_brackets
    nonzero_cols = [[(t, v) for t, v in enumerate(col) if v] for col in cols]
    for a, b in combinations(range(total), 2):
        image = {}
        for k, c in table[a][b]:
            for t, v in nonzero_cols[k]:
                frozen_add(image, t, c * v)
        if image != _sparse(dense_bracket_vectors(g2.algebra, cols[a], cols[b])):
            raise IntegrityError(f"bracket preservation fails at basis pair ({a+1},{b+1})")
    if sigma.is_symmetric and any(
        frozen_omega_value(g2.omega, cols[a], cols[b]) != x
        for (a, b), x in zip(combinations(range(total), 2), g1.form)
    ):
        raise IntegrityError("pullback of omega under a Lagrangian shift must be omega")
    return psi


def frozen_vector_adjusted_form(triple, sigma, sigma_l):
    """adjusted_symplectic_form with the form read by dense omega values on
    the columns of the frozen psi."""
    if not sigma_l.is_symmetric:
        raise ValueError("sigma_l must be a symmetric (Lagrangian) 1-cochain")
    if not triple.cocycle.is_lagrangian:
        raise ValueError("base cocycle must satisfy the cyclic-sum condition")
    rep = dual_representation(triple.connection)
    t_bar = ExtensionTriple(triple.connection, triple.cocycle - coboundary_1(rep, sigma))
    t_hat = ExtensionTriple(triple.connection, triple.cocycle - coboundary_1(rep, sigma_l))
    psi = frozen_vector_psi(t_bar, t_hat, sigma_l - sigma)
    g_hat = build_extension(t_hat)
    cols = [psi.col(a) for a in range(psi.cols)]
    form = tuple(
        frozen_omega_value(g_hat.omega, cols[a], cols[b]) for a, b in combinations(range(len(cols)), 2)
    )
    adjusted = SymplecticLieAlgebra(build_extension(t_bar).algebra, form)
    if not adjusted.is_nondegenerate():
        raise ValueError("adjusted form is degenerate")
    witness = adjusted.d_omega_result.first_witness()
    if witness:
        raise IntegrityError(f"adjusted form is not closed on the shifted extension: {witness}")
    return adjusted.omega


def frozen_vector_bracket_of_subspaces(algebra, a, b):
    return Subspace.from_vectors(
        algebra.dim, [dense_bracket_vectors(algebra, x, y) for x in a.basis for y in b.basis]
    )


def reduction_value(result):
    """classify_and_reduce's (verdict, reduction) as plain typed values."""
    verdict, reduced = result
    if not isinstance(verdict, tuple):
        verdict = (verdict.status, verdict.normal)
    if reduced is None:
        return verdict, None
    return verdict, typed(algebra_value(reduced.algebra)), typed(reduced.form)


def assert_sparse_maps_match_frozen(triple, rng, seen):
    """Both omega solves, psi for three sigmas, the adjusted form, and for a
    battery of subspaces the orthogonal, the verdict and reduction, and the
    brackets with each half of the extension."""
    ext = build_extension(triple)
    n2 = ext.dim
    j = ext.lagrangian_ideal
    induced = (ext, j.complement_coordinates(), j.rows)
    assert typed(_omega_solve(*induced)) == typed(frozen_vector_omega_solve(*induced))
    if triple.cocycle.is_lagrangian:
        canonical = (ext, range(n2), [{m: F(1)} for m in range(n2)])
        assert typed(_omega_solve(*canonical)) == typed(frozen_vector_omega_solve(*canonical))
        rep = dual_representation(triple.connection)
        sigmas = seeded_one_cochains(triple.connection.dim, rng)
        for sigma in sigmas:
            shifted = ExtensionTriple(triple.connection, triple.cocycle - coboundary_1(rep, sigma))
            assert typed(outcome(lambda: equivalence_map_psi(triple, shifted, sigma))) == typed(
                outcome(lambda: frozen_vector_psi(triple, shifted, sigma))
            )
        for sigma_l in sigmas:
            assert typed(outcome(lambda: adjusted_symplectic_form(triple, sigmas[0], sigma_l))) == typed(
                outcome(lambda: frozen_vector_adjusted_form(triple, sigmas[0], sigma_l))
            )
        seen["lagrangian classes"] += 1
    spaces = [Subspace.from_vectors(n2, vectors) for vectors in subspace_battery(ext, rng)]
    for space in spaces:
        assert typed(symplectic_orthogonal(ext, space)) == typed(frozen_vector_orthogonal(ext, space))
        live = outcome(lambda: reduction_value(classify_and_reduce(ext, space)))
        assert live == outcome(lambda: reduction_value(frozen_vector_classify_and_reduce(ext, space)))
        if isinstance(live[0], type):
            seen["raised", live] += 1
        else:  # None, or the dimension of the reduction
            seen["reduced", live[1] and live[1][0][1]] += 1
        for half in spaces[1:3]:
            assert typed(bracket_of_subspaces(ext.algebra, half, space)) == typed(
                frozen_vector_bracket_of_subspaces(ext.algebra, half, space)
            )


def test_sparse_maps_match_the_dense_vector_code_on_every_flat_catalog_sample():
    """The zero-class and a seeded Z2_L-class extension of every flat sample."""
    rng = rng_for(173, "sparse-maps-catalog")
    seen = Counter()
    for conn in flat_catalog_samples(3):
        for alpha in (TwoCochain.zero(conn.dim), seeded_lagrangian_class(conn, rng)):
            assert_sparse_maps_match_frozen(ExtensionTriple(conn, alpha), rng, seen)
    assert seen["lagrangian classes"] == 216
    # Refused reductions, and reductions to 0, to 6 and to the whole algebra.
    assert seen["reduced", None] and seen["reduced", 0] and seen["reduced", 6] and seen["reduced", 8]


def test_sparse_maps_match_the_dense_vector_code_on_seeded_extensions():
    """Seeded Z2 classes, whose omega is not closed: the induced solve, the
    orthogonals and the refused or failing reductions."""
    rng = rng_for(179, "sparse-maps-seeded")
    seen = Counter()
    for label in ("l_26", "a_3", "t_8", "t_18", "a_10", "l_38"):
        conn = connection_for(label)
        z2, _ = cocycle_bases(dual_representation(conn))
        coeffs = tuple(random_rational(rng) for _ in range(z2.dim))
        alpha = two_cochain_from_coefficients(z2, coeffs, conn.dim)
        assert not alpha.is_lagrangian
        assert_sparse_maps_match_frozen(ExtensionTriple(conn, alpha), rng, seen)
    assert seen["lagrangian classes"] == 0
    assert any(key[0] == "raised" for key in seen)  # reductions whose form is not closed


@pytest.mark.parametrize("label", ["l_26", "t_8"])
def test_sparse_maps_match_the_dense_vector_code_on_eight_dimensional_canonical_connections(label):
    rng = rng_for(181, "sparse-maps-canonical", label)
    canonical = canonical_connection(build_extension(ExtensionTriple.with_zero_cocycle(connection_for(label))))
    seen = Counter()
    for alpha in (TwoCochain.zero(8), seeded_lagrangian_class(canonical, rng)):
        assert_sparse_maps_match_frozen(ExtensionTriple(canonical, alpha), rng, seen)
    assert seen["lagrangian classes"] == 2


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_bracket_rows_and_pullback_match_the_dense_formulas(data):
    """On a random table and a random antisymmetric form, not Jacobi or closed:
    bracket_rows, omega_row and pullback on sparse rows, and the dense
    wrappers, against dense_bracket_vectors and frozen_omega_value."""
    n = data.draw(st.integers(min_value=0, max_value=8))
    entries = {(i, j): data.draw(sparse_vector(n)) for i, j in combinations(range(n), 2)}
    algebra = LieAlgebra.from_brackets(n, entries, "sparse")
    form = data.draw(st.lists(sparse_entries, min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    s = SymplecticLieAlgebra(algebra, tuple(form))
    vectors = data.draw(st.lists(sparse_vector(n), max_size=4))
    rows = [_sparse(v) for v in vectors]
    for x, u in zip(vectors, rows):
        row = s.omega_row(u)
        assert all(row.values())
        assert typed(_dense(row, n)) == typed(
            tuple(frozen_omega_value(s.omega, x, unit_vector(n, q)) for q in range(n))
        )
        for y, v in zip(vectors, rows):
            bracket = algebra.bracket_rows(u, v)
            assert all(bracket.values())
            assert typed(_dense(bracket, n)) == typed(dense_bracket_vectors(algebra, x, y))
            assert typed(algebra.bracket_vectors(x, y)) == typed(dense_bracket_vectors(algebra, x, y))
            assert typed(s.omega_value(x, y)) == typed(frozen_omega_value(s.omega, x, y))
    assert typed(s.pullback(rows)) == typed(tuple(
        frozen_omega_value(s.omega, vectors[a], vectors[b])
        for a, b in combinations(range(len(vectors)), 2)
    ))
    assert rows == [_sparse(v) for v in vectors]  # the rows are only read
