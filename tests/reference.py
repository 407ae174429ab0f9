"""The one reference the tests compare lagext against, written from the definitions.

Each quantity lagext computes on int tables is computed here again, on dense
``Fraction`` vectors and matrices, straight from its definition.  The inputs
are plain data that a test reads off lagext objects: dimensions, a Lie
algebra's ``pairs`` (the (k, c) of [e_i, e_j] = sum of c e_k for the pairs
i < j, in ``combinations`` order), a connection's ``nonzero_gamma`` (the
(k, v) of e_i . e_j = nabla_{e_i} e_j), a 2-cochain's ``values`` (alpha(e_i,
e_j)(e_k) at p * n + k for the p-th pair i < j), a form's matrix, and
Fraction vectors.  This module imports the standard library only, so no
fault in lagext can move it together with the code under test.

Conventions: a vector is a tuple of Fractions; a matrix is a tuple of rows;
a bilinear map on Q^n is its tensor t[i][j][k], the k-th coordinate of the
value on (e_i, e_j); ``rho[i]`` is the matrix of rho(e_i) on dual
coordinates; a 1-cochain is the matrix s[i][k] = sigma(e_i)(e_k).  Every
elimination is Gauss-Jordan elimination over the rationals, column by
column, so a subspace is its one reduced echelon basis (``Span``).

The inputs are immutable tuples, so the costlier functions keep their
results (``functools.cache``): the tests ask for the same representation's
cohomology, and the same algebra's derivations and lower central series,
from several modules.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import gcd, lcm

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------


def unit(n, i):
    return tuple(ONE if j == i else ZERO for j in range(n))


def transpose(m):
    return tuple(zip(*m))


def _fraction(x):
    return x if type(x) is Fraction else Fraction(x)


def nonzero(v):
    """The (index, entry) of each nonzero entry of v."""
    return [(i, x) for i, x in enumerate(v) if x]


def apply(m, v):
    """The matrix m times the vector v."""
    terms = nonzero(v)
    return tuple(sum([row[j] * x for j, x in terms if row[j]], ZERO) for row in m)


def matmul(a, b):
    width = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [ZERO] * width
        for k, x in enumerate(row):
            if x:
                for c, y in enumerate(b[k]):
                    if y:
                        acc[c] += x * y
        out.append(tuple(acc))
    return tuple(out)


def add(u, v):
    return tuple(x + y if y else x for x, y in zip(u, v))


def sub(u, v):
    return tuple(x - y if y else x for x, y in zip(u, v))


def combination(coefficients, vectors, n):
    """sum of c v over the coefficients c and the vectors v of Q^n."""
    out = [ZERO] * n
    for c, v in zip(coefficients, vectors):
        if c:
            for k, x in enumerate(v):
                if x:
                    out[k] += c * x
    return tuple(out)


def _subtract(row, f, other):
    """row -= f * other, in place, on sparse rows."""
    for j, x in other.items():
        y = row.get(j, ZERO) - f * x
        if y:
            row[j] = y
        else:
            del row[j]


def rref(rows, width):
    """(nonzero rows, pivot columns) of the reduced row echelon form of the
    rows, by Gauss-Jordan elimination.  For each column in turn, a remaining
    row that is nonzero there is divided by that entry and the column is
    cleared from the other remaining rows; then each pivot column is cleared
    from the pivot rows above it.  The reduced form does not depend on which
    row is taken, so the one with the fewest nonzero entries is, to keep the
    rows sparse."""
    pending = [{j: _fraction(x) for j, x in enumerate(row) if x} for row in rows]
    pending = [row for row in pending if row]
    done = []
    for c in range(width):
        candidates = [row for row in pending if c in row]
        if not candidates:
            continue
        picked = min(candidates, key=len)
        row = {j: x / picked[c] for j, x in picked.items()}
        for other in candidates:
            if other is not picked:
                _subtract(other, other[c], row)
        pending = [other for other in pending if other and other is not picked]
        done.append((c, row))
    for t, (c, row) in reversed(list(enumerate(done))):
        for _, above in done[:t]:
            if c in above:
                _subtract(above, above[c], row)
    return [tuple(row.get(j, ZERO) for j in range(width)) for _, row in done], [c for c, _ in done]


@dataclass(frozen=True)
class Span:
    """A subspace of Q^n as its reduced echelon basis, pivots ascending."""

    ambient_dim: int
    basis: tuple = ()
    pivots: tuple = ()

    @property
    def dim(self):
        return len(self.basis)


def span(n, vectors):
    basis, pivots = rref(vectors, n)
    return Span(n, tuple(basis), tuple(pivots))


def full(n):
    return span(n, [unit(n, i) for i in range(n)])


def reduce(space, v):
    """v with each pivot coordinate eliminated by its basis vector, in turn."""
    w = list(v)
    for b, p in zip(space.basis, space.pivots):
        f = w[p]
        if f:
            for j, x in enumerate(b):
                if x:
                    w[j] -= f * x
    return tuple(w)


def contains(space, v):
    return not any(reduce(space, v))


def coordinates(space, v):
    """The coefficients of v in the echelon basis: its entries at the pivots."""
    assert contains(space, v)
    return tuple(v[p] for p in space.pivots)


def complement(space):
    """The coordinates that are not pivots, ascending."""
    return tuple(i for i in range(space.ambient_dim) if i not in space.pivots)


def kernel(rows, width):
    """{v : r . v = 0 for every row r}: e_f minus column f of the reduced
    rows, at their pivots, for each free column f, made echelon."""
    reduced, pivots = rref(rows, width)
    vectors = []
    for f in range(width):
        if f not in pivots:
            v = [ZERO] * width
            v[f] = ONE
            for row, p in zip(reduced, pivots):
                v[p] = -row[f]
            vectors.append(v)
    return span(width, vectors)


def solve(rows, b, width):
    """The solution of M x = b with every free variable zero, or None."""
    reduced, pivots = rref([(*row, y) for row, y in zip(rows, b)], width + 1)
    if width in pivots:
        return None
    x = [ZERO] * width
    for row, p in zip(reduced, pivots):
        x[p] = row[width]
    return tuple(x)


def inverse(m):
    """The inverse of the square matrix m, read off the rref of [m | I]; None
    when m is singular."""
    n = len(m)
    reduced, pivots = rref([(*row, *unit(n, i)) for i, row in enumerate(m)], 2 * n)
    if pivots != list(range(n)):
        return None
    return tuple(row[n:] for row in reduced)


def quotient(w, v):
    """Representatives of W/V: the echelon basis of {w in W : w vanishes at
    V's pivots}, each basis vector of W reduced against V; None unless V <= W."""
    if not all(contains(w, b) for b in v.basis):
        return None
    return tuple(rref([reduce(v, b) for b in w.basis], w.ambient_dim)[0])


def linear_rows(f, width):
    """The rows of the matrix of a linear map f on Q^width, read off its
    values on the unit vectors."""
    return transpose([f(unit(width, q)) for q in range(width)]) if width else ()


# ---------------------------------------------------------------------------
# Lie algebras
# ---------------------------------------------------------------------------


def freeze(t):
    return tuple(tuple(tuple(map(_fraction, row)) for row in plane) for plane in t)


def bracket_tensor(n, pairs):
    """c[i][j][k] of the pair table, antisymmetric in (i, j)."""
    c = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for (i, j), terms in zip(combinations(range(n), 2), pairs):
        for k, x in terms:
            c[i][j][k], c[j][i][k] = Fraction(x), -Fraction(x)
    return freeze(c)


def antisymmetric_tensor(n, entries):
    """c[i][j] = v and c[j][i] = -v for each {(i, j): v}, i < j; the rest zero."""
    c = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for (i, j), v in entries.items():
        c[i][j] = [Fraction(x) for x in v]
        c[j][i] = [-Fraction(x) for x in v]
    return freeze(c)


def cell_tensor(n, entries):
    """t[i][j] = v for each {(i, j): v}; the rest zero."""
    t = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for (i, j), v in entries.items():
        t[i][j] = [Fraction(x) for x in v]
    return freeze(t)


def table(t):
    """The nonzero (k, x) of each t[i][j], k ascending."""
    return tuple(tuple(tuple((k, x) for k, x in enumerate(row) if x) for row in plane) for plane in t)


def pairs_of(t):
    """The nonzero (k, x) of t[i][j] for the pairs i < j."""
    cells = table(t)
    return tuple(cells[i][j] for i, j in combinations(range(len(t)), 2))


def bilinear(t, x, y):
    """The value of the bilinear map t on (x, y): sum of x_i y_j t[i][j]."""
    out = [ZERO] * len(t)
    ys = nonzero(y)
    for i, xi in nonzero(x):
        plane = t[i]
        for j, yj in ys:
            f = xi * yj
            for k, z in enumerate(plane[j]):
                if z:
                    out[k] += f * z
    return tuple(out)


def units(n):
    return [unit(n, i) for i in range(n)]


def left(t, i, v):
    """t(e_i, v) = sum of v_j t[i][j]."""
    terms = nonzero(v)
    return combination([x for _, x in terms], [t[i][j] for j, _ in terms], len(t))


def right_of(t, v, s):
    """t(v, e_s) = sum of v_k t[k][s]."""
    terms = nonzero(v)
    return combination([x for _, x in terms], [t[k][s] for k, _ in terms], len(t))


def ad(c, x):
    """The matrix of y -> [x, y]."""
    return transpose([bilinear(c, x, e) for e in units(len(c))])


def jacobi(c):
    """(1-based triple, residual) for each i < j < k with a nonzero
    [e_i, [e_j, e_k]] + [e_j, [e_k, e_i]] + [e_k, [e_i, e_j]]."""
    out = []
    for i, j, k in combinations(range(len(c)), 3):
        r = add(add(left(c, i, c[j][k]), left(c, j, c[k][i])), left(c, k, c[i][j]))
        if any(r):
            out.append(((i + 1, j + 1, k + 1), r))
    return tuple(out)


def descending_flag(matrices, n):
    """V_0 = Q^n, V_{r+1} = span{M v : M in matrices, v in V_r}, down to 0 or
    to the last term before a step that does not shrink."""
    flag = [full(n)]
    while flag[-1].dim:
        nxt = span(n, [apply(m, v) for v in flag[-1].basis for m in matrices])
        if nxt.dim == flag[-1].dim:
            break
        flag.append(nxt)
    return tuple(flag)


def nilindex(matrices, n):
    """The smallest r with every r-fold product of the matrices zero, None if
    there is none: V_r of the flag spans the images of the r-fold products."""
    flag = descending_flag(matrices, n)
    return None if flag[-1].dim else len(flag) - 1


def is_nilpotent(m):
    """Whether the n-th power of the n x n matrix m is zero."""
    power = tuple(units(len(m)))
    for _ in range(len(m)):
        power = matmul(power, m)
    return not any(map(any, power))


@cache
def lower_central_series(c):
    """C^0 = g, C^{p+1} = [g, C^p], the flag of the ad_{e_i}."""
    n = len(c)
    return descending_flag([ad(c, e) for e in units(n)], n)


def center_rows(c):
    """[x, e_j]_k = sum of x_i c[i][j][k] as a linear form in x, one row per (j, k)."""
    n = len(c)
    return [tuple(c[i][j][k] for i in range(n)) for j in range(n) for k in range(n)]


def center(c):
    """{x : [x, e_j] = 0 for every j}."""
    return kernel(center_rows(c), len(c))


def derivation_rows(c):
    """D[x, y] - [D x, y] - [x, D y] as linear forms in D flattened row-major,
    D e_b = sum of D[a][b] e_a.  On (e_i, e_j), i < j, the k-th coordinate
    is sum_b D[k][b] c[i][j][b] - sum_a D[a][i] c[a][j][k] - sum_a D[a][j] c[i][a][k]."""
    n = len(c)
    rows = []
    for i, j in combinations(range(n), 2):
        for k in range(n):
            row = [ZERO] * (n * n)
            for b, x in nonzero(c[i][j]):
                row[k * n + b] += x
            for a in range(n):
                if c[a][j][k]:
                    row[a * n + i] -= c[a][j][k]
                if c[i][a][k]:
                    row[a * n + j] -= c[i][a][k]
            rows.append(row)
    return rows


@cache
def derivations(c):
    """{D : D[x, y] = [D x, y] + [x, D y]}."""
    return kernel(derivation_rows(c), len(c) ** 2)


def is_ideal(c, space):
    """[e_i, v] in the subspace for every i and basis vector v."""
    return all(contains(space, left(c, i, v)) for i in range(len(c)) for v in space.basis)


def bracket_span(c, a, b):
    """span{[x, y] : x in A, y in B}."""
    return span(len(c), [bilinear(c, x, y) for x in a.basis for y in b.basis])


def quotient_tensor(c, ideal):
    """The bracket of g/I in the basis of the coordinates that are not pivots
    of I: [e_a, e_b] reduced against I, read at those coordinates."""
    keep = complement(ideal)
    reduced = {(a, b): reduce(ideal, c[a][b]) for a in keep for b in keep}
    return freeze([[[reduced[a, b][k] for k in keep] for b in keep] for a in keep])


def transform_tensor(c, p):
    """The bracket in the basis f_j = sum_i P[i][j] e_i: P^-1 [f_a, f_b]."""
    p_inv = inverse(p)
    cols = transpose(p)
    return freeze([[apply(p_inv, bilinear(c, x, y)) for y in cols] for x in cols])


# ---------------------------------------------------------------------------
# connections
# ---------------------------------------------------------------------------


def gamma_tensor(n, nonzero_gamma):
    """g[i][j][k], the k-th coordinate of e_i . e_j = nabla_{e_i} e_j."""
    t = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for i, plane in enumerate(nonzero_gamma):
        for j, terms in enumerate(plane):
            for k, v in terms:
                t[i][j][k] = Fraction(v)
    return freeze(t)


def nabla(g, x):
    """The matrix of y -> x . y = nabla_x y."""
    return transpose([bilinear(g, x, e) for e in units(len(g))])


def right(g, y):
    """The matrix of x -> x . y, right multiplication by y."""
    return transpose([bilinear(g, e, y) for e in units(len(g))])


def induced_bracket_tensor(g):
    """x . y - y . x on the basis."""
    n = len(g)
    return freeze([[[g[i][j][k] - g[j][i][k] for k in range(n)] for j in range(n)]
                   for i in range(n)])


def torsion(c, g):
    """((i+1, j+1), T(e_i, e_j)) for each i < j with a nonzero
    T(x, y) = x . y - y . x - [x, y]."""
    out = []
    for i, j in combinations(range(len(c)), 2):
        r = sub(sub(g[i][j], g[j][i]), c[i][j])
        if any(r):
            out.append(((i + 1, j + 1), r))
    return tuple(out)


def curvature(c, g):
    """((i+1, j+1, s+1), R(e_i, e_j) e_s) for each i < j and s with a nonzero
    R(x, y) z = x . (y . z) - y . (x . z) - [x, y] . z."""
    out = []
    for i, j in combinations(range(len(c)), 2):
        for s in range(len(c)):
            r = sub(sub(left(g, i, g[j][s]), left(g, j, g[i][s])), right_of(g, c[i][j], s))
            if any(r):
                out.append(((i + 1, j + 1, s + 1), r))
    return tuple(out)


def associator(g):
    """((i+1, j+1, s+1), (e_i, e_j, e_s) - (e_j, e_i, e_s)) for each i < j and
    s where it is nonzero, with (x, y, z) = (x . y) . z - x . (y . z)."""

    def assoc(i, j, s):  # (e_i . e_j) . e_s - e_i . (e_j . e_s)
        return sub(right_of(g, g[i][j], s), left(g, i, g[j][s]))

    out = []
    for i, j in combinations(range(len(g)), 2):
        for s in range(len(g)):
            r = sub(assoc(i, j, s), assoc(j, i, s))
            if any(r):
                out.append(((i + 1, j + 1, s + 1), r))
    return tuple(out)


def traces(g):
    """tr R_{e_j} for each j."""
    return tuple(sum((row[k] for k, row in enumerate(right(g, e))), ZERO) for e in units(len(g)))


def completeness(g):
    """(complete, traces, the uniform nilindex of the nabla_{e_i}, whether
    each right multiplication R_{e_j} is nilpotent)."""
    n = len(g)
    t = traces(g)
    return (
        not any(t),
        t,
        nilindex([nabla(g, e) for e in units(n)], n),
        tuple(nilindex([right(g, e)], n) is not None for e in units(n)),
    )


def rho(g):
    """rho(e_i) = -transpose(nabla_{e_i}), the dual representation."""
    return tuple(tuple(tuple(-x for x in row) for row in g[i]) for i in range(len(g)))


def rho_of(rhos, x):
    """rho(x) = sum of x_i rho(e_i)."""
    n = len(x)
    out = [[ZERO] * n for _ in range(n)]
    for xi, m in zip(x, rhos):
        if xi:
            for r, row in enumerate(m):
                for s, y in enumerate(row):
                    if y:
                        out[r][s] += xi * y
    return tuple(map(tuple, out))


def representation_law(c, rhos):
    """Whether rho([e_i, e_j]) = rho(e_i) rho(e_j) - rho(e_j) rho(e_i) for every i < j."""
    for i, j in combinations(range(len(c)), 2):
        a, b = matmul(rhos[i], rhos[j]), matmul(rhos[j], rhos[i])
        commutator = tuple(tuple(x - y for x, y in zip(r, s)) for r, s in zip(a, b))
        if rho_of(rhos, c[i][j]) != commutator:
            return False
    return True


# ---------------------------------------------------------------------------
# cochains
# ---------------------------------------------------------------------------


def cochain_tensor(n, values):
    """a[i][j][k] = alpha(e_i, e_j)(e_k) of a 2-cochain's coordinates."""
    a = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    pairs = list(combinations(range(n), 2))
    for q, x in enumerate(values):
        if x:
            (i, j), k = pairs[q // n], q % n
            a[i][j][k] = _fraction(x)
            a[j][i][k] = -a[i][j][k]
    return tuple(tuple(map(tuple, plane)) for plane in a)


def cochain_values(n, a):
    """The coordinates of the 2-cochain with tensor a."""
    return tuple(a[i][j][k] for i, j in combinations(range(n), 2) for k in range(n))


def cochain_from_pairs(n, values):
    """The coordinates of {(i, j): alpha(e_i, e_j)}, i < j; the rest zero."""
    return cochain_values(n, antisymmetric_tensor(n, values))


def one_cochain_basis(n, lagrangian):
    """The matrix units E_ik in row-major order, or for C^1_L the E_ii and
    E_ik + E_ki, i < k, in lex order."""
    def matrix(cells):
        return tuple(tuple(ONE if (i, k) in cells else ZERO for k in range(n)) for i in range(n))

    if lagrangian:
        return [matrix({(i, k), (k, i)}) for i in range(n) for k in range(i, n)]
    return [matrix({(i, k)}) for i in range(n) for k in range(n)]


def d1(c, rhos, s):
    """The coordinates of (d sigma)(x, y) = rho(x) sigma(y) - rho(y) sigma(x)
    - sigma([x, y]), sigma(x) = sum of x_i s[i]."""
    n = len(c)
    out = ()
    for i, j in combinations(range(n), 2):
        first, second = apply(rhos[i], s[j]), apply(rhos[j], s[i])
        third = combination(c[i][j], s, n)
        out += tuple(x - y - z for x, y, z in zip(first, second, third))
    return out


def d2(c, rhos, values):
    """(d alpha)(e_i, e_j, e_k) for each i < j < k: the cyclic sum of
    rho(x) alpha(y, z) - alpha([x, y], z)."""
    n = len(c)
    a = cochain_tensor(n, values)
    out = []
    for i, j, k in combinations(range(n), 3):
        r = [ZERO] * n
        for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
            if any(a[y][z]):
                for t, v in enumerate(apply(rhos[x], a[y][z])):
                    r[t] += v
            for m, f in enumerate(c[x][y]):  # -alpha([e_x, e_y], e_z)
                if f:
                    for t, v in enumerate(a[m][z]):
                        if v:
                            r[t] -= f * v
        out.append(tuple(r))
    return tuple(out)


def cyclic_sums(n, values):
    """a(e_i, e_j)_k + a(e_j, e_k)_i + a(e_k, e_i)_j for each i < j < k."""
    a = cochain_tensor(n, values)
    return tuple(a[i][j][k] + a[j][k][i] + a[k][i][j] for i, j, k in combinations(range(n), 3))


def cochain_width(n):
    return n * n * (n - 1) // 2


@cache
def cocycles(c, rhos):
    """(Z^2, Z^2_L): the kernel of d2, and of d2 with the cyclic sums."""
    n = len(c)
    width = cochain_width(n)
    rows = linear_rows(lambda v: sum(d2(c, rhos, v), ()), width)
    cyclic = linear_rows(lambda v: cyclic_sums(n, v), width)
    return kernel(rows, width), kernel(rows + cyclic, width)


@cache
def coboundary_columns(c, rhos, lagrangian):
    """d1 of each basis element of C^1 (or C^1_L)."""
    return tuple(d1(c, rhos, s) for s in one_cochain_basis(len(c), lagrangian))


def coboundaries(c, rhos, lagrangian):
    """B^2 (or B^2_L): the span of d1 of the basis of C^1 (or C^1_L)."""
    return span(cochain_width(len(c)), coboundary_columns(c, rhos, lagrangian))


@dataclass(frozen=True)
class Cohomology:
    z2: Span
    z2_lagrangian: Span
    b2: Span
    b2_lagrangian: Span
    h2_representatives: tuple
    h2_lagrangian_representatives: tuple
    natural_map_rank: int


@cache
def cohomology(c, rhos):
    """Z^2, Z^2_L, B^2, B^2_L, the representatives of H^2 and H^2_L, and the
    rank of H^2_L -> H^2, dim (Z^2_L + B^2) - dim B^2."""
    n = len(c)
    z2, z2l = cocycles(c, rhos)
    b2, b2l = coboundaries(c, rhos, False), coboundaries(c, rhos, True)
    rank = span(cochain_width(n), z2l.basis + b2.basis).dim - b2.dim
    return Cohomology(z2, z2l, b2, b2l, quotient(z2, b2), quotient(z2l, b2l), rank)


def solve_coboundary(c, rhos, alpha, beta, lagrangian):
    """sigma with beta = alpha - d(sigma), as a combination of the basis of
    C^1 (or C^1_L) with every free coefficient zero; None if there is none."""
    n = len(c)
    basis = one_cochain_basis(n, lagrangian)
    columns = coboundary_columns(c, rhos, lagrangian)
    target = tuple(x - y for x, y in zip(alpha, beta))
    x = solve(transpose(columns), target, len(basis))
    if x is None:
        return None
    flat = combination(x, [sum(s, ()) for s in basis], n * n)
    return tuple(flat[i * n:(i + 1) * n] for i in range(n))


# ---------------------------------------------------------------------------
# extensions and forms
# ---------------------------------------------------------------------------


def extension_tensor(c, rhos, values):
    """The bracket of h + h*: [x, y] = [x, y]_h + alpha(x, y), [x, xi] =
    rho(x) xi and [xi, eta] = 0, in the basis (e_1..e_n, e^1..e^n)."""
    n = len(c)
    a = cochain_tensor(n, values)
    t = [[[ZERO] * (2 * n) for _ in range(2 * n)] for _ in range(2 * n)]
    for i in range(n):
        for j in range(n):
            t[i][j] = [*c[i][j], *a[i][j]]
        for m in range(n):
            column = tuple(rhos[i][r][m] for r in range(n))  # rho(e_i) e^m
            t[i][n + m] = [ZERO] * n + list(column)
            t[n + m][i] = [ZERO] * n + [-x for x in column]
    return freeze(t)


def standard_omega(n):
    """[[0, -I], [I, 0]] on (e_1..e_n, e^1..e^n): omega(e_i, e^i) = -1."""
    return tuple(
        tuple(-ONE if q == p + n else ONE if p == q + n else ZERO for q in range(2 * n))
        for p in range(2 * n)
    )


def form_matrix(n, form):
    """The antisymmetric n x n matrix of a form's pair coordinates."""
    m = [[ZERO] * n for _ in range(n)]
    for (i, j), x in zip(combinations(range(n), 2), form):
        m[i][j], m[j][i] = Fraction(x), -Fraction(x)
    return tuple(map(tuple, m))


def pair_coordinates(m):
    """omega[i][j] for the pairs i < j."""
    return tuple(m[i][j] for i, j in combinations(range(len(m)), 2))


def covector(omega, x):
    """omega(x, .) as its values on the basis."""
    terms = nonzero(x)
    return combination([xp for _, xp in terms], [omega[p] for p, _ in terms], len(omega))


def dot(u, v):
    return sum([x * y for x, y in zip(u, v) if x and y], ZERO)


def omega_value(omega, x, y):
    return dot(covector(omega, x), y)


def pullback(omega, vectors):
    """The matrix omega(v_a, v_b)."""
    return tuple(tuple(dot(w, y) for y in vectors) for w in [covector(omega, x) for x in vectors])


def d_omega(c, omega):
    """((i+1, j+1, k+1), dw) on every basis triple, dw(x, y, z) =
    w(x, [y, z]) + w(y, [z, x]) + w(z, [x, y])."""
    n = len(c)
    brackets = [[nonzero(c[i][j]) for j in range(n)] for i in range(n)]

    def w(i, j, k):  # omega(e_i, [e_j, e_k])
        return sum([omega[i][q] * x for q, x in brackets[j][k] if omega[i][q]], ZERO)

    return tuple(
        ((i + 1, j + 1, k + 1), w(i, j, k) + w(j, k, i) + w(k, i, j))
        for i, j, k in combinations(range(n), 3)
    )


def omega_solve(c, omega, lifts, tests):
    """The tensor x[a][b] with sum_t x[a][b][t] omega(u, e_{l_t}) =
    -omega([e_{l_a}, u], e_{l_b}) for every test vector u, l = lifts; None
    when the pairing omega(u, e_{l_t}) is singular."""
    lifts = list(lifts)
    pairing = tuple(tuple(w[l] for l in lifts) for w in (covector(omega, u) for u in tests))
    inv = inverse(pairing)
    if inv is None:
        return None
    gamma = []
    for a in lifts:
        # omega([e_a, u], e_b) for each u, b
        values = [covector(omega, left(c, a, u)) for u in tests]
        gamma.append([apply(inv, [-w[b] for w in values]) for b in lifts])
    return freeze(gamma)


def canonical_gamma(c, omega):
    """omega(nabla_x y, z) = -omega(y, [x, z]) for every z."""
    n = len(c)
    return omega_solve(c, omega, range(n), units(n))


def induced_gamma(c, omega, j):
    """omega(nabla_x y, u) = -omega(y, [x, u]) for u in J, on g/J in the
    coordinates that are not pivots of J."""
    return omega_solve(c, omega, complement(j), j.basis)


def orthogonal(omega, j):
    """{v : omega(u, v) = 0 for every u in J}."""
    return kernel([covector(omega, u) for u in j.basis], len(omega))


@dataclass(frozen=True)
class Reduction:
    """J's orthogonal, whether J is an ideal, its verdict (status, normal),
    and orth(J)/J with the induced form.  The status is not_isotropic,
    not_ideal, lagrangian or isotropic, and normal says whether the
    orthogonal of J is an ideal.

    ``outcome`` is ("refused", status) or ("abnormal",) when J is not a
    normal isotropic ideal; ("degenerate",) or ("open", triple, value) when
    the induced form is degenerate or not closed; else ("reduced", bracket
    tensor, form matrix).
    """

    orthogonal: Span
    is_ideal: bool
    verdict: tuple
    outcome: tuple


def reduction(c, omega, j):
    """The reduction orth(J)/J.  The orthogonal's echelon basis b_a is its
    basis, J is read in it, and the lifts of the quotient are the b_a at the
    coordinates that are not pivots of J inside the orthogonal."""
    perp = orthogonal(omega, j)
    normal, ideal = is_ideal(c, perp), is_ideal(c, j)
    if any(omega_value(omega, u, v) for u in j.basis for v in j.basis):
        status = "not_isotropic"
    elif not ideal:
        status = "not_ideal"
    else:
        status = "lagrangian" if 2 * j.dim == len(c) else "isotropic"
    verdict = status, normal

    def result(outcome):
        return Reduction(perp, ideal, verdict, outcome)

    if status in ("not_ideal", "not_isotropic"):
        return result(("refused", status))
    if not normal:
        return result(("abnormal",))
    r = perp.dim
    inner = freeze([[coordinates(perp, bilinear(c, x, y)) for y in perp.basis] for x in perp.basis])
    j_inside = span(r, [coordinates(perp, u) for u in j.basis])
    reduced = quotient_tensor(inner, j_inside)
    form = pullback(omega, [perp.basis[t] for t in complement(j_inside)])
    if form:
        if len(rref(form, len(form))[1]) < len(form):
            return result(("degenerate",))
        for triple, value in d_omega(reduced, form):
            if value:
                return result(("open", triple, value))
    return result(("reduced", reduced, form))


def psi_matrix(s):
    """(x, xi) -> (x, xi + sigma(x)): column a < n is e_a + sigma(e_a), column
    n + k is e^k."""
    n = len(s)
    cols = [(*unit(n, a), *s[a]) for a in range(n)] + [unit(2 * n, n + k) for k in range(n)]
    return transpose(cols)


def preserves_brackets(c1, c2, psi):
    """The first 1-based basis pair (a, b) with psi [e_a, e_b]_1 != [psi e_a,
    psi e_b]_2, or None."""
    cols = transpose(psi)
    for a, b in combinations(range(len(c1)), 2):
        if apply(psi, c1[a][b]) != bilinear(c2, cols[a], cols[b]):
            return a + 1, b + 1
    return None


def is_symmetric(s):
    return all(s[i][k] == s[k][i] for i in range(len(s)) for k in range(len(s)))


def adjusted_form(s, s_l):
    """psi^T omega psi for psi of sigma_l - sigma and omega the standard form."""
    n = len(s)
    tau = tuple(tuple(x - y for x, y in zip(a, b)) for a, b in zip(s_l, s))
    return pullback(standard_omega(n), transpose(psi_matrix(tau)))


# ---------------------------------------------------------------------------
# pinned internals
# ---------------------------------------------------------------------------
# Details the definitions leave open, pinned because callers rely on them.


def integer_row(row):
    """The coprime int row ``linalg._echelon`` keeps for a row of Fractions or
    ints: the row times the positive rational that makes its entries coprime
    ints.  Pinned: the sign of the row is kept, not made positive."""
    m = lcm(*(Fraction(x).denominator for x in row.values()))
    return _content_free({j: int(Fraction(x) * m) for j, x in row.items()})


def echelon_rows(rows, ints):
    """``linalg._echelon``'s int rows {pivot: row}, extended by rows in place.
    Pinned: each kept row is the coprime int row of its span line with the
    sign the elimination leaves, b r - a k divided by its content, not a row
    made positive; a new pivot is cleared from every kept row, in key order."""
    for row in rows:
        if not row:
            continue
        row = integer_row(row)
        for p in [j for j in row if j in ints]:
            row = _cancel(row, p, ints[p])
        if not row:
            continue
        row = _content_free(row)
        c = min(row)
        for p, prow in ints.items():
            if c in prow:
                ints[p] = _content_free(_cancel(prow, c, row))
        ints[c] = row


def in_span(rows, ints):
    """Whether the rows lie in the span of the int rows {pivot: row}: an
    elimination of the rows into a copy of them adds no pivot."""
    kept = {p: dict(row) for p, row in ints.items()}
    echelon_rows(rows, kept)
    return len(kept) == len(ints)


def _content_free(row):
    g = gcd(*row.values())
    return {j: x // g for j, x in row.items()}


def _cancel(row, c, other):
    """(b row - a other) / g with a = row[c], b = other[c], g their gcd."""
    a, b = row[c], other[c]
    g = gcd(a, b)
    f, a = b // g, a // g
    out = {j: f * x for j, x in row.items()}
    for j, y in other.items():
        x = out.get(j, 0) - a * y
        if x:
            out[j] = x
        else:
            out.pop(j, None)
    return out


def _pair_starts(n):
    """(i, j) -> (start, sign) for i != j: coordinate start + k of a 2-cochain
    is sign * alpha(e_i, e_j)(e_k)."""
    blocks = {}
    for q, (i, j) in enumerate(combinations(range(n), 2)):
        blocks[i, j], blocks[j, i] = (q * n, 1), (q * n, -1)
    return blocks


def d2_rows(n, entries, table):
    """The sparse int rows of d2, one per (triple, t), over rho's nonzero
    (row, column, value) entries and the bracket's nonzero (k, c) cells, as
    int tables.  Pinned: each row's keys in the order every rotation (x, y,
    z) of the triple and then each of rho(x)'s entries and [e_y, e_z]'s
    cells first touches them; entries that cancel dropped; a triple with
    nothing in it keeps its n empty rows."""
    blocks = _pair_starts(n)
    rows = []
    for i, j, k in combinations(range(n), 3):
        out = [{} for _ in range(n)]
        for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
            start, sign = blocks[y, z]
            for t, s, value in entries[x]:
                out[t][start + s] = out[t].get(start + s, 0) + sign * value
            for m, coeff in table[y][z]:
                if m != x:
                    start, sign = blocks[x, m]
                    for t in range(n):
                        out[t][start + t] = out[t].get(start + t, 0) + sign * coeff
        rows += [{col: v for col, v in row.items() if v} for row in out]
    return rows


def d1_unit_images(n, entries, table):
    """The sparse int rows of d1 on the n^2 unit 1-cochains E_ab, row-major,
    over the same int tables as ``d2_rows``.  Pinned: each row's keys in the
    order every x != a ascending, each of rho(x)'s entries in column b, and
    then every pair i < j with a cell of [e_i, e_j] at a first touch them;
    entries that cancel dropped."""
    blocks = _pair_starts(n)
    rows = []
    for a in range(n):
        for b in range(n):
            image = {}
            for x in range(n):
                if x != a:
                    start, sign = blocks[x, a]
                    for t, s, value in entries[x]:
                        if s == b:
                            image[start + t] = image.get(start + t, 0) + sign * value
            for q, (i, j) in enumerate(combinations(range(n), 2)):
                for m, coeff in table[i][j]:
                    if m == a:
                        image[q * n + b] = image.get(q * n + b, 0) - coeff
            rows.append({col: v for col, v in image.items() if v})
    return rows
