"""The inputs the test modules share, and the helpers that read them.

The flat ``verify-catalog`` samples, the seeded draws made on them
(cocycles, 1-cochains, changes of basis, directions), the connections moved
off them by a cell, and the plain data ``reference`` takes, read off lagext
objects.  Each draw keeps its seed, so a test that moved here sees the same
inputs it always did.
"""

import ast
from fractions import Fraction as F
from types import SimpleNamespace

import pytest
from click.testing import CliRunner
from hypothesis import strategies as st

import reference
from lagext.catalog import instantiate, sample_parameters, table1_entries
from lagext.cohomology import (
    OneCochain,
    TwoCochain,
    cocycle_bases,
    two_cochain_from_coefficients,
)
from lagext.connection import FlatConnection, check_flat_torsion_free, dual_representation
from lagext.extension import ExtensionTriple, IntegrityError, build_extension
from lagext.lie import LieAlgebra
from lagext.linalg import RatMatrix, Subspace, _integer_tables
from lagext.sampling import random_rational, rng_for

L26_TEXT = """algebra l_26 dim 4
bracket e1 e2 -> 1 e3
connection e1 e2 -> 1/2 e3
connection e2 e1 -> -1/2 e3
"""


# ---------------------------------------------------------------------------
# the catalog inputs
# ---------------------------------------------------------------------------


def flat_samples(samples=3):
    """Each flat torsion-free non-suspect catalog sample, as a fresh connection:
    108 at 3 samples, 86 at 2 and 64 at 1, in catalog order."""
    for entry in table1_entries():
        if entry.suspect:
            continue
        for sample in sample_parameters(entry, samples):
            conn = instantiate(entry, sample)
            if check_flat_torsion_free(conn).ok:
                yield conn


def flat_row_extensions():
    """The zero extension of each flat non-suspect catalog row, at its first sample."""
    for conn in flat_samples(1):
        yield build_extension(ExtensionTriple.with_zero_cocycle(conn))


def truncated_polynomial_connection(lambdas):
    """b_i . b_j = l_i l_j / l_(i+j) b_(i+j) on abelian R^n: flat, torsion-free, complete."""
    n = len(lambdas)
    entries = {}
    for i in range(1, n):
        for j in range(1, n + 1 - i):
            v = [F(0)] * n
            v[i + j - 1] = lambdas[i - 1] * lambdas[j - 1] / lambdas[i + j - 1]
            entries[(i - 1, j - 1)] = tuple(v)
    return FlatConnection.from_entries(LieAlgebra.abelian(n), entries, label=f"trunc{n}")


@pytest.fixture
def runner():
    """A click test runner for the ``lagext`` command line."""
    return CliRunner()


# ---------------------------------------------------------------------------
# seeded and drawn inputs
# ---------------------------------------------------------------------------


def sparse_vector(n, entries):
    """A hypothesis strategy of vectors of n entries, each drawn from ``entries``."""
    return st.lists(entries, min_size=n, max_size=n).map(tuple)


def random_lagrangian_cocycle(conn, rng):
    """A seeded combination of the Z2_L basis of conn's dual representation."""
    _, z2l = cocycle_bases(dual_representation(conn))
    coeffs = tuple(random_rational(rng) for _ in range(z2l.dim))
    return two_cochain_from_coefficients(z2l, coeffs, conn.dim)


def random_cocycle(conn, rng):
    """A seeded combination of the Z2 basis of conn's dual representation."""
    z2, _ = cocycle_bases(dual_representation(conn))
    coeffs = tuple(random_rational(rng) for _ in range(z2.dim))
    return two_cochain_from_coefficients(z2, coeffs, conn.dim)


def seeded_one_cochains(n, rng):
    """A seeded 1-cochain, its symmetric part, and one matrix unit."""
    rows = [[random_rational(rng) for _ in range(n)] for _ in range(n)]
    symmetric = [[rows[i][k] + rows[k][i] for k in range(n)] for i in range(n)]
    unit = OneCochain.unit(n, rng.randrange(n), rng.randrange(n))
    return [OneCochain.from_rows(rows), OneCochain.from_rows(symmetric), unit]


def seeded_unitriangular(n, rng):
    """I plus seeded entries above the diagonal, one in three nonzero: invertible."""
    return RatMatrix.from_rows([
        [F(1) if a == b else F(rng.choice((0, 0, 0, 0, 1, -1))) / 2 if a < b else F(0)
         for b in range(n)]
        for a in range(n)
    ])


def seeded_directions(seed, label, n, count):
    """``count`` seeded nonzero vectors of Q^n."""
    rng = rng_for(seed, label)
    directions = []
    while len(directions) < count:
        v = tuple(random_rational(rng) for _ in range(n))
        if any(x != 0 for x in v):
            directions.append(v)
    return directions


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


# ---------------------------------------------------------------------------
# the plain data the reference takes
# ---------------------------------------------------------------------------


def scaled_operators(matrices):
    """Square dense matrices as the int operators ``descending_flag`` reads:
    each the tuple of its sparse columns, all scaled by one D to ints, as the
    connection's tables are."""
    columns = [
        tuple((k, x) for k, x in enumerate(col) if x) for m in matrices for col in zip(*m.entries)
    ]
    _, cells = _integer_tables(columns)
    starts = [0]
    for m in matrices:
        starts.append(starts[-1] + m.cols)
    return tuple(cells[a:b] for a, b in zip(starts, starts[1:]))


def brackets(algebra):
    """The bracket tensor of a LieAlgebra, from its pairs."""
    return reference.bracket_tensor(algebra.dim, algebra.pairs)


def gamma(conn):
    """The gamma tensor of a FlatConnection, from its nonzero table."""
    return reference.gamma_tensor(conn.dim, conn.nonzero_gamma)


def rho(conn):
    """The dual representation's matrices, from the gamma table."""
    return reference.rho(gamma(conn))


def form(s):
    """The matrix of a SymplecticLieAlgebra's form, from its pair coordinates."""
    return reference.form_matrix(s.dim, s.form)


def spanned(space):
    """A Subspace as the reference's echelon span of its basis vectors."""
    return reference.span(space.ambient_dim, space.basis)


SUMMARY_FIELDS = (
    "dim_c1", "dim_c1_lagrangian", "dim_z2", "dim_b2", "dim_b2_lagrangian",
    "dim_z2_lagrangian", "dim_h2", "dim_h2_lagrangian", "natural_map_rank",
    "h2_representatives", "h2_lagrangian_representatives",
)


def summary(*values):
    """A plain record of the nine dimensions and the two representative
    tuples of a cohomology summary, in the order of ``SUMMARY_FIELDS``."""
    return SimpleNamespace(**dict(zip(SUMMARY_FIELDS, values, strict=True)))


def expected_cohomology(rep):
    """The reference's cohomology summary of a dual representation, as a ``summary``."""
    n = rep.dim
    h = reference.cohomology(brackets(rep.connection.base), rho(rep.connection))
    return summary(
        n * n,
        n * (n + 1) // 2,
        h.z2.dim,
        h.b2.dim,
        h.b2_lagrangian.dim,
        h.z2_lagrangian.dim,
        h.z2.dim - h.b2.dim,
        h.z2_lagrangian.dim - h.b2_lagrangian.dim,
        h.natural_map_rank,
        tuple(TwoCochain(n, v) for v in h.h2_representatives),
        tuple(TwoCochain(n, v) for v in h.h2_lagrangian_representatives),
    )


# ---------------------------------------------------------------------------
# comparing
# ---------------------------------------------------------------------------


def typed(value):
    """Nested tuples with each scalar paired with its type, so 0 != Fraction(0);
    a subspace as its ambient dimension, basis and pivots."""
    kind = type(value)
    if kind is tuple or kind is list:
        return tuple(map(typed, value))
    if kind is Subspace or kind is reference.Span:
        return (value.ambient_dim, typed(value.basis), tuple(value.pivots))
    if kind is RatMatrix:
        return typed(value.entries)
    return (kind, value)


def summary_text(s):
    """The nine dimensions and both representative tuples of a cohomology
    summary (or of a ``summary``), each spelled by ``repr``, so values and
    scalar types must both agree: ``CohomologySummary(dim_c1=..., ...,
    h2_lagrangian_representatives=...)``, the dataclass repr of the summary
    while its representatives were fields."""
    fields = ", ".join(f"{name}={getattr(s, name)!r}" for name in SUMMARY_FIELDS)
    return f"CohomologySummary({fields})"


def outcome(call):
    """call()'s value, or the type and message of the ValueError or
    IntegrityError it raises."""
    try:
        return call()
    except (ValueError, IntegrityError) as exc:
        return type(exc), str(exc)


def vector_text(v):
    """A vector as lagext's messages write it: "(x1, ..., xn)"."""
    return "(" + ", ".join(str(x) for x in v) + ")"


def counting(monkeypatch, module, names):
    """Count the calls of module.name for each name, made through the module."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(module, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(module, name, counted)
    return calls


def attribute_reads(source: str, attr: str, allowed: set[str]) -> list[str]:
    """Each ``.attr`` read outside the allowed functions, tagged with line and scope."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Attribute) and node.attr == attr and scope not in allowed:
            found.append(f"line {node.lineno} in {scope or '<module>'}: .{attr}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return found
