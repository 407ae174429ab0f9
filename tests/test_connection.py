import re
from fractions import Fraction as F

import pytest
import sympy

import reference
from inputs import brackets, flat_samples, gamma
from lagext.catalog import base_algebra, connection_for
from lagext.cohomology import TwoCochain
from lagext.connection import (
    FlatConnection,
    check_flat_torsion_free,
    dual_representation,
    induced_bracket,
    is_geodesically_complete,
    _uniform_nilindex,
)
from lagext.lie import LieAlgebra
from lagext.linalg import RatMatrix, _integer_tables, vec
from lagext.sampling import random_rational, rng_for


def test_l26_is_flat_torsion_free():
    report = check_flat_torsion_free(connection_for("l_26"))
    assert report.ok and not report.associator


def test_a3_is_flat_torsion_free():
    report = check_flat_torsion_free(connection_for("a_3"))
    assert report.ok


def test_zero_connection_on_l_has_torsion():
    conn = FlatConnection.zero(base_algebra("l"))
    report = check_flat_torsion_free(conn)
    assert not report.torsion_free
    assert report.torsion[0][0] == (1, 2)
    assert report.torsion[0][1] == vec((0, 0, -1, 0))


def test_induced_bracket_of_l26_is_l():
    assert induced_bracket(connection_for("l_26")).bracket == base_algebra("l").bracket


def test_symmetric_gamma_induces_abelian():
    conn = FlatConnection.from_entries(
        LieAlgebra.abelian(3), {(0, 1): (0, 0, 1), (1, 0): (0, 0, 1)}
    )
    assert induced_bracket(conn).bracket == LieAlgebra.abelian(3).bracket


def test_t8_induces_t():
    assert induced_bracket(connection_for("t_8")).bracket == base_algebra("t").bracket


def test_l26_and_a10_complete_with_nilpotent_evidence():
    for label in ("l_26", "a_10"):
        evidence = is_geodesically_complete(connection_for(label))
        assert evidence.complete
        assert all(t == 0 for t in evidence.traces)
        assert evidence.all_nilpotent
        assert evidence.nabla_nilindex == 2


def test_one_dimensional_incomplete_example():
    conn = FlatConnection.from_entries(LieAlgebra.abelian(1), {(0, 0): (1,)})
    evidence = is_geodesically_complete(conn)
    assert evidence.complete is False
    assert evidence.traces == (F(1),)
    assert evidence.nabla_nilindex is None
    assert not evidence.all_nilpotent


def unit_matrix(n, r, c):
    """E_rc: 1 in row r, column c (1-based), 0 elsewhere."""
    return RatMatrix(
        tuple(tuple(F(int((i, j) == (r - 1, c - 1))) for j in range(n)) for i in range(n))
    )


def nilindex(matrices):
    """``_uniform_nilindex`` of dense matrices, each passed as its sparse
    columns, scaled to ints as the connection's tables are."""
    _, operators = _integer_tables(*(
        tuple(tuple((k, x) for k, x in enumerate(col) if x) for col in zip(*m.entries))
        for m in matrices
    ))
    return _uniform_nilindex(operators)


def test_engel_flag_needs_every_product_not_every_generator():
    e12, e21 = unit_matrix(2, 1, 2), unit_matrix(2, 2, 1)
    assert reference.nilindex([e12.entries], 2) == reference.nilindex([e21.entries], 2) == 2
    # Each generator is nilpotent, yet E12 E21 is a nonzero idempotent.
    assert nilindex([e12, e21]) is None


def test_engel_flag_gives_the_exact_index_of_strictly_upper_triangular_sets():
    e12, e23, e34, e13 = (unit_matrix(4, r, c) for r, c in ((1, 2), (2, 3), (3, 4), (1, 3)))
    assert nilindex([e12, e23, e34]) == 4  # E12 E23 E34 = E14
    assert nilindex([e12, e34]) == 2
    assert nilindex([e12, e23, e13]) == 3
    assert nilindex([e13]) == 2
    assert nilindex([RatMatrix(((F(0),) * 4,) * 4)]) == 1
    assert nilindex([]) == 0


def sympy_nabla_is_nilpotent(conn):
    """Whether (sum_i x_i nabla_{e_i})^n is the zero polynomial matrix."""
    n = conn.dim
    xs = sympy.symbols(f"x1:{n + 1}")
    nabla_x = sympy.zeros(n, n)
    g = gamma(conn)
    for i, x in enumerate(xs):
        entries = reference.nabla(g, reference.unit(n, i))
        nabla_x += x * sympy.Matrix(
            [[sympy.Rational(v.numerator, v.denominator) for v in row] for row in entries]
        )
    return all(sympy.expand(v) == 0 for v in nabla_x**n)


def test_engel_flag_agrees_with_symbolic_nilpotency_of_nabla_x():
    checked = 0
    for conn in flat_samples():
        index = is_geodesically_complete(conn).nabla_nilindex
        assert sympy_nabla_is_nilpotent(conn) == (index is not None)
        checked += 1
    assert checked == 108
    line = FlatConnection.from_entries(LieAlgebra.abelian(1), {(0, 0): (1,)})
    assert not sympy_nabla_is_nilpotent(line)
    assert is_geodesically_complete(line).nabla_nilindex is None


def test_gamma_table_of_the_wrong_shape_is_rejected():
    with pytest.raises(ValueError, match=r"^gamma table shape does not match base dimension$"):
        FlatConnection(LieAlgebra.abelian(2), (((), ()),))
    with pytest.raises(ValueError, match=r"^gamma table shape does not match base dimension$"):
        FlatConnection(LieAlgebra.abelian(2), (((), ()), ((),)))


@pytest.mark.parametrize(
    "table, message",
    [
        (((((0, F(0)),), ()), ((), ())), r"^gamma cell \(0, 0\) lists \(\(0, Fraction\(0, 1\)\),\); "),
        ((((), ((1, F(1)), (0, F(1)))), ((), ())), r"^gamma cell \(0, 1\) lists "),
        ((((), ()), ((), ((2, F(1)),))), r"^gamma cell \(1, 1\) lists .*in range\(2\)"),
        ((((), ()), (((0, 1),), ())), r"^gamma cell \(1, 0\) lists .*nonzero Fraction c$"),
    ],
    ids=["zero-v", "k-descending", "k-out-of-range", "int-v"],
)
def test_gamma_table_that_is_not_canonical_is_rejected(table, message):
    # A zero v or an unsorted k would make == and hash disagree with the connection.
    with pytest.raises(ValueError, match=message):
        FlatConnection(LieAlgebra.abelian(2), table)


def test_completeness_requires_flat_torsion_free():
    conn = FlatConnection.zero(base_algebra("l"))
    with pytest.raises(ValueError):
        is_geodesically_complete(conn)


def rho_columns(rep):
    """The columns of each rho(e_i), read off the representation's nonzero entries."""
    n = rep.dim
    mats = [[[F(0)] * n for _ in range(n)] for _ in range(n)]
    for m, entries in zip(mats, rep.nonzero_entries):
        for r, c, value in entries:
            m[c][r] = value
    return [[tuple(col) for col in m] for m in mats]


def test_dual_representation_of_l26():
    cols = rho_columns(dual_representation(connection_for("l_26")))
    # rho(e1) e^3 = -1/2 e^2, rho(e2) e^3 = 1/2 e^1, all else zero
    assert cols[0][2] == vec((0, F(-1, 2), 0, 0))
    assert cols[1][2] == vec((F(1, 2), 0, 0, 0))
    for i, m in enumerate(cols):
        for c in range(4):
            if (i, c) not in ((0, 2), (1, 2)):
                assert all(x == 0 for x in m[c])


def test_dual_representation_of_zero_connection_vanishes():
    rep = dual_representation(FlatConnection.zero(LieAlgebra.abelian(4)))
    assert not any(x for m in rho_columns(rep) for col in m for x in col)


def test_dual_representation_of_a10():
    rep = dual_representation(connection_for("a_10"))
    assert rho_columns(rep)[3][0] == vec((0, 0, 0, -1))


def test_dual_representation_needs_flatness():
    # nabla_{e1}e1 = e2, nabla_{e2}e2 = e1 on abelian R^2 is symmetric but curved
    conn = FlatConnection.from_entries(
        LieAlgebra.abelian(2), {(0, 0): (0, 1), (1, 1): (1, 0)}
    )
    report = check_flat_torsion_free(conn)
    assert report.torsion_free and not report.flat
    with pytest.raises(ValueError):
        dual_representation(conn)


def test_representation_law_on_catalog_samples():
    for label in ("l_26", "t_8", "a_3", "l_17"):
        conn = connection_for(label, **({"t": F(2)} if label == "l_17" else {}))
        rhos = [reference.transpose(m) for m in rho_columns(dual_representation(conn))]
        assert reference.representation_law(brackets(conn.base), rhos)


def test_kv_formulation_agrees_on_random_connections():
    # The torsion/curvature checks and the KV associator must always agree;
    # check_flat_torsion_free raises internally if they ever diverge.
    rng = rng_for(3, "random-connections")
    base = base_algebra("l")
    for _ in range(25):
        entries = {}
        for i in range(4):
            for j in range(4):
                entries[(i, j)] = tuple(random_rational(rng) for _ in range(4))
        conn = FlatConnection.from_entries(base, entries)
        report = check_flat_torsion_free(conn)
        assert report.kv_consistent


def test_verdicts_are_computed_once_per_connection():
    conn = connection_for("l_26")
    assert check_flat_torsion_free(conn) is check_flat_torsion_free(conn)
    assert is_geodesically_complete(conn) is is_geodesically_complete(conn)
    assert dual_representation(conn) is dual_representation(conn)
    assert conn.report is check_flat_torsion_free(conn)


def test_failed_verdicts_raise_on_every_call():
    conn = connection_for("t_6")  # neither torsion-free nor flat as shipped
    for _ in range(3):
        with pytest.raises(ValueError) as dual_error:
            dual_representation(conn)
        assert str(dual_error.value) == (
            "connection is not flat; the dual action is not a representation"
        )
        with pytest.raises(ValueError) as complete_error:
            is_geodesically_complete(conn)
        assert str(complete_error.value) == "connection is not flat and torsion-free"


ABELIAN_3 = LieAlgebra.abelian(3)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: LieAlgebra.from_brackets(3, {(0, 1): (0, 0, 1, 5)}),
         "value of pair (0, 1) has length 4, not 3"),
        (lambda: LieAlgebra.from_brackets(3, {(0, 2): (0, 1)}),
         "value of pair (0, 2) has length 2, not 3"),
        (lambda: FlatConnection.from_entries(ABELIAN_3, {(1, 0): (0, 0, 1, 5)}),
         "value of pair (1, 0) has length 4, not 3"),
        (lambda: FlatConnection.from_entries(ABELIAN_3, {(2, 2): (1,)}),
         "value of pair (2, 2) has length 1, not 3"),
        (lambda: FlatConnection.from_entries(ABELIAN_3, {(-1, 0): (0, 0, 1)}),
         "bad connection index pair (-1, 0)"),
        (lambda: FlatConnection.from_entries(ABELIAN_3, {(0, 3): (0, 0, 1)}),
         "bad connection index pair (0, 3)"),
        (lambda: TwoCochain.from_pairs(3, {(0, 1): (0, 0, 1, 5)}),
         "value of pair (0, 1) has length 4, not 3"),
        (lambda: TwoCochain.from_pairs(3, {(1, 2): ()}),
         "value of pair (1, 2) has length 0, not 3"),
    ],
    ids=[
        "bracket-long", "bracket-short", "connection-long", "connection-short",
        "connection-negative-index", "connection-index-past-dim", "cochain-long", "cochain-short",
    ],
)
def test_builders_reject_a_bad_pair_by_name(build, message):
    """A value longer or shorter than the dimension, or a connection index out
    of range, is a ValueError naming the pair: not a silently dropped tail, a
    bare IndexError, or a negative index that wraps round to another slot."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()
