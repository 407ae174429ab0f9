from fractions import Fraction as F

import pytest

from lagext.catalog import base_algebra
from lagext.extension import SymplecticForm, SymplecticLieAlgebra
from lagext.specfile import (
    DuplicateCellError,
    SpecParseError,
    build_algebra,
    build_cocycle,
    build_connection,
    build_omega,
    parse_spec,
    serialize_spec,
    spec_from_symplectic,
)

L26_TEXT = """# running example
algebra l_26 dim 4
bracket e1 e2 -> 1 e3
connection e1 e2 -> 1/2 e3
connection e2 e1 -> -1/2 e3
"""


def test_parse_basic_blocks():
    spec = parse_spec(L26_TEXT)
    assert spec.name == "l_26" and spec.dim == 4
    assert len(spec.brackets) == 1 and len(spec.connection) == 2
    algebra = build_algebra(spec)
    assert algebra.bracket == base_algebra("l").bracket


def test_round_trip_stability():
    spec = parse_spec(L26_TEXT)
    assert parse_spec(serialize_spec(spec)) == spec
    # twice more, byte-stable after the first serialization
    once = serialize_spec(spec)
    assert serialize_spec(parse_spec(once)) == once


def test_empty_bracket_section_is_abelian():
    spec = parse_spec("algebra r4 dim 4\n")
    algebra = build_algebra(spec)
    assert algebra.bracket == base_algebra("a").bracket


def test_index_out_of_range_reports_line():
    with pytest.raises(SpecParseError) as err:
        parse_spec("algebra x dim 2\nconnection e1 e2 -> 1/2 e3\n")
    assert "line 2" in str(err.value)


def test_unknown_keyword_and_missing_algebra():
    with pytest.raises(SpecParseError):
        parse_spec("algebra x dim 2\nfrobnicate e1\n")
    with pytest.raises(SpecParseError):
        parse_spec("bracket e1 e2 -> 1 e3\n")


def test_undeclared_parameter_rejected():
    text = "algebra x dim 4\nconnection e1 e1 -> t e3\n"
    with pytest.raises(SpecParseError) as err:
        parse_spec(text)
    assert "undeclared" in str(err.value)


@pytest.mark.parametrize(
    "text, line, names",
    [
        ("algebra x dim 4\nparam t\n# mu is not declared\nconnection e1 e1 -> t e3 + mu e4\n"
         "omega e1 e2 -> nu\n", 4, "mu"),
        ("algebra x dim 4\nomega e1 e2 -> a*b + c\nparam c\n", 2, "a, b"),
        ("algebra x dim 4\nparam t exclude mu,t\nconnection e1 e1 -> t e3\n", 2, "mu"),
        ("algebra x dim 4\nparam mu\ncocycle e1 e2 -> mu e^1\nbracket e1 e2 -> nu e3\n", 4, "nu"),
    ],
    ids=["connection", "omega", "exclude", "bracket"],
)
def test_an_undeclared_parameter_is_named_by_the_first_line_that_reads_it(text, line, names):
    with pytest.raises(SpecParseError) as err:
        parse_spec(text)
    assert err.value.line_no == line
    assert str(err.value) == f"line {line}: undeclared parameters: {names}"


def test_param_constraints_parse_and_serialize():
    text = (
        "algebra x dim 4\n"
        "param t positive\n"
        "param mu exclude 0,1\n"
        "param mu1 exclude mu*(2*mu+1)/3\n"
        "param s gt 1/2\n"
        "param r free\n"
        "connection e1 e1 -> t e3 + mu e2\n"
        "connection e2 e2 -> mu1 e3 + s e1 + r e4\n"
    )
    spec = parse_spec(text)
    assert parse_spec(serialize_spec(spec)) == spec
    by_name = {p.name: p for p in spec.params}
    assert by_name["t"].kind == "positive"
    assert [str(e) for e in by_name["mu"].excluded] == ["0", "1"]
    assert by_name["s"].greater_than == F(1, 2)
    assert not by_name["mu1"].admits(F(10, 3), {"mu": F(2), "mu1": F(10, 3)})
    assert by_name["mu1"].admits(F(3), {"mu": F(2), "mu1": F(3)})


def test_connection_with_parameters_builds_with_env():
    text = (
        "algebra l_3 dim 4\n"
        "bracket e1 e2 -> 1 e3\n"
        "param t positive\n"
        "connection e1 e1 -> 1 e3\n"
        "connection e2 e1 -> -1 e3\n"
        "connection e2 e2 -> (t+1)/4 e3\n"
        "connection e4 e4 -> 1 e3\n"
    )
    spec = parse_spec(text)
    conn = build_connection(spec, build_algebra(spec), {"t": F(1)})
    assert conn.gamma[1][1] == (0, 0, F(1, 2), 0)


def test_duplicate_connection_cells_conflict():
    text = (
        "algebra bad dim 4\n"
        "connection e2 e2 -> -1/2 e3\n"
        "connection e2 e2 -> 1 e4\n"
    )
    spec = parse_spec(text)
    with pytest.raises(DuplicateCellError) as err:
        build_connection(spec, build_algebra(spec), {})
    assert err.value.duplicates == ((2, 2),)


def test_omega_block_builds_antisymmetric_matrix():
    text = (
        "algebra s dim 4\n"
        "omega e1 e^1 -> -1\n"
        "omega e2 e^2 -> -1\n"
    )
    spec = parse_spec(text)
    # omega(e_i, e_j) over the pairs (1,2), (1,3), (1,4), (2,3), (2,4), (3,4)
    assert build_omega(spec) == SymplecticForm(4, (0, F(-1), 0, 0, F(-1), 0))
    omega = SymplecticLieAlgebra(build_algebra(spec), build_omega(spec)).omega
    assert omega[0, 2] == F(-1) and omega[2, 0] == F(1)
    assert omega[1, 3] == F(-1) and omega[3, 1] == F(1)


@pytest.mark.parametrize("text", ["", "# a comment only\n", "bracket e1 e2 -> 1 e3\n"])
def test_text_without_an_algebra_line_is_refused_at_line_1(text):
    with pytest.raises(SpecParseError) as err:
        parse_spec(text)
    assert str(err.value) == "line 1: missing 'algebra NAME dim N' line"


def test_dual_tokens_require_even_dimension():
    with pytest.raises(SpecParseError):
        parse_spec("algebra odd dim 3\nomega e1 e^1 -> 1\n")


def test_cocycle_block_values_in_dual_coordinates():
    text = (
        "algebra l_26 dim 4\n"
        "bracket e1 e2 -> 1 e3\n"
        "cocycle e1 e2 -> 1 e^3 + -1/2 e^4\n"
    )
    spec = parse_spec(text)
    alpha = build_cocycle(spec)
    assert alpha.tensor[0][1] == (0, 0, F(1), F(-1, 2))
    assert alpha.tensor[1][0] == (0, 0, F(-1), F(1, 2))


def test_cocycle_rhs_must_be_dual():
    with pytest.raises(SpecParseError):
        parse_spec("algebra x dim 4\ncocycle e1 e2 -> 1 e3\n")


def test_spec_from_symplectic_round_trips():
    from lagext.catalog import connection_for
    from lagext.cohomology import TwoCochain
    from lagext.extension import ExtensionTriple, build_extension

    ext = build_extension(ExtensionTriple(connection_for("l_26"), TwoCochain.zero(4)))
    spec = spec_from_symplectic("l_26_ext", ext.algebra, ext.omega)
    text = serialize_spec(spec)
    reparsed = parse_spec(text)
    assert reparsed == spec
    algebra = build_algebra(reparsed)
    assert algebra.bracket == ext.algebra.bracket
    assert build_omega(reparsed) == ext.form


def test_comments_and_blank_lines_ignored():
    text = "\n# header\nalgebra x dim 2   # trailing\n\nbracket e1 e2 -> 1 e1\n"
    spec = parse_spec(text)
    assert spec.name == "x"
    assert len(spec.brackets) == 1


def test_a_term_without_coefficient_reads_and_writes_as_one():
    from lagext.exprs import Expr
    from lagext.specfile import format_rhs, parse_rhs

    terms = parse_rhs("e3 + 1 e^1 + 1/2 e2 + -1 e4")
    assert [term.coeff for term in terms] == [Expr.const(1), Expr.const(1), Expr.const(F(1, 2)), Expr.const(-1)]
    assert [type(term.coeff.evaluate()) for term in terms] == [F] * 4
    # A coefficient equal to 1 is left out, however it was written.
    assert format_rhs(terms) == "e3 + e^1 + 1/2 e2 + -1 e4"
    assert format_rhs(parse_rhs("2/2 e1 + (1) e2 + t e3")) == "e1 + e2 + t e3"
