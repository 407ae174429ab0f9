import time
from fractions import Fraction as F

import pytest

from lagext.exprs import Expr, ExprError


def test_rational_literals():
    assert Expr.parse("1/2").evaluate() == F(1, 2)
    assert Expr.parse("-3").evaluate() == F(-3)
    assert Expr.parse("7").evaluate() == F(7)


@pytest.mark.parametrize(
    "text,env,expected",
    [
        ("(t+1)/4", {"t": F(1)}, F(1, 2)),
        ("t^2", {"t": F(-3, 2)}, F(9, 4)),
        ("mu/(mu-1)", {"mu": F(3)}, F(3, 2)),
        ("(mu/3)*(2*mu+1)", {"mu": F(1)}, F(1)),
        ("mu e3".split()[0], {"mu": F(5)}, F(5)),
        ("-(2*mu^3)/3", {"mu": F(1, 2)}, F(-1, 12)),
        ("2-mu", {"mu": F(7)}, F(-5)),
        ("mu*(2*mu+1)/3", {"mu": F(2)}, F(10, 3)),
    ],
)
def test_parameter_expressions(text, env, expected):
    assert Expr.parse(text).evaluate(env) == expected


def test_names_collected():
    e = Expr.parse("(mu1-mu)/(mu-1)")
    assert e.names == frozenset({"mu", "mu1"})
    assert not e.is_constant
    assert Expr.parse("3/4").is_constant


def test_source_preserved_and_equality_structural():
    a = Expr.parse("(t+1)/4")
    assert str(a) == "(t+1)/4"
    assert a == Expr.parse("(t+1)/4")
    assert a != Expr.parse("(1+t)/4")  # structural, not semantic


def test_constant_subtrees_fold_to_literals():
    assert Expr.parse("-1/2") == Expr.const(F(-1, 2))
    assert Expr.parse("4/6") == Expr.const(F(2, 3))
    assert Expr.parse("(2+1)/3") == Expr.const(F(1))
    # parameterized structure stays intact
    assert Expr.parse("t/2").ast[0] == "/"


def test_undeclared_parameter_raises():
    with pytest.raises(ExprError):
        Expr.parse("t+1").evaluate({})


def test_bad_syntax():
    for bad in ("", "1+", "(t", "t**2", "£3", "1 2"):
        with pytest.raises(ExprError):
            Expr.parse(bad)


def test_division_by_zero_and_fractional_power():
    with pytest.raises(ExprError):
        Expr.parse("1/(mu-1)").evaluate({"mu": F(1)})
    with pytest.raises(ExprError):
        Expr.parse("2^(1/2)").evaluate({})


@pytest.mark.parametrize(
    "text,message",
    [
        ("", "empty expression"),
        ("1+", "unexpected end of expression in '1+'"),
        ("(t", "unexpected end of expression in '(t'"),
        ("t**2", "unexpected token '*' in 't**2'"),
        ("£3", "bad character in expression '£3' at offset 0"),
        ("²", "bad character in expression '²' at offset 0"),
        ("1 2", "trailing tokens in expression '1 2'"),
        ("3)", "trailing tokens in expression '3)'"),
        (")", "unexpected token ')' in ')'"),
        ("1/0", "division by zero while evaluating expression"),
        ("2^(1/2)", "exponent must be an integer"),
    ],
)
def test_error_messages_are_pinned(text, message):
    with pytest.raises(ExprError) as caught:
        Expr.parse(text).evaluate({})
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "text,value", [("007", F(7)), ("٣", F(3)), ("12/08", F(3, 2)), ("0", F(0)), ("3^2", F(9))]
)
def test_digit_tokens_read_as_fraction_literals(text, value):
    # Every token of decimal digits, leading zeros and non-ASCII digits too.
    expr = Expr.parse(text)
    assert expr.ast == ("num", value) and type(expr.ast[1]) is F
    assert type(expr.evaluate()) is F


@pytest.mark.parametrize(
    "text,message",
    [
        ("7^1000000", "exponent 1000000 exceeds the bound 1024"),
        ("9^9^9", "exponent 387420489 exceeds the bound 1024"),
        ("2^-1025", "exponent -1025 exceeds the bound 1024"),
        ("(7^1024)^1024", "power with exponent 1024 exceeds the bound of 65536 bits"),
        ("((7^1024)^1024)^16", "power with exponent 1024 exceeds the bound of 65536 bits"),
        ("(2^1024)^-64", "power with exponent -64 exceeds the bound of 65536 bits"),
    ],
)
def test_a_constant_exponent_beyond_the_bound_is_refused_before_the_power(text, message):
    # The message comes from the check made before the power is taken: the
    # power 7^1000000 alone takes about 0.1 s, and 9^(9^9) would not finish.
    # An exponent within the bound is refused when the result would pass
    # 65536 bits: (7^1024)^1024 alone has about 2.9 million.
    start = time.perf_counter()
    with pytest.raises(ExprError) as caught:
        Expr.parse(text)
    assert time.perf_counter() - start < 0.5
    assert str(caught.value) == message


def test_a_parameter_exponent_beyond_the_bound_is_refused_on_evaluation():
    expr = Expr.parse("t^mu")
    start = time.perf_counter()
    with pytest.raises(ExprError, match="^exponent 10000000 exceeds the bound 1024$"):
        expr.evaluate({"t": F(7), "mu": F(10000000)})
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize(
    "text,env,expected",
    [
        ("2^1024", {}, F(2 ** 1024)),
        ("2^-1024", {}, F(1, 2 ** 1024)),
        ("t^mu", {"t": F(-1), "mu": F(1024)}, F(1)),
        ("t^2", {"t": F(3, 2)}, F(9, 4)),
        ("mu^3", {"mu": F(-2)}, F(-8)),
        ("(t^1024)^mu", {"t": F(2), "mu": F(63)}, F(2 ** (1024 * 63))),
    ],
)
def test_exponents_up_to_the_bound_are_evaluated(text, env, expected):
    assert Expr.parse(text).evaluate(env) == expected


def test_a_parameter_power_beyond_the_size_bound_is_refused_on_evaluation():
    expr = Expr.parse("(t^1024)^mu")
    start = time.perf_counter()
    with pytest.raises(ExprError, match="^power with exponent 1024 exceeds the bound of 65536 bits$"):
        expr.evaluate({"t": F(7), "mu": F(1024)})
    assert time.perf_counter() - start < 0.5
