"""The direct read of plain rational literals in ``Expr.parse``, against the grammar.

A stripped text fully matched by ``-?\\d+(/\\d+)?`` with a nonzero denominator
is read straight into ("num", value); every other text goes through the
tokenizer, the recursive-descent parser and ``_fold_constants``.  Both must
give the same source text and the same folded AST, the value a ``Fraction``,
and every malformed text the same ``ExprError``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from lagext.catalog import table1_entries
from lagext.exprs import Expr, ExprError, _fold_constants, _Parser, _tokenize


def grammar_parse(text):
    """``Expr.parse`` with every text through the grammar."""
    text = text.strip()
    if not text:
        raise ExprError("empty expression")
    parser = _Parser(_tokenize(text), text)
    ast = parser.parse_sum()
    if parser.peek() is not None:
        raise ExprError(f"trailing tokens in expression {text!r}")
    return Expr(text, _fold_constants(ast))


def outcome(parse, text):
    try:
        expr = parse(text)
    except ExprError as exc:
        return ("error", str(exc))
    return ("expr", expr.source, expr.ast, type(expr.ast[1]) if expr.ast[0] == "num" else None)


def assert_same_as_grammar(text):
    assert outcome(Expr.parse, text) == outcome(grammar_parse, text)


ascii_digits = st.text("0123456789", min_size=1, max_size=6)
unicode_digits = st.text(st.characters(whitelist_categories=("Nd",)), min_size=1, max_size=4)
digits = st.one_of(ascii_digits, unicode_digits, st.sampled_from(["0", "00", "007", "14"]))


@st.composite
def literals(draw):
    """p, -p, p/q or -p/q, with leading zeros, zeros and Unicode decimal digits."""
    text = draw(st.sampled_from(["", "-"])) + draw(digits)
    if draw(st.booleans()):
        text += "/" + draw(digits)
    return draw(st.sampled_from(["", " ", "\t"])) + text + draw(st.sampled_from(["", " ", "\n"]))


@given(literals())
@settings(max_examples=500, deadline=None)
def test_a_literal_reads_as_the_grammar_reads_it(text):
    assert_same_as_grammar(text)


def test_every_catalog_coefficient_reads_as_the_grammar_reads_it():
    sources = set()
    for entry in table1_entries():
        for line in (*entry.spec.brackets, *entry.spec.connection):
            sources.update(term.coeff.source for term in line.terms)
        for param in entry.params:
            sources.update(expr.source for expr in param.excluded)
    assert len(sources) > 20
    for text in sorted(sources):
        assert_same_as_grammar(text)
        assert Expr.parse(text) == grammar_parse(text)


@pytest.mark.parametrize(
    "text",
    ["1/0", "-3/000", "--1", "1/-2", "+1", "1/2/3", "(1)", "1 / 2", "- 1", "-0", "007/14",
     "1/", "/2", "1.5", "1e3", "", "   ", "t/2", "2t"],
)
def test_texts_beside_the_direct_read_give_the_grammar_result_or_error(text):
    assert_same_as_grammar(text)


def test_zero_denominators_keep_their_error():
    with pytest.raises(ExprError, match="^division by zero while evaluating expression$"):
        Expr.parse("-5/0")
