"""Tiny arithmetic expressions in named parameters, evaluated exactly.

Grammar (whitespace-free in catalog and spec-file coefficients):

    sum     := product (('+'|'-') product)*
    product := unary (('*'|'/') unary)*
    unary   := '-' unary | power
    power   := atom ['^' unary]
    atom    := INTEGER | NAME | '(' sum ')'

Rationals are written with '/', e.g. "1/2"; "t^2", "(mu+9)", "mu*(2*mu+1)/3"
are all valid.  Parsed expressions keep their source text so serialization
round-trips verbatim.  A plain rational literal "p", "-p", "p/q" or "-p/q"
with q nonzero, as nearly every catalog and spec-file coefficient is, is read
directly into the one-number AST the grammar folds it to; any other text,
including every malformed one, goes through the parser.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache


class ExprError(ValueError):
    pass


_TOKEN = re.compile(r"\d+|[A-Za-z_][A-Za-z_0-9]*|[()+\-*/^]")
_LITERAL = re.compile(r"(-?\d+)(?:/(\d+))?")
_MAX_EXPONENT = 1024  # x^k with a larger |k| is refused before the power is taken


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    for m in _TOKEN.finditer(text):
        if text[pos : m.start()].strip():
            raise ExprError(f"bad character in expression {text!r} at offset {pos}")
        tokens.append(m.group(0))
        pos = m.end()
    if text[pos:].strip():
        raise ExprError(f"bad character in expression {text!r} at offset {pos}")
    return tokens


# AST nodes are ("num", Fraction) | ("var", name) | ("neg", node)
#             | ("+"|"-"|"*"|"/"|"^", left, right)


class _Parser:
    def __init__(self, tokens: list[str], source: str):
        self.tokens = tokens
        self.pos = 0
        self.source = source

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ExprError(f"unexpected end of expression in {self.source!r}")
        self.pos += 1
        return tok

    def expect(self, tok: str):
        got = self.take()
        if got != tok:
            raise ExprError(f"expected {tok!r} but found {got!r} in {self.source!r}")

    def parse_sum(self):
        node = self.parse_product()
        while self.peek() in ("+", "-"):
            op = self.take()
            node = (op, node, self.parse_product())
        return node

    def parse_product(self):
        node = self.parse_unary()
        while self.peek() in ("*", "/"):
            op = self.take()
            node = (op, node, self.parse_unary())
        return node

    def parse_unary(self):
        if self.peek() == "-":
            self.take()
            return ("neg", self.parse_unary())
        return self.parse_power()

    def parse_power(self):
        node = self.parse_atom()
        if self.peek() == "^":
            self.take()
            node = ("^", node, self.parse_unary())
        return node

    def parse_atom(self):
        tok = self.take()
        if tok == "(":
            node = self.parse_sum()
            self.expect(")")
            return node
        if tok.isdigit():
            return ("num", Fraction(int(tok)))
        if re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", tok):
            return ("var", tok)
        raise ExprError(f"unexpected token {tok!r} in {self.source!r}")


def _eval(node, env: dict[str, Fraction]) -> Fraction:
    kind = node[0]
    if kind == "num":
        return node[1]
    if kind == "var":
        try:
            return env[node[1]]
        except KeyError:
            raise ExprError(f"undeclared parameter {node[1]!r}") from None
    if kind == "neg":
        return -_eval(node[1], env)
    a = _eval(node[1], env)
    b = _eval(node[2], env)
    if kind == "+":
        return a + b
    if kind == "-":
        return a - b
    if kind == "*":
        return a * b
    if kind == "/":
        if b == 0:
            raise ExprError("division by zero while evaluating expression")
        return a / b
    if kind == "^":
        if b.denominator != 1:
            raise ExprError("exponent must be an integer")
        if abs(b) > _MAX_EXPONENT:
            raise ExprError(f"exponent {b} exceeds the bound {_MAX_EXPONENT}")
        if a == 0 and b < 0:
            raise ExprError("division by zero while evaluating expression")
        return a ** int(b)
    raise AssertionError(kind)


def _fold_constants(node):
    """Collapse parameter-free subtrees to plain numbers.

    Keeps structural equality of expressions aligned with their values on
    constants (so "-1/2" compares equal to the literal -1/2) while leaving
    parameterized structure intact.
    """
    kind = node[0]
    if kind in ("num", "var"):
        return node
    if kind == "neg":
        child = _fold_constants(node[1])
        if child[0] == "num":
            return ("num", -child[1])
        return ("neg", child)
    left = _fold_constants(node[1])
    right = _fold_constants(node[2])
    if left[0] == "num" and right[0] == "num":
        return ("num", _eval((kind, left, right), {}))
    return (kind, left, right)


def _names(node, out: set[str]):
    kind = node[0]
    if kind == "var":
        out.add(node[1])
    elif kind == "neg":
        _names(node[1], out)
    elif kind != "num":
        _names(node[1], out)
        _names(node[2], out)


@dataclass(frozen=True)
class Expr:
    """A parsed coefficient expression; remembers its source text."""

    source: str
    ast: tuple

    @staticmethod
    def parse(text: str) -> "Expr":
        text = text.strip()
        if not text:
            raise ExprError("empty expression")
        m = _LITERAL.fullmatch(text)
        if m and (q := int(m[2] or 1)):  # "p/0" goes on to the parser's error
            return Expr(text, ("num", Fraction(int(m[1]), q)))
        parser = _Parser(_tokenize(text), text)
        ast = parser.parse_sum()
        if parser.peek() is not None:
            raise ExprError(f"trailing tokens in expression {text!r}")
        return Expr(text, _fold_constants(ast))

    @staticmethod
    @lru_cache(maxsize=1024)
    def const(value: Fraction | int) -> "Expr":
        """The expression of a number, made once per value and shared: an
        ``Expr`` is immutable, and a serialized table repeats few values."""
        if type(value) is not Fraction:
            value = Fraction(value)
        return Expr(str(value), ("num", value))

    def evaluate(self, env: dict[str, Fraction] | None = None) -> Fraction:
        return _eval(self.ast, env or {})

    @property
    def names(self) -> frozenset[str]:
        out: set[str] = set()
        _names(self.ast, out)
        return frozenset(out)

    @property
    def is_constant(self) -> bool:
        return not self.names

    def __str__(self) -> str:
        return self.source

    def __eq__(self, other) -> bool:
        return isinstance(other, Expr) and self.ast == other.ast

    def __hash__(self) -> int:
        return hash(self.ast)
