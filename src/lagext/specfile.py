"""Line-oriented text format for algebras, connections, forms and cocycles.

Every data line carries its own keyword, '#' starts a comment, and blocks
are just groups of same-keyword lines:

    algebra l dim 4
    bracket e1 e2 -> 1 e3
    param t positive
    connection e1 e2 -> 1/2 e3
    omega e1 e^1 -> -1
    cocycle e1 e2 -> 1 e^3

Basis tokens are e1..en; for even n the dual tokens e^1..e^n/2 address the
second half of the basis (the extension convention), except on the
right-hand side of a cocycle line, where e^k is the k-th dual coordinate.
Coefficients are rational literals "p" or "p/q" or expressions in declared
parameters, written without internal whitespace.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .cohomology import TwoCochain
from .connection import FlatConnection
from .exprs import Expr, ExprError
from .extension import SymplecticForm
from .lie import LieAlgebra, require_jacobi
from .linalg import ZERO


class SpecParseError(ValueError):
    """A malformed line; ``line_no`` is None for text from outside a file."""

    def __init__(self, line_no: int | None, message: str):
        self.line_no = line_no
        super().__init__(message if line_no is None else f"line {line_no}: {message}")


_TOKEN_RE = re.compile(r"^e(\^?)(\d+)$")
# The coefficient a term without one stands for, and that ``format_rhs`` omits.
_UNIT = Expr.const(1)


@lru_cache(maxsize=1024)
def _token_number(text: str) -> int:
    """The number k of a basis token "ek" or "e^k", read off its text once:
    a spec names few distinct tokens, and each is resolved many times."""
    m = _TOKEN_RE.match(text)
    assert m is not None
    return int(m.group(2))


@dataclass(frozen=True)
class BasisToken:
    text: str

    @property
    def dual(self) -> bool:
        return "^" in self.text

    @property
    def number(self) -> int:
        return _token_number(self.text)

    @staticmethod
    def parse(text: str, line_no: int | None) -> "BasisToken":
        token = _valid_token(text)
        if token is None:
            raise SpecParseError(line_no, f"bad basis token {text!r}")
        return token

    def resolve(self, dim: int, line_no: int | None) -> int:
        """0-based ambient index under the extension convention."""
        k = self.number
        if self.dual:
            if dim % 2 != 0:
                raise SpecParseError(line_no, f"dual token {self.text!r} needs even dimension")
            if not 1 <= k <= dim // 2:
                raise SpecParseError(line_no, f"dual index out of range in {self.text!r}")
            return dim // 2 + k - 1
        if not 1 <= k <= dim:
            raise SpecParseError(line_no, f"basis index out of range in {self.text!r}")
        return k - 1

    # A token is immutable, so each one is made once and shared.
    @staticmethod
    @lru_cache(maxsize=1024)
    def primal(k: int) -> "BasisToken":
        return BasisToken(f"e{k + 1}")

    @staticmethod
    @lru_cache(maxsize=1024)
    def dual_token(k: int) -> "BasisToken":
        return BasisToken(f"e^{k + 1}")


@lru_cache(maxsize=1024)
def _valid_token(text: str) -> BasisToken | None:
    """The token of text, or None when text is not a basis token: checked
    once per distinct text, as ``_token_number`` reads it once."""
    return BasisToken(text) if _TOKEN_RE.match(text) else None


@dataclass(frozen=True)
class Term:
    coeff: Expr
    token: BasisToken


def parse_rhs(text: str, line_no: int | None = None) -> tuple[Term, ...]:
    """Parse "EXPR eK + EXPR e^K + ..." (a missing EXPR means 1)."""
    terms = []
    for chunk in text.split(" + "):
        fields = chunk.split()
        if not fields:
            raise SpecParseError(line_no, "empty term")
        token = BasisToken.parse(fields[-1], line_no)
        if len(fields) == 1:
            coeff = _UNIT
        elif len(fields) == 2:
            try:
                coeff = Expr.parse(fields[0])
            except ExprError as exc:
                raise SpecParseError(line_no, str(exc)) from None
        else:
            raise SpecParseError(line_no, f"too many fields in term {chunk!r}")
        terms.append(Term(coeff, token))
    return tuple(terms)


def format_rhs(terms) -> str:
    parts = []
    for term in terms:
        if term.coeff == _UNIT:
            parts.append(term.token.text)
        else:
            parts.append(f"{term.coeff} {term.token.text}")
    return " + ".join(parts)


@dataclass(frozen=True)
class ParamSpec:
    """Constraint on one named rational parameter."""

    name: str
    kind: str = "free"  # free | positive | nonzero | positive_nonzero
    greater_than: Fraction | None = None
    less_than: Fraction | None = None
    excluded: tuple[Expr, ...] = ()

    def admits(self, value: Fraction, env: dict[str, Fraction]) -> bool:
        if self.kind in ("positive", "positive_nonzero") and value <= 0:
            return False
        if self.kind in ("nonzero", "positive_nonzero") and value == 0:
            return False
        if self.greater_than is not None and value <= self.greater_than:
            return False
        if self.less_than is not None and value >= self.less_than:
            return False
        for expr in self.excluded:
            if value == expr.evaluate(env):
                return False
        return True

    def describe(self) -> str:
        parts = [self.name]
        if self.kind != "free":
            parts.append(self.kind)
        if self.greater_than is not None:
            parts.append(f"gt {self.greater_than}")
        if self.less_than is not None:
            parts.append(f"lt {self.less_than}")
        if self.excluded:
            parts.append("exclude " + ",".join(str(e) for e in self.excluded))
        if len(parts) == 1:
            parts.append("free")
        return " ".join(parts)

    @staticmethod
    def parse(fields: list[str], line_no: int) -> "ParamSpec":
        if not fields:
            raise SpecParseError(line_no, "param line needs a name")
        name = fields[0]
        if not re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", name):
            raise SpecParseError(line_no, f"bad parameter name {name!r}")
        kind = "free"
        gt = lt = None
        excluded: list[Expr] = []
        idx = 1
        while idx < len(fields):
            word = fields[idx]
            if word in ("free", "positive", "nonzero", "positive_nonzero"):
                kind = word
                idx += 1
            elif word in ("gt", "lt"):
                if idx + 1 >= len(fields):
                    raise SpecParseError(line_no, f"{word} needs a value")
                try:
                    bound = Fraction(fields[idx + 1])
                except (ValueError, ZeroDivisionError):
                    raise SpecParseError(line_no, f"bad bound {fields[idx + 1]!r}") from None
                if word == "gt":
                    gt = bound
                else:
                    lt = bound
                idx += 2
            elif word == "exclude":
                if idx + 1 >= len(fields):
                    raise SpecParseError(line_no, "exclude needs at least one value")
                try:
                    excluded.extend(Expr.parse(p) for p in fields[idx + 1].split(","))
                except ExprError as exc:
                    raise SpecParseError(line_no, str(exc)) from None
                idx += 2
            else:
                raise SpecParseError(line_no, f"unknown constraint word {word!r}")
        return ParamSpec(name, kind, gt, lt, tuple(excluded))


@dataclass(frozen=True)
class CellLine:
    """One "keyword TOK TOK -> RHS" data line (bracket/connection/cocycle);
    ``line_no`` is its line in the file, None for a line made in code."""

    left: BasisToken
    right: BasisToken
    terms: tuple[Term, ...]
    line_no: int | None = field(default=None, compare=False)

    @property
    def rhs(self) -> str:
        return format_rhs(self.terms)


@dataclass(frozen=True)
class OmegaLine:
    left: BasisToken
    right: BasisToken
    value: Expr
    line_no: int | None = field(default=None, compare=False)

    @property
    def rhs(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class SpecFile:
    name: str
    dim: int
    brackets: tuple[CellLine, ...] = ()
    connection: tuple[CellLine, ...] = ()
    omega: tuple[OmegaLine, ...] = ()
    cocycle: tuple[CellLine, ...] = ()
    params: tuple[ParamSpec, ...] = ()

    @property
    def param_names(self) -> frozenset[str]:
        return frozenset(p.name for p in self.params)


def _split_arrow(rest: str, line_no: int) -> tuple[list[str], str]:
    if "->" not in rest:
        raise SpecParseError(line_no, "expected '->'")
    lhs, rhs = rest.split("->", 1)
    return lhs.split(), rhs.strip()


def _names_of(exprs) -> frozenset[str]:
    return frozenset().union(*(e.names for e in exprs))


def parse_spec(text: str) -> SpecFile:
    """The spec file of the text.  Each line is checked as it is read; a
    parameter name that no ``param`` line declares is refused at the first
    line that reads it, after every line has been read."""
    name = None
    dim = None
    brackets: list[CellLine] = []
    connection: list[CellLine] = []
    omega: list[OmegaLine] = []
    cocycle: list[CellLine] = []
    params: list[ParamSpec] = []

    pending: list[tuple[int, str, str]] = []
    uses: list[tuple[int, frozenset[str]]] = []  # the parameter names each line reads
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        keyword, _, rest = line.partition(" ")
        rest = rest.strip()
        if keyword == "algebra":
            if name is not None:
                raise SpecParseError(line_no, "duplicate algebra line")
            m = re.fullmatch(r"(\S+)\s+dim\s+(\d+)", rest)
            if not m:
                raise SpecParseError(line_no, "expected 'algebra NAME dim N'")
            name = m.group(1)
            dim = int(m.group(2))
        elif keyword in ("bracket", "connection", "cocycle", "omega", "param"):
            pending.append((line_no, keyword, rest))
        else:
            raise SpecParseError(line_no, f"unknown keyword {keyword!r}")

    if name is None or dim is None:
        raise SpecParseError(1, "missing 'algebra NAME dim N' line")

    for line_no, keyword, rest in pending:
        if keyword == "param":
            param = ParamSpec.parse(rest.split(), line_no)
            params.append(param)
            uses.append((line_no, _names_of(param.excluded) - {param.name}))
            continue
        lhs, rhs = _split_arrow(rest, line_no)
        if len(lhs) != 2:
            raise SpecParseError(line_no, "expected two basis tokens before '->'")
        left = BasisToken.parse(lhs[0], line_no)
        right = BasisToken.parse(lhs[1], line_no)
        left.resolve(dim, line_no)
        right.resolve(dim, line_no)
        if keyword == "omega":
            try:
                value = Expr.parse(rhs)
            except ExprError as exc:
                raise SpecParseError(line_no, str(exc)) from None
            omega.append(OmegaLine(left, right, value, line_no))
            uses.append((line_no, value.names))
            continue
        terms = parse_rhs(rhs, line_no)
        uses.append((line_no, _names_of(term.coeff for term in terms)))
        for term in terms:
            if keyword == "cocycle":
                if not term.token.dual:
                    raise SpecParseError(line_no, "cocycle values must use dual tokens e^k")
                if not 1 <= term.token.number <= dim:
                    raise SpecParseError(line_no, f"dual index out of range in {term.token.text!r}")
            else:
                term.token.resolve(dim, line_no)
        cell = CellLine(left, right, terms, line_no)
        if keyword == "bracket":
            brackets.append(cell)
        elif keyword == "connection":
            connection.append(cell)
        else:
            cocycle.append(cell)

    declared = {p.name for p in params}
    for line_no, names in uses:
        if undeclared := sorted(names - declared):
            raise SpecParseError(line_no, f"undeclared parameters: {', '.join(undeclared)}")
    return SpecFile(
        name,
        dim,
        tuple(brackets),
        tuple(connection),
        tuple(omega),
        tuple(cocycle),
        tuple(params),
    )


def serialize_spec(spec: SpecFile) -> str:
    lines = [f"algebra {spec.name} dim {spec.dim}"]
    for cell in spec.brackets:
        lines.append(f"bracket {cell.left.text} {cell.right.text} -> {cell.rhs}")
    for p in spec.params:
        lines.append(f"param {p.describe()}")
    for cell in spec.connection:
        lines.append(f"connection {cell.left.text} {cell.right.text} -> {cell.rhs}")
    for line in spec.omega:
        lines.append(f"omega {line.left.text} {line.right.text} -> {line.rhs}")
    for cell in spec.cocycle:
        lines.append(f"cocycle {cell.left.text} {cell.right.text} -> {cell.rhs}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# building runtime objects from a parsed file
# ---------------------------------------------------------------------------


def bind_params(spec: SpecFile, values: dict[str, Fraction]) -> dict[str, Fraction]:
    """The value of each declared parameter, checked against its ``param`` line.

    Raises ValueError when a name the file does not declare has a value, a
    declared parameter has none, a value is one its constraint rules out, or
    an exclusion cannot be evaluated at the values given.
    """
    undeclared = sorted(set(values) - spec.param_names)
    if undeclared:
        raise ValueError(f"--set assigns {', '.join(undeclared)}, which the file does not declare")
    missing = sorted(spec.param_names - set(values))
    if missing:
        raise ValueError(
            f"file declares parameters {', '.join(missing)}; supply them with --set NAME=VALUE"
        )
    env = {p.name: values[p.name] for p in spec.params}
    for p in spec.params:
        given, line = f"{p.name}={env[p.name]}", f"'param {p.describe()}'"
        try:
            if not p.admits(env[p.name], env):
                raise ValueError(f"{given} violates {line}")
        except ExprError as exc:
            raise ValueError(f"{given}: cannot check {line}: {exc}") from None
    return env


class DuplicateCellError(ValueError):
    """The same (i, j) slot is assigned twice; never resolved silently.

    Made from ((i, j), lines) per slot, 1-based.  ``conflicts`` holds one
    (i, j, rhs texts) per slot, with every claimed value; ``duplicates`` the
    slots alone.  The message names the file lines of a slot whose lines all
    come from a file.
    """

    def __init__(self, kind: str, groups):
        self.kind = kind
        self.conflicts = tuple((i, j, tuple(line.rhs for line in lines)) for (i, j), lines in groups)
        self.duplicates = tuple((i, j) for i, j, _ in self.conflicts)
        slots = ", ".join(f"({i},{j}){_on_lines(lines)}" for (i, j), lines in groups)
        super().__init__(f"conflicting duplicate {kind} assignments at {slots}")


def _on_lines(lines) -> str:
    """" on lines 2 and 3" for lines read from a file; "" if any was not."""
    *head, last = numbers = [line.line_no for line in lines]
    if None in numbers:
        return ""
    return f" on lines {', '.join(map(str, head))} and {last}"


def duplicate_cells(lines, dim: int) -> tuple[tuple[tuple[int, int], list], ...]:
    """((i, j), lines) of each slot that more than one line assigns, 1-based."""
    slots: dict[tuple[int, int], list] = {}
    for line in lines:
        slot = (line.left.resolve(dim, None) + 1, line.right.resolve(dim, None) + 1)
        slots.setdefault(slot, []).append(line)
    return tuple((slot, group) for slot, group in slots.items() if len(group) > 1)


def _cells(lines, dim: int, kind: str, value) -> dict[tuple[int, int], tuple]:
    """Map the 0-based (i, j) slot of each line to (line, value(line)); a repeated
    slot raises, and so does a value that fails to evaluate, naming its cell."""
    if groups := duplicate_cells(lines, dim):
        raise DuplicateCellError(kind, groups)
    cells = {}
    for line in lines:
        try:
            v = value(line)
        except ExprError as exc:
            raise ExprError(f"cell {line.left.text} {line.right.text}: {exc}") from None
        cells[line.left.resolve(dim, None), line.right.resolve(dim, None)] = line, v
    return cells


def _vector(terms, dim: int, env: dict[str, Fraction], dual_as_value: bool = False):
    out = [ZERO] * dim
    for term in terms:
        idx = term.token.number - 1 if dual_as_value else term.token.resolve(dim, None)
        out[idx] += term.coeff.evaluate(env)
    return tuple(out)


def _antisymmetric_cells(lines, dim: int, kind: str, value) -> dict[tuple[int, int], tuple]:
    """{(i, j): value(line)} over i < j from lines given either way round.

    A line on the diagonal must have a zero value, and a line and its mirror
    must agree up to sign.
    """
    out: dict[tuple[int, int], tuple] = {}
    given: dict[tuple[int, int], object] = {}
    for (i, j), (line, v) in _cells(lines, dim, kind, value).items():
        if i == j:
            if any(v):
                raise ValueError(f"{kind} cell ({i + 1},{j + 1}) on the diagonal must vanish")
            continue
        key = (min(i, j), max(i, j))
        if i > j:
            v = tuple(-x for x in v)
        first = given.setdefault(key, line)
        if out.setdefault(key, v) != v:
            raise DuplicateCellError(kind, (((key[0] + 1, key[1] + 1), (first, line)),))
    return out


class BlockError(ValueError):
    """A block of a spec file does not build; the message names the block."""


def build_block(block: str, build, spec: SpecFile, *args):
    """``build(spec, *args)``; a ValueError comes back as a BlockError naming the block."""
    try:
        return build(spec, *args)
    except ValueError as exc:
        raise BlockError(f"{block} block invalid: {exc}") from exc


def build_algebra(spec: SpecFile, env: dict[str, Fraction] | None = None) -> LieAlgebra:
    """LieAlgebra from the bracket block; antisymmetric completion of given cells."""
    env = env or {}
    entries = _antisymmetric_cells(
        spec.brackets, spec.dim, "bracket", lambda line: _vector(line.terms, spec.dim, env)
    )
    return require_jacobi(LieAlgebra.from_brackets(spec.dim, entries, spec.name))


def build_connection(
    spec: SpecFile, algebra: LieAlgebra, env: dict[str, Fraction] | None = None
) -> FlatConnection:
    """FlatConnection tensor from the connection block (may still fail axioms)."""
    env = env or {}
    if not spec.connection:
        raise ValueError("spec file has no connection block")
    cells = _cells(spec.connection, spec.dim, "connection",
                   lambda line: _vector(line.terms, spec.dim, env))
    entries = {slot: v for slot, (_, v) in cells.items()}
    return FlatConnection.from_entries(algebra, entries, label=spec.name)


def build_omega(spec: SpecFile, env: dict[str, Fraction] | None = None) -> SymplecticForm:
    """The form of the omega block: omega(e_i, e_j) over the pairs i < j, a
    mirrored line negated."""
    env = env or {}
    if not spec.omega:
        raise ValueError("spec file has no omega block")
    cells = _antisymmetric_cells(
        spec.omega, spec.dim, "omega", lambda line: (line.value.evaluate(env),)
    )
    pairs = combinations(range(spec.dim), 2)
    return SymplecticForm(spec.dim, tuple(cells.get(pair, (ZERO,))[0] for pair in pairs))


def build_cocycle(spec: SpecFile, env: dict[str, Fraction] | None = None) -> TwoCochain:
    """TwoCochain from the cocycle block (values in dual coordinates)."""
    env = env or {}
    if not spec.cocycle:
        raise ValueError("spec file has no cocycle block")
    n = spec.dim
    values = _antisymmetric_cells(
        spec.cocycle, n, "cocycle", lambda line: _vector(line.terms, n, env, dual_as_value=True)
    )
    return TwoCochain.from_pairs(n, values)


def spec_from_symplectic(name: str, algebra, omega) -> SpecFile:
    """Serializable spec of a 2n-dimensional algebra with an omega block."""
    n2 = algebra.dim
    half = n2 // 2 if n2 % 2 == 0 else None

    def token(k: int) -> BasisToken:
        if half is not None and k >= half:
            return BasisToken.dual_token(k - half)
        return BasisToken.primal(k)

    brackets = [
        CellLine(token(i), token(j), tuple(Term(Expr.const(c), token(k)) for k, c in terms))
        for (i, j), terms in zip(combinations(range(n2), 2), algebra.pairs)
        if terms
    ]
    omega_lines = []
    for i in range(n2):
        for j in range(i + 1, n2):
            if omega[i, j] != 0:
                omega_lines.append(OmegaLine(token(i), token(j), Expr.const(omega[i, j])))
    return SpecFile(name, n2, tuple(brackets), (), tuple(omega_lines), (), ())
