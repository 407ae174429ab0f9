"""The bundled catalog of four-dimensional complete flat nilpotent structures.

Seventy connection entries over three base algebras:

    a : abelian R^4
    l : [e1,e2] = e3          (Heisenberg + R)
    t : [e1,e4] = -e2, [e2,e4] = -e3

Each row is a spec file: its base's bracket lines, its ``param`` lines and
its ``connection`` lines.  A row instantiates through the spec-file
builders, over a base algebra built once per code and shared, and
``lagext catalog export`` writes it out with ``serialize_spec``.

Rows are transcribed verbatim from the upstream classification table,
including its typos.  Rows that assign the same nabla slot twice (l_29,
l_30, t_17) are flagged ``suspect`` and instantiate to a conflict report
instead of a connection; nothing is repaired silently.  Parameter
constraints from the remarks column ("t in R+", "mu != 0,1", ...) are kept
machine-readable, with R+ read as strictly positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice, product
from math import prod

from .connection import FlatConnection
from .exprs import Expr
from .lie import LieAlgebra
from .specfile import (
    BasisToken,
    CellLine,
    DuplicateCellError,
    ParamSpec,
    SpecFile,
    bind_params,
    build_algebra,
    build_connection,
    duplicate_cells,
    parse_rhs,
    parse_spec,
)

BASE_BRACKETS = {
    "a": (),
    "l": ("e1 e2 -> e3",),
    "t": ("e1 e4 -> -1 e2", "e2 e4 -> -1 e3"),
}
_BASE_SPECS = {
    code: parse_spec("\n".join([f"algebra {code} dim 4", *(f"bracket {b}" for b in lines)]))
    for code, lines in BASE_BRACKETS.items()
}
_BASES = {code: build_algebra(spec) for code, spec in _BASE_SPECS.items()}


def base_algebra(code: str) -> LieAlgebra:
    """The base algebra of code a, l or t, built and checked once per code
    and shared by every caller, with the verdicts it caches: an algebra is
    immutable."""
    if code not in _BASES:
        raise ValueError(f"unknown base code {code!r}")
    return _BASES[code]


@dataclass(frozen=True)
class CatalogEntry:
    """One catalog row: the code of its base algebra and its spec file."""

    base: str
    spec: SpecFile

    @property
    def label(self) -> str:
        return self.spec.name

    @property
    def params(self) -> tuple[ParamSpec, ...]:
        return self.spec.params

    @property
    def suspect(self) -> bool:
        return bool(self.duplicate_slots())

    def duplicate_slots(self) -> tuple[tuple[int, int], ...]:
        return tuple(slot for slot, _ in duplicate_cells(self.spec.connection, self.spec.dim))


@dataclass(frozen=True)
class ParameterSample:
    values: tuple[tuple[str, Fraction], ...]

    @property
    def env(self) -> dict[str, Fraction]:
        return dict(self.values)

    def describe(self) -> str:
        if not self.values:
            return "-"
        return ",".join(f"{n}={v}" for n, v in self.values)


@dataclass(frozen=True)
class ConflictReport:
    """Duplicate slot assignments of a suspect row, both claimed values kept."""

    label: str
    duplicates: tuple[tuple[int, int, tuple[str, ...]], ...]

    def describe(self) -> str:
        parts = [
            f"nabla(e{i},e{j}) assigned " + " and ".join(rhs)
            for i, j, rhs in self.duplicates
        ]
        return "; ".join(parts)


def _entry(label: str, base: str, cells: list[tuple[int, int, str]], params=()) -> CatalogEntry:
    connection = tuple(
        CellLine(BasisToken.primal(i - 1), BasisToken.primal(j - 1), parse_rhs(rhs))
        for i, j, rhs in cells
    )
    spec = SpecFile(label, 4, _BASE_SPECS[base].brackets, connection, params=tuple(params))
    return CatalogEntry(base, spec)


def _p(name: str, kind: str = "free", gt=None, lt=None, exclude=()) -> ParamSpec:
    return ParamSpec(
        name,
        kind,
        Fraction(gt) if gt is not None else None,
        Fraction(lt) if lt is not None else None,
        tuple(Expr.parse(e) for e in exclude),
    )


_TABLE1: list[CatalogEntry] = [
    _entry("a_1", "a", [(2, 2, "e1"), (3, 3, "e1"), (4, 4, "e1")]),
    _entry("a_2", "a", [(2, 2, "e1"), (3, 3, "e1"), (4, 4, "-1 e1")]),
    _entry("a_3", "a", [(2, 4, "e1"), (3, 3, "e1"), (3, 4, "e2"), (4, 2, "e1"),
                        (4, 3, "e2"), (4, 4, "e3")]),
    _entry("a_4", "a", [(3, 3, "e1"), (4, 4, "e1")]),
    _entry("a_5", "a", [(3, 3, "e1"), (4, 4, "-1 e1")]),
    _entry("a_6", "a", [(3, 4, "e2"), (4, 3, "e2"), (4, 4, "e1")]),
    _entry("a_7", "a", [(3, 3, "e1"), (4, 4, "e2")]),
    _entry("a_8", "a", [(3, 3, "e1"), (3, 4, "e2"), (4, 3, "e2")]),
    _entry("a_9", "a", [(3, 4, "e1"), (4, 3, "e1"), (4, 4, "e3")]),
    _entry("a_10", "a", [(4, 4, "e1")]),
    _entry("l_1", "l", [(1, 1, "e3"), (2, 1, "-1 e3"), (2, 4, "e3"), (4, 2, "e3")]),
    _entry("l_2", "l", [(2, 1, "-1 e3"), (2, 4, "e3"), (4, 2, "e3")]),
    _entry("l_3", "l", [(1, 1, "e3"), (2, 1, "-1 e3"), (2, 2, "(t+1)/4 e3"), (4, 4, "e3")],
           [_p("t", "positive")]),
    _entry("l_4", "l", [(1, 1, "e3"), (2, 1, "-1 e3"), (2, 2, "t e3"), (4, 4, "-1 e3")],
           [_p("t", "positive")]),
    _entry("l_5", "l", [(1, 2, "e3"), (2, 2, "e1"), (4, 4, "e1")]),
    _entry("l_6", "l", [(1, 2, "e3"), (2, 2, "e1"), (4, 4, "e1 + e3")]),
    _entry("l_7", "l", [(1, 2, "e3"), (2, 2, "e1"), (2, 4, "e3"), (4, 2, "e3"),
                        (4, 4, "e1 + t e3")], [_p("t", "positive")]),
    _entry("l_8", "l", [(1, 2, "e3"), (2, 2, "e1"), (4, 4, "-1 e1")]),
    _entry("l_9", "l", [(1, 2, "e3"), (2, 2, "e1"), (2, 4, "e1"), (4, 2, "e1")]),
    _entry("l_10", "l", [(1, 2, "e3"), (2, 2, "e1"), (2, 4, "e1"), (4, 2, "e1"),
                         (4, 4, "-1 e3")]),
    _entry("l_11", "l", [(1, 2, "e3"), (2, 2, "e1"), (4, 4, "-1 e1 + e3")]),
    _entry("l_12", "l", [(1, 2, "e3"), (2, 2, "e1"), (2, 4, "e3"), (4, 2, "e3"),
                         (4, 4, "-1 e1 + t e3")], [_p("t")]),
    _entry("l_13", "l", [(1, 2, "e3"), (4, 4, "e1")]),
    _entry("l_14", "l", [(1, 2, "e3"), (2, 4, "e3"), (4, 2, "e3"), (4, 4, "e1")]),
    _entry("l_15", "l", [(1, 2, "e3"), (2, 2, "e1"), (4, 4, "e3")]),
    _entry("l_16", "l", [(1, 1, "e2"), (1, 4, "e3"), (2, 1, "-1 e3"), (4, 1, "e3")]),
    _entry("l_17", "l", [(1, 1, "e2"), (1, 2, "e3"), (1, 4, "t e2"), (2, 4, "t e3"),
                         (4, 1, "t e2"), (4, 2, "t e3"), (4, 4, "t^2 e2 + e3")],
           [_p("t")]),
    _entry("l_18", "l", [(1, 4, "t e3"), (2, 1, "-1 e3"), (2, 2, "e1"),
                         (2, 4, "-t e1 + e3"), (4, 1, "t e3"), (4, 2, "-t e1 + e3"),
                         (4, 4, "t^2 e1 + -3*t e3")], [_p("t")]),
    _entry("l_19", "l", [(1, 1, "e2"), (1, 3, "e4"), (2, 1, "-1 e3"), (2, 2, "-2 e4"),
                         (3, 1, "e4")]),
    _entry("l_20", "l", [(2, 1, "-1 e3"), (2, 2, "e4"), (2, 4, "e1"), (4, 2, "e1"),
                         (4, 4, "-1 e3")]),
    _entry("l_21", "l", [(1, 1, "e3"), (1, 2, "e4"), (2, 1, "-1 e3 + e4"), (2, 2, "e1"),
                         (2, 4, "e3"), (4, 2, "e3")]),
    _entry("l_22", "l", [(1, 1, "e4"), (1, 2, "mu e3"), (1, 4, "e2 + (1-mu) e3"),
                         (2, 1, "(mu-1) e3"), (4, 1, "e2 + (1-mu) e3"), (4, 4, "mu e3")],
           [_p("mu")]),
    _entry("l_23", "l", [(1, 1, "e2"), (1, 2, "mu/(mu-1) e3"), (1, 3, "(mu-1) e4"),
                         (2, 1, "1/(mu-1) e3"), (2, 2, "(2-mu) e4"), (3, 1, "(mu-1) e4")],
           [_p("mu", exclude=("1",))]),
    _entry("l_24", "l", [(1, 1, "e2"), (1, 2, "e3"), (1, 3, "e4"), (2, 2, "-1 e4"),
                         (3, 1, "e4")]),
    _entry("l_25", "l", [(1, 1, "e2"), (1, 2, "e3 + e4"), (1, 3, "e4"), (2, 1, "e4"),
                         (2, 2, "-1 e4"), (3, 1, "e4")]),
    _entry("l_26", "l", [(1, 2, "1/2 e3"), (2, 1, "-1/2 e3")]),
    _entry("l_27", "l", [(1, 1, "e3"), (1, 2, "1/2 e3"), (2, 1, "-1/2 e3")]),
    _entry("l_28", "l", [(1, 2, "1/2 e3"), (2, 1, "-1/2 e3"), (2, 2, "e4")]),
    _entry("l_29", "l", [(1, 1, "e4"), (1, 2, "1/2 e3"), (2, 2, "-1/2 e3"),
                         (2, 2, "e4")]),
    _entry("l_30", "l", [(1, 1, "-1 e4"), (1, 2, "1/2 e3"), (2, 2, "-1/2 e3"),
                         (2, 2, "e4")]),
    _entry("l_31", "l", [(1, 1, "mu e3"), (1, 2, "1/2 e3"), (2, 1, "-1/2 e3"),
                         (2, 2, "e3")], [_p("mu", "positive_nonzero")]),
    _entry("l_33", "l", [(1, 1, "mu e3"), (1, 2, "1/2 e3"), (2, 1, "-1/2 e3"),
                         (2, 2, "-1 e3")], [_p("mu", "positive_nonzero")]),
    _entry("l_34", "l", [(1, 1, "e4"), (1, 2, "mu e3"), (2, 1, "(mu-1) e3"),
                         (2, 2, "e4")], [_p("mu", gt="1/2")]),
    _entry("l_35", "l", [(1, 1, "e4"), (1, 2, "1/2 e3"), (2, 1, "-1/2 e3"),
                         (2, 2, "1/2 e3 + -t e4")], [_p("t", "positive_nonzero")]),
    _entry("l_36", "l", [(1, 2, "e4"), (2, 1, "-1 e3 + e4"), (2, 2, "e3")]),
    _entry("l_37", "l", [(1, 2, "mu e3"), (2, 1, "(mu-1) e3"), (2, 2, "e4")],
           [_p("mu", lt="1/2")]),
    _entry("l_38", "l", [(1, 1, "e2"), (1, 2, "e3")]),
    _entry("l_39", "l", [(1, 1, "e2"), (1, 2, "e4"), (2, 1, "-1 e3 + e4")]),
    _entry("l_40", "l", [(1, 1, "e2"), (1, 2, "mu e3"), (2, 1, "(mu-1) e3")],
           [_p("mu")]),
    _entry("t_1", "t", [(1, 3, "e4"), (2, 2, "-1 e4"), (3, 1, "e4"), (4, 1, "e2"),
                        (4, 2, "e3")]),
    _entry("t_2", "t", [(1, 1, "-1 e3"), (1, 3, "e4"), (2, 2, "-1 e4"), (3, 1, "e4"),
                        (4, 1, "e2"), (4, 2, "e3")]),
    _entry("t_3", "t", [(1, 1, "(mu+9) e2"), (1, 2, "4 e3"), (1, 4, "-2 e2"),
                        (2, 1, "4 e3"), (2, 4, "-1 e3"), (4, 1, "-1 e2"),
                        (4, 4, "1/4 e2")], [_p("mu")]),
    _entry("t_4", "t", [(1, 1, "(mu+9) e2 + e3"), (1, 2, "4 e3"), (1, 4, "-2 e2"),
                        (2, 1, "4 e3"), (2, 4, "-1 e3"), (4, 1, "-1 e2"),
                        (4, 4, "1/4 e2")], [_p("mu")]),
    _entry("t_5", "t", [(1, 1, "(mu+9) e2 + mu1 e3"), (1, 2, "4 e3"), (1, 4, "-2 e2"),
                        (2, 1, "4 e3"), (2, 4, "-1 e3"), (4, 1, "-1 e2"),
                        (4, 4, "1/4 e2 + e3")], [_p("mu"), _p("mu1")]),
    _entry("t_6", "t", [(1, 4, "-1/2 e2"), (2, 4, "-1/2 e3"), (4, 1, "1/2 e2"),
                        (4, 2, "2/3 e3")]),
    _entry("t_7", "t", [(1, 1, "e3"), (1, 4, "-1/2 e2"), (2, 4, "-1/2 e3"),
                        (4, 1, "1/2 e2"), (4, 2, "2/3 e3")]),
    _entry("t_8", "t", [(1, 1, "e4"), (4, 1, "e2"), (4, 2, "e3")]),
    _entry("t_9", "t", [(1, 1, "e4"), (1, 4, "e3"), (4, 1, "e2 + e3"), (4, 2, "e3")]),
    _entry("t_10", "t", [(1, 1, "e4"), (1, 4, "-1 e3"), (4, 1, "e2 + -1 e3"),
                         (4, 2, "e3")]),
    _entry("t_11", "t", [(1, 4, "-1 e2"), (2, 4, "-1/2 e3"), (4, 2, "1/2 e3"),
                         (4, 4, "e1")]),
    _entry("t_12", "t", [(1, 1, "1/3 e3"), (1, 4, "-1 e2 + 1/3 e3"), (2, 4, "-2/3 e3"),
                         (4, 1, "1/3 e3"), (4, 2, "1/3 e3"), (4, 4, "e1")]),
    _entry("t_13", "t", [(1, 1, "mu e3"), (1, 4, "-1 e2"), (2, 4, "-(mu+1)/2 e3"),
                         (4, 2, "(1-mu)/2 e3"), (4, 4, "e1")], [_p("mu", "nonzero")]),
    _entry("t_14", "t", [(1, 1, "e4"), (1, 2, "e3"), (1, 4, "(mu+2) e3"), (2, 1, "e3"),
                         (4, 1, "e2 + (mu+2) e3"), (4, 2, "e3"), (4, 4, "2 e3")],
           [_p("mu")]),
    _entry("t_15", "t", [(1, 1, "mu e3"), (1, 4, "mu e2"), (4, 1, "(mu+1) e2"),
                         (4, 2, "e3"), (4, 4, "e1")], [_p("mu", "nonzero")]),
    _entry("t_16", "t", [(1, 1, "(mu/3)*(2*mu+1) e3"), (1, 4, "mu e2 + -(2*mu^3)/3 e3"),
                         (2, 4, "(2*mu)/3 e3"), (4, 1, "(mu+1) e2 + -(2*mu^3)/3 e3"),
                         (4, 2, "((2*mu)/3+1) e3"), (4, 4, "e1")], [_p("mu", "nonzero")]),
    _entry("t_17", "t", [(1, 1, "mu1 e3"), (1, 4, "mu e2"), (4, 2, "(mu1-mu)/(mu-1) e3"),
                         (4, 1, "(mu+1) e2"), (4, 2, "(mu1-1)/(mu-1) e3"), (4, 4, "e1")],
           [_p("mu", exclude=("0", "1")), _p("mu1", exclude=("mu*(2*mu+1)/3",))]),
    _entry("t_18", "t", [(4, 1, "e2"), (4, 2, "e3"), (4, 4, "e1")]),
    _entry("t_19", "t", [(1, 4, "e3"), (4, 1, "e2 + e3"), (4, 2, "e3"), (4, 4, "e1")]),
    _entry("t_20", "t", [(1, 1, "mu e3"), (2, 3, "-mu e3"), (4, 1, "e2"),
                         (4, 2, "(1-mu) e3"), (4, 4, "e1")], [_p("mu", "nonzero")]),
    _entry("t_21", "t", [(1, 1, "mu e3"), (1, 4, "-mu e3"), (2, 4, "-mu e3"),
                         (4, 1, "e2 + -mu e3"), (4, 2, "(1-mu) e3"), (4, 4, "e1")],
           [_p("mu", "nonzero")]),
]


def table1_entries() -> tuple[CatalogEntry, ...]:
    """All seventy catalog rows in printed order (l_32 is absent upstream)."""
    return tuple(_TABLE1)


def entry_by_label(label: str) -> CatalogEntry:
    for entry in _TABLE1:
        if entry.label == label:
            return entry
    raise KeyError(f"no catalog entry labeled {label!r}")


# Witness pool for parameter sampling: these values first, then the
# successive integers, up to _POOL_EXTENSION_LIMIT values in all.
SAMPLE_POOL = (
    Fraction(1),
    Fraction(2),
    Fraction(1, 3),
    Fraction(-1),
    Fraction(-1, 2),
    Fraction(3),
)
_POOL_EXTENSION_LIMIT = 200


def _candidate_pool():
    yield from SAMPLE_POOL
    for n in count(4):
        yield Fraction(n)


def sample_parameters(entry: CatalogEntry, k: int) -> tuple[ParameterSample, ...]:
    """k distinct constraint-satisfying assignments, always the same ones.

    The pool grows one value at a time; at each size the assignments are
    the first k admissible ones of the product of the values each parameter
    admits on its own, which is skipped while it has fewer than k elements.
    Pool values are distinct, so the product repeats no assignment; its
    combinations are re-checked against the cross-parameter exclusions (as
    in t_17).  Entries without parameters yield the single empty assignment
    regardless of k; raises ValueError when the first
    ``_POOL_EXTENSION_LIMIT`` pool values give fewer than k.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if not entry.params:
        return (ParameterSample(()),)

    names = tuple(p.name for p in entry.params)
    per_param = [[] for _ in entry.params]
    for value in islice(_candidate_pool(), _POOL_EXTENSION_LIMIT):
        for p, solo in zip(entry.params, per_param):
            if _admits_solo(p, value):
                solo.append(value)
        if prod(map(len, per_param)) < k:
            continue
        samples = []
        for combo in product(*per_param):
            env = dict(zip(names, combo))
            if all(p.admits(env[p.name], env) for p in entry.params):
                samples.append(ParameterSample(tuple(zip(names, combo))))
                if len(samples) == k:
                    return tuple(samples)
    raise ValueError(
        f"{entry.label} has fewer than {k} admissible samples among the first "
        f"{_POOL_EXTENSION_LIMIT} pool values"
    )


def _admits_solo(p: ParamSpec, value: Fraction) -> bool:
    constant_exclusions = [e for e in p.excluded if e.is_constant]
    trimmed = ParamSpec(p.name, p.kind, p.greater_than, p.less_than, tuple(constant_exclusions))
    return trimmed.admits(value, {p.name: value})


def instantiate(entry: CatalogEntry, sample: ParameterSample) -> FlatConnection | ConflictReport:
    """Materialize the connection tensor, or report the row's conflicting slots.

    Suspect rows return a ConflictReport (the normal outcome, not an error);
    a sample violating the entry's constraints raises ValueError.
    """
    env = bind_params(entry.spec, sample.env)
    try:
        return build_connection(entry.spec, base_algebra(entry.base), env)
    except DuplicateCellError as exc:
        return ConflictReport(entry.label, exc.conflicts)


def connection_for(label: str, **params) -> FlatConnection:
    """Convenience: instantiate a non-suspect entry at explicit parameter values."""
    entry = entry_by_label(label)
    values = tuple((name, Fraction(value)) for name, value in params.items())
    result = instantiate(entry, ParameterSample(values))
    if isinstance(result, ConflictReport):
        raise ValueError(f"{label} is a suspect row: {result.describe()}")
    return result


@dataclass(frozen=True)
class Table4Record:
    """Opaque reference row: symplectic form strings without bracket data."""

    label: str
    form: str
    coefficients: str
    remark: str


TABLE4_RECORDS = (
    Table4Record(
        "g_8_80(a,b,c,d,lambda,mu,mu1)",
        "omega = k1 e13 + e15 + k2 e23 + e26 + e37 + e48",
        "k1 = c, k2 = d - lambda",
        "b(mu1-1)(mu+1) != 0",
    ),
    Table4Record(
        "g_8_90(a,b,c,d,lambda)",
        "omega = k1 e13 + e15 + k2 e23 + e26 + e37 + e48",
        "k1 = -c, k2 = a - d",
        "lambda != 0",
    ),
    Table4Record(
        "g_8_91(a,b,c,d,lambda)",
        "omega = e15 + k e23 + e26 + e37 + e48",
        "k = c - lambda",
        "b - d != 0",
    ),
    Table4Record(
        "g_8_93(a,b,c,d,lambda)",
        "omega = e15 + k e23 + e26 + e37 + e48",
        "k = -d - 8c/5",
        "b != 0",
    ),
    Table4Record(
        "g_8_95(a,b,c,d,lambda)",
        "omega = e15 + k e23 + e26 + e37 + e48",
        "k = b - d - (3a + 8c)/5",
        "b != 0",
    ),
)
