"""Span tracing of lagext's public functions, from outside the program.

``Tracer.install`` wraps each function in ``TRACED`` and rebinds the wrapper
in every ``lagext`` module namespace that holds the original (modules import
each other's functions with ``from .linalg import ...``, so patching the
defining module alone would miss most calls).  ``RatMatrix.__matmul__`` and
``Subspace.from_vectors`` are rebound on their classes.

Each call records one span: name, start, end, parent span and whether it
raised.  Spans stay in memory and are written out by ``write_spans`` when
the run ends.  A span's self time is its duration minus the time covered by
its child spans; a function's total time counts only its outermost spans.

Run as a script to read a spans file back as a table sorted by self time:

    python3 perfbench/tracing.py perfbench/out/spans-catalog-sweep-s1.tsv
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, attribute, metric name); attribute "Class.method" wraps a method.
TRACED = (
    ("linalg", "rref", "linalg.rref"),
    ("linalg", "kernel_basis", "linalg.kernel_basis"),
    ("linalg", "solve_linear", "linalg.solve_linear"),
    ("linalg", "RatMatrix.__matmul__", "linalg.matmul"),
    ("linalg", "Subspace.from_vectors", "linalg.subspace_from_vectors"),
    ("lie", "lower_central_series", "lie.lower_central_series"),
    ("lie", "require_jacobi", "lie.require_jacobi"),
    ("lie", "quotient_algebra", "lie.quotient_algebra"),
    ("connection", "check_flat_torsion_free", "connection.check_flat_torsion_free"),
    ("connection", "dual_representation", "connection.dual_representation"),
    ("connection", "is_geodesically_complete", "connection.is_geodesically_complete"),
    ("cohomology", "coboundary_2", "cohomology.coboundary_2"),
    ("cohomology", "matrix_of_coboundary_2", "cohomology.matrix_of_coboundary_2"),
    ("cohomology", "cocycle_bases", "cohomology.cocycle_bases"),
    ("cohomology", "cohomology", "cohomology.cohomology"),
    ("extension", "build_extension", "extension.build_extension"),
    ("extension", "d_omega", "extension.d_omega"),
    ("extension", "is_lagrangian_ideal", "extension.is_lagrangian_ideal"),
    ("extension", "extension_nilpotency", "extension.extension_nilpotency"),
    ("extension", "induced_flat_connection", "extension.induced_flat_connection"),
    ("extension", "canonical_connection", "extension.canonical_connection"),
    ("extension", "equivalence_map_psi", "extension.equivalence_map_psi"),
    ("catalog", "instantiate", "catalog.instantiate"),
    ("catalog", "sample_parameters", "catalog.sample_parameters"),
    ("specfile", "parse_spec", "specfile.parse_spec"),
    ("specfile", "serialize_spec", "specfile.serialize_spec"),
    ("specfile", "build_connection", "specfile.build_connection"),
    ("verify", "verify_entry", "verify.verify_entry"),
    ("verify", "format_tsv", "verify.format_tsv"),
)
FIELDS = (("calls", "count"), ("self_s", "s"), ("total_s", "s"), ("raised", "count"))
RATIOS = (
    ("connection.sweeps_per_connection", "ratio"),
    ("extension.builds_per_extension", "ratio"),
)
FRACTION_NEW = ("linalg.fraction_new.calls", "count")
OVERHEAD = ("tracing.overhead_ratio", "ratio")


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {f"{name}.{field}": unit for _, _, name in TRACED for field, unit in FIELDS}
    units.update(RATIOS)
    units.update([FRACTION_NEW, OVERHEAD])
    return units


def _connection_key(conn):
    return conn.base.bracket, conn.gamma


def _triple_key(triple):
    return _connection_key(triple.connection) + (triple.cocycle.tensor,)


class Tracer:
    """Records spans for the wrapped functions while installed."""

    def __init__(self):
        # [name, start, end, parent index, raised, outermost-of-its-name]
        self.spans: list[list] = []
        self.connections: set = set()
        self.triples: set = set()
        self._stack: list[int] = []
        self._active: dict[str, int] = defaultdict(int)
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, observe=None):
        spans, stack, active, clock = self.spans, self._stack, self._active, time.perf_counter

        def traced(*args, **kwargs):
            if observe is not None:
                observe(args[0])
            span = [name, clock(), 0.0, stack[-1] if stack else -1, False, active[name] == 0]
            stack.append(len(spans))
            spans.append(span)
            active[name] += 1
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[2] = clock()
                active[name] -= 1
                stack.pop()

        return traced

    def _rebind(self, owner, attr: str, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, lx) -> None:
        observers = {
            "connection.check_flat_torsion_free": lambda c: self.connections.add(_connection_key(c)),
            "extension.build_extension": lambda t: self.triples.add(_triple_key(t)),
        }
        namespaces = [m for n, m in sys.modules.items() if n == "lagext" or n.startswith("lagext.")]
        for module_name, attr, name in TRACED:
            module = getattr(lx, module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                if isinstance(original, staticmethod):
                    self._rebind(cls, method, staticmethod(self._wrap(name, original.__func__)))
                else:
                    self._rebind(cls, method, self._wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, observers.get(name))
            for ns in namespaces:
                if ns.__dict__.get(attr) is original:
                    self._rebind(ns, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)


def aggregate(spans) -> dict[str, dict[str, float]]:
    """calls, self_s, total_s and raised per traced name (all names present)."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, raised, outermost in spans:
        if parent >= 0:
            child_time[parent] += end - start
    table = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "raised": 0} for _, _, name in TRACED}
    for idx, (name, start, end, parent, raised, outermost) in enumerate(spans):
        row = table[name]
        row["calls"] += 1
        row["self_s"] += end - start - child_time[idx]
        if outermost:
            row["total_s"] += end - start
        row["raised"] += int(raised)
    return table


def format_table(table: dict[str, dict[str, float]], per: str = "pass") -> str:
    """Rows sorted by self time, largest first."""
    rows = sorted(table.items(), key=lambda kv: -kv[1]["self_s"])
    lines = [f"{'layer function':42} {'calls/' + per:>12} {'self_s':>10} {'total_s':>10} {'raised':>8}"]
    for name, row in rows:
        lines.append(
            f"{name:42} {row['calls']:>12g} {row['self_s']:>10.4f} "
            f"{row['total_s']:>10.4f} {row['raised']:>8g}"
        )
    return "\n".join(lines)


def write_spans(path, spans) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("name\tstart\tend\tparent\traised\touterm\n")
        for name, start, end, parent, raised, outermost in spans:
            fh.write(f"{name}\t{start!r}\t{end!r}\t{parent}\t{int(raised)}\t{int(outermost)}\n")


def read_spans(path) -> list[list]:
    spans = []
    with open(path, encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            name, start, end, parent, raised, outermost = line.rstrip("\n").split("\t")
            spans.append([name, float(start), float(end), int(parent), raised == "1", outermost == "1"])
    return spans


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python3 perfbench/tracing.py SPANS_FILE")
    print(format_table(aggregate(read_spans(sys.argv[1])), per="run"))
