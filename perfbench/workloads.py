"""The three benchmark workloads and the golden values their outputs must match.

Each workload is a closed loop with one caller.  Its constructor makes the
inputs from the seed with the benchmark's own ``random.Random`` (never
``lagext.sampling``, so inputs do not move when the program changes),
and keeps them as plain data (Fractions and tuples).  ``run_pass`` gets a
freshly imported lagext for each pass, as each CLI invocation starts without
lagext state, turns the inputs into lagext objects, times only calls into
lagext through ``Meter.timed`` and checks every output, in canonical form,
outside the timed regions.  Passes within a run are identical, so per-pass
counts repeat exactly.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import marshal
import random
import signal
import statistics
from contextlib import contextmanager, redirect_stdout
from fractions import Fraction
from itertools import combinations
from time import perf_counter
from typing import Callable, NamedTuple

# verify-catalog --samples 3 --format tsv at the parent commit.
CATALOG_TSV_SHA256 = "e92a19a4578509d5f00df531b03b2951d07ded3ff48ad4c8b60ab0e8470d83f5"
CATALOG_RECORDS = 1062
CATALOG_EXIT_CODE = 1
CATALOG_FAIL_ROWS = frozenset({"t_6", "t_7", "t_20"})

# (Z2, Z2_L, B2, H2, H2_L) of each ladder rung; independent of the seed.
LADDER_SMALL_DIMS = {
    3: (7, 6, 4, 3, 3),
    4: (15, 12, 9, 6, 6),
    5: (26, 20, 16, 10, 10),
    6: (40, 30, 25, 15, 15),
}
LADDER_N8_DIMS = {"l_26": (123, 82, 30, 93, 65), "t_8": (88, 56, 42, 46, 28)}

# SHA-256 over the canonical echelon bases and pivots (Z2 then Z2_L) of every
# extend-cocycles row; see bases_digest.
COCYCLE_BASES_SHA256 = "e718806c668f94881087efaf5680441ee6d5c9c0ef1405a2411d651922ebd7fa"


# Interval of the yardstick samples taken inside workload regions.
REF_TICK_S = 0.02


def reference_loop() -> None:
    """Fixed pure-Python Fraction arithmetic: the yardstick for host speed.

    The host's cores are shared, and its speed drifts by tens of percent
    within seconds and minutes.  Timing this loop before and during every
    timed region, and rescaling each region by the host speed the samples
    show, makes runs comparable; lagext changes cannot move the loop.
    """
    a, total = Fraction(1, 3), Fraction(0)
    for i in range(1, 120):
        total += a * Fraction(i, i + 1)


# A small module body of the kind lagext's modules have: a frozen dataclass
# and a table of Fractions.  Unmarshalling and running it tracks the speed of
# imports, which the Fraction loop does not.
_MODULE_CODE = marshal.dumps(compile(
    "from dataclasses import dataclass\nfrom fractions import Fraction\n"
    "@dataclass(frozen=True)\nclass C:\n    a: int\n    b: tuple = ()\n"
    "    c: Fraction = Fraction(0)\n    def f(self, x):\n"
    "        return [y * self.a for y in x if y]\n"
    "TABLE = {i: (Fraction(i, 7), str(i), (i, i + 1)) for i in range(20)}\n",
    "<reference module>", "exec", dont_inherit=True))


def reference_import() -> None:
    """The yardstick for set-up: unmarshal and run a fixed module body."""
    exec(marshal.loads(_MODULE_CODE), {"__name__": "reference_module"})


class Yardstick(NamedTuple):
    run: Callable[[], None]
    nominal_s: float  # fixed: the time of one run at the nominal host speed


ARITHMETIC = Yardstick(reference_loop, 0.0006)
IMPORT = Yardstick(reference_import, 0.0009)


class Meter:
    """Times regions of calls into lagext against a yardstick.

    Normalized times are raw times rescaled to the host speed at which the
    yardstick takes its nominal time.  Three yardstick samples precede each
    region, and a SIGALRM interval timer takes one more every ``tick_s``
    inside it; the time those samples take is subtracted from the region.
    The samples are spread evenly over the region, so the mean of their
    speeds (nominal time over sample time) is the host's mean speed while
    the region ran, and the region did work in proportion to it.  When
    ``profiler`` is set (the count-only pass) there is no timer, and the
    profiler is enabled exactly inside the timed regions, so benchmark code
    is never counted.
    """

    REF_REPEATS = 3

    def __init__(self, profiler=None, yardstick: Yardstick = ARITHMETIC,
                 tick_s: float = REF_TICK_S):
        self.profiler = profiler
        self.yardstick = yardstick
        self.tick_s = tick_s
        self.regions: list[tuple[float, float]] = []  # (raw seconds, mean speed)
        self._speeds: list[float] = []  # of the samples for the current region
        self._paused = 0.0

    def _sample(self) -> float:
        start = perf_counter()
        self.yardstick.run()
        took = perf_counter() - start
        self._speeds.append(self.yardstick.nominal_s / took)
        return took

    def _tick(self, signum, frame):
        self._paused += self._sample()

    @contextmanager
    def timed(self):
        self._speeds = []
        for _ in range(self.REF_REPEATS):
            self._sample()
        self._paused = 0.0
        ticking = self.profiler is None
        if ticking:
            previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.tick_s, self.tick_s)
        else:
            self.profiler.enable()
        start = perf_counter()
        try:
            yield
        finally:
            if ticking:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            else:
                self.profiler.disable()
            took = perf_counter() - start - self._paused
            self.regions.append((took, statistics.fmean(self._speeds)))

    def mark(self) -> int:
        return len(self.regions)

    def raw(self) -> list[float]:
        return [took for took, _ in self.regions]

    def normalized(self) -> list[float]:
        """Region times rescaled to the nominal host speed."""
        return [took * speed for took, speed in self.regions]

    def speed_factor(self) -> float:
        """Median yardstick time over the nominal one (above 1: a slow host)."""
        return statistics.median(1 / speed for _, speed in self.regions)


class Tally:
    """Operations attempted and failed (unexpected exceptions or golden mismatches)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)

    def error(self, what: str, exc: BaseException) -> None:
        self.op(False, f"{what}: unexpected {type(exc).__name__}: {exc}")


def _percentile(values, q: int) -> float:
    """q-th percentile (1..99) as statistics.quantiles gives it."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _rational(rng: random.Random, nonzero: bool = False) -> Fraction:
    while True:
        value = Fraction(rng.randint(-5, 5), rng.randint(1, 7))
        if value or not nonzero:
            return value


def canonical(value):
    """Nested sequences of numbers as nested tuples of Fractions.

    Goldens compare values, not representations: lists or tuples, ints or
    Fractions give the same canonical form.
    """
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    return tuple(canonical(v) for v in value)


def _canonical_bases(z2, z2l):
    return tuple(
        (canonical(space.basis), tuple(int(p) for p in space.pivots)) for space in (z2, z2l)
    )


def bases_digest(parts) -> str:
    """SHA-256 over (label, canonical bases) of every row, in row order."""
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def _cyclic_sums_vanish(tensor) -> bool:
    n = len(tensor)
    return all(
        tensor[i][j][k] + tensor[j][k][i] + tensor[k][i][j] == 0
        for i, j, k in combinations(range(n), 3)
    )


def _torsion_free(conn) -> bool:
    n = conn.dim
    g, c = conn.gamma, conn.base.bracket
    return all(
        g[i][j][k] - g[j][i][k] == c[i][j][k]
        for i, j in combinations(range(n), 2)
        for k in range(n)
    )


def _sums(norm: list[float], ranges) -> list[float]:
    return [sum(norm[a:b]) for a, b in ranges]


class Workload:
    """One op is one sample in ``samples``: a range of timed regions.

    The constructor may use the lagext it is given to make inputs; it keeps
    none of its objects, as each pass gets a fresh import.
    """

    name = ""
    OP_NAMES = ("ops_per_s", "op_ms")  # the workload's own names in the report
    PASS_NAME = "pass_s"

    def __init__(self, lx, seed: int):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.samples: list[tuple[int, int]] = []
        self.passes: list[tuple[int, int]] = []
        self.ops_done = 0

    def run_pass(self, lx, meter: Meter, tally: Tally) -> None:
        raise NotImplementedError

    def finish(self, tally: Tally) -> None:
        """Checks made once per run, after the measured passes."""

    def measured(self) -> bool:
        """Whether enough operations succeeded to compute the timing metrics."""
        return bool(self.passes) and len(self.samples) >= 2

    def metrics(self, norm: list[float]) -> dict[str, float]:
        """The end-to-end metrics common to all workloads (see README.md)."""
        ms = [t * 1e3 for t in _sums(norm, self.samples)]
        return {
            "ops_per_s": self.ops_done / len(self.passes)
            / statistics.median(_sums(norm, self.passes)),
            "typical_ms": statistics.median(ms),
            "heavy_ms": _percentile(ms, 90),
        }

    def report(self, norm: list[float]) -> list[tuple[str, float, str, str]]:
        """The workload's figures under its own names: (name, value, unit, samples)."""
        m = self.metrics(norm)
        n, ops_name, op_name = len(self.samples), *self.OP_NAMES
        return [
            (ops_name, m["ops_per_s"], "1/s", f"{self.ops_done} in {len(self.passes)} passes"),
            (f"{op_name}_p50", m["typical_ms"], "ms", f"{n} samples"),
            (f"{op_name}_p90", m["heavy_ms"], "ms", f"{n} samples, {n - int(0.9 * n)} beyond"),
            (self.PASS_NAME, statistics.median(_sums(norm, self.passes)), "s",
             f"{len(self.passes)} passes"),
        ]


class CatalogSweep(Workload):
    """``lagext verify-catalog --samples 3 --format tsv``, one row at a time."""

    name = "catalog-sweep"
    OP_NAMES = ("records_per_s", "row_ms")
    PASS_NAME = "sweep_s"

    def run_pass(self, lx, meter, tally):
        verify = lx.verify
        records = []
        start = meter.mark()
        for entry in lx.catalog.table1_entries():
            before = meter.mark()
            try:
                with meter.timed():
                    rows = verify.verify_entry(entry, 3, 0)
            except Exception as exc:  # counted, the sweep goes on
                tally.error(f"verify_entry({entry.label})", exc)
                continue
            self.samples.append((before, meter.mark()))
            records.extend(rows)
            failed = any(r.status == verify.FAIL for r in rows)
            tally.op(failed == (entry.label in CATALOG_FAIL_ROWS),
                     f"{entry.label}: fail records {'present' if failed else 'absent'}")
        try:
            with meter.timed():
                tsv = verify.format_tsv(records)
        except Exception as exc:
            tally.error("format_tsv", exc)
            return
        self.passes.append((start, meter.mark()))
        self.ops_done += len(records)
        exit_code = 1 if any(r.status == verify.FAIL for r in records) else 0
        sha = hashlib.sha256(tsv.encode()).hexdigest()
        tally.op(
            sha == CATALOG_TSV_SHA256 and len(records) == CATALOG_RECORDS
            and exit_code == CATALOG_EXIT_CODE,
            f"catalog TSV sha256 {sha}, {len(records)} records, exit code {exit_code}",
        )


def exported_specs() -> dict[str, str]:
    """Each catalog row's block of ``lagext catalog export``, by label."""
    cli = importlib.import_module("lagext.cli")
    out = io.StringIO()
    with redirect_stdout(out):
        cli.export.callback(out=None)
    blocks = {}
    for block in out.getvalue().split("\n\n"):
        head = block.split("\n", 1)[0]
        if head.startswith("# entry "):
            blocks[head.split()[2]] = block + "\n"
    return blocks


# Fixed parameter values tried in order for rows with parameters.
_PARAM_POOL = tuple(Fraction(v) for v in ("2", "1/3", "3", "-1/2", "5", "-3", "7/2"))


def _choose_env(entry) -> dict[str, Fraction]:
    env: dict[str, Fraction] = {}
    for p in entry.params:
        env[p.name] = next(v for v in _PARAM_POOL if p.admits(v, {**env, p.name: v}))
    for p in entry.params:  # exclusions may refer to later parameters
        if not p.admits(env[p.name], env):
            raise ValueError(f"no admissible fixed parameters for {entry.label}")
    return env


class Draw(NamedTuple):
    """One seeded cocycle draw, as plain data: flat cochains, sigma as rows."""

    kind: str  # "closed", "open" or "noncocycle"
    alpha: tuple
    closed: bool  # whether the cyclic sums of alpha vanish
    sigma: tuple | None = None
    shifted: tuple | None = None


class ExtendCocycles(Workload):
    """The spec-file route of ``lagext extend FILE --cocycle random:K``.

    Per row and pass: parse the exported spec, build the connection, compute
    the cocycle bases once, then run two closed draws from Z2_L, one draw from
    Z2 \\ Z2_L (omega not closed) and one non-cocycle that must raise
    CocycleError.  Closed draws outnumber open ones so that the median falls
    inside one outcome class.
    """

    name = "extend-cocycles"
    OP_NAMES = ("extensions_per_s", "pipeline_ms")
    CLOSED_DRAWS = 2
    # Every second flat row (32 of 64) keeps one pass near ten seconds.
    ROW_STRIDE = 2

    def __init__(self, lx, seed):
        super().__init__(lx, seed)
        specs = exported_specs()
        self.rows = []
        eligible = [e for e in lx.catalog.table1_entries()
                    if not e.suspect and e.label not in CATALOG_FAIL_ROWS]
        for entry in eligible[::self.ROW_STRIDE]:
            text = specs[entry.label]
            env = _choose_env(entry)
            spec = lx.specfile.parse_spec(text)
            conn = lx.specfile.build_connection(spec, lx.specfile.build_algebra(spec, env), env)
            rep = lx.connection.dual_representation(conn)
            z2, z2l = lx.cohomology.cocycle_bases(rep)
            self.rows.append({
                "label": entry.label, "text": text, "env": env, "dim": conn.dim,
                "bases": _canonical_bases(z2, z2l),
                "draws": self._draws(lx, conn, rep, z2, z2l),
            })

    def _combination(self, lx, space, n):
        coeffs = [_rational(self.rng) for _ in range(space.dim)]
        if space.dim and not any(coeffs):
            coeffs[0] = Fraction(1)
        return lx.cohomology.two_cochain_from_coefficients(space, tuple(coeffs), n)

    def _draw(self, kind, alpha, sigma=None, shifted=None) -> Draw:
        return Draw(kind, canonical(alpha.flatten()), _cyclic_sums_vanish(alpha.tensor),
                    sigma, None if shifted is None else canonical(shifted.flatten()))

    def _draws(self, lx, conn, rep, z2, z2l):
        n = conn.dim
        draws = []
        for _ in range(self.CLOSED_DRAWS):
            alpha = self._combination(lx, z2l, n)
            sigma = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                for k in range(i, n):
                    sigma[i][k] = sigma[k][i] = _rational(self.rng)
            shifted = alpha - lx.cohomology.coboundary_1(rep, lx.cohomology.OneCochain.from_rows(sigma))
            draws.append(self._draw("closed", alpha, canonical(sigma), shifted))
        if z2.dim > z2l.dim:
            alpha = self._combination(lx, z2, n)
            while _cyclic_sums_vanish(alpha.tensor):
                alpha = self._combination(lx, z2, n)
            draws.append(self._draw("open", alpha))
        # A closed cochain moved off Z2 along one coordinate.
        width = z2.ambient_dim
        base = self._combination(lx, z2l, n).flatten()
        while True:
            coord = self.rng.randrange(width)
            bump = [Fraction(0)] * width
            bump[coord] = _rational(self.rng, nonzero=True)
            if not z2.contains(tuple(bump)):
                break
        flat = tuple(a + b for a, b in zip(base, bump))
        draws.append(self._draw("noncocycle", lx.cohomology.TwoCochain.unflatten(n, flat)))
        return draws

    def run_pass(self, lx, meter, tally):
        cochains = lx.cohomology
        start = meter.mark()
        digest_parts = []
        for row in self.rows:
            label, n = row["label"], row["dim"]
            try:
                with meter.timed():
                    spec = lx.specfile.parse_spec(row["text"])
                    conn = lx.specfile.build_connection(
                        spec, lx.specfile.build_algebra(spec, row["env"]), row["env"])
                    rep = lx.connection.dual_representation(conn)
                    z2, z2l = cochains.cocycle_bases(rep)
            except Exception as exc:
                tally.error(f"{label}: prepare", exc)
                continue
            bases = _canonical_bases(z2, z2l)
            digest_parts.append((label, bases))
            tally.op(bases == row["bases"], f"{label}: cocycle bases differ from the input run")
            for draw in row["draws"]:
                alpha = cochains.TwoCochain.unflatten(n, draw.alpha)
                if draw.kind == "noncocycle":
                    self._reject(lx, meter, tally, conn, alpha, label)
                    continue
                sigma = shifted = None
                if draw.kind == "closed":
                    sigma = cochains.OneCochain.from_rows(draw.sigma)
                    shifted = cochains.TwoCochain.unflatten(n, draw.shifted)
                self._pipeline(lx, meter, tally, conn, draw, alpha, sigma, shifted, label)
        self.passes.append((start, meter.mark()))
        digest = bases_digest(digest_parts)
        tally.op(digest == COCYCLE_BASES_SHA256, f"cocycle bases digest {digest}")

    @staticmethod
    def _reject(lx, meter, tally, conn, alpha, label):
        ext_mod = lx.extension
        triple = ext_mod.ExtensionTriple(conn, alpha)
        try:
            with meter.timed():
                ext_mod.build_extension(triple, name=f"{label}_ext")
        except ext_mod.CocycleError:
            tally.op(True, "")
            return
        except Exception as exc:
            tally.error(f"{label}: non-cocycle", exc)
            return
        tally.op(False, f"{label}: non-cocycle accepted")

    def _pipeline(self, lx, meter, tally, conn, draw, alpha, sigma, shifted, label):
        ext_mod, spec_mod = lx.extension, lx.specfile
        name = f"{label}_ext"
        triple = ext_mod.ExtensionTriple(conn, alpha)
        before = meter.mark()
        try:
            with meter.timed():
                ext = ext_mod.build_extension(triple, name=name)
                closed = ext_mod.d_omega(ext).is_zero()
                cert = ext_mod.extension_nilpotency(triple)
                recovered = ext_mod.induced_flat_connection(ext, ext.lagrangian_ideal)
                text = spec_mod.serialize_spec(
                    spec_mod.spec_from_symplectic(name, ext.algebra, ext.omega))
                parsed = spec_mod.parse_spec(text)
                if draw.kind == "closed":
                    canonical_conn = ext_mod.canonical_connection(ext)
                    psi = ext_mod.equivalence_map_psi(
                        triple, ext_mod.ExtensionTriple(conn, shifted), sigma)
        except Exception as exc:
            tally.error(f"{label}: {draw.kind} extension", exc)
            return
        self.samples.append((before, meter.mark()))
        self.ops_done += 1
        problems = []
        if closed != draw.closed or closed != (draw.kind == "closed"):
            problems.append(f"closed={closed}")
        if not cert.nilpotent:
            problems.append("extension not nilpotent")
        if canonical(recovered.gamma) != canonical(conn.gamma):
            problems.append("round trip changed the connection")
        if not self._spec_matches(parsed, ext):
            problems.append("spec round trip changed the extension")
        if draw.kind == "closed":
            if not _torsion_free(canonical_conn):
                problems.append("canonical connection has torsion")
            if canonical(psi.entries) != self._expected_psi(draw.sigma):
                problems.append("psi differs from (x, xi) -> (x, xi + sigma(x))")
        tally.op(not problems, f"{label}: {draw.kind} extension: {', '.join(problems)}")

    @staticmethod
    def _spec_matches(spec, ext) -> bool:
        m = spec.dim
        bracket = [[[Fraction(0)] * m for _ in range(m)] for _ in range(m)]
        for cell in spec.brackets:
            i, j = cell.left.resolve(m, 0), cell.right.resolve(m, 0)
            for term in cell.terms:
                k = term.token.resolve(m, 0)
                bracket[i][j][k] += term.coeff.evaluate()
                bracket[j][i][k] -= term.coeff.evaluate()
        omega = [[Fraction(0)] * m for _ in range(m)]
        for line in spec.omega:
            i, j = line.left.resolve(m, 0), line.right.resolve(m, 0)
            omega[i][j], omega[j][i] = line.value.evaluate(), -line.value.evaluate()
        return (
            m == ext.dim
            and canonical(ext.algebra.bracket) == canonical(bracket)
            and canonical(ext.omega.entries) == canonical(omega)
        )

    @staticmethod
    def _expected_psi(sigma):
        """psi as rows, for sigma given as its rows."""
        n = len(sigma)
        rows = [tuple(Fraction(int(c == r)) for c in range(2 * n)) for r in range(n)]
        for k in range(n):
            rows.append(tuple(
                sigma[c][k] if c < n else Fraction(int(c == n + k)) for c in range(2 * n)))
        return tuple(rows)


def truncated_polynomial_connection(lx, lambdas):
    """b_i . b_j = l_i l_j / l_(i+j) b_(i+j) on abelian R^n (1-based, i+j <= n).

    Commutative, associative and nilpotent, hence a complete flat
    torsion-free connection whose cohomology dimensions ignore the lambdas.
    """
    n = len(lambdas)
    entries = {}
    for i in range(1, n):
        for j in range(1, n + 1 - i):
            v = [Fraction(0)] * n
            v[i + j - 1] = lambdas[i - 1] * lambdas[j - 1] / lambdas[i + j - 1]
            entries[(i - 1, j - 1)] = tuple(v)
    return lx.connection.FlatConnection.from_entries(
        lx.lie.LieAlgebra.abelian(n, f"trunc{n}"), entries, label=f"trunc{n}")


def _dims(summary):
    return (summary.dim_z2, summary.dim_z2_lagrangian, summary.dim_b2,
            summary.dim_h2, summary.dim_h2_lagrangian)


def oracle_ranks(gamma, bracket):
    """rank(d2) and rank([d2; cyclic sums]) computed by sympy from scratch.

    d2 is rebuilt here from rho(e_i) = -transpose(nabla_{e_i}) and the
    bracket, without lagext's cochain code:
    (d a)(x,y,z) = rho(x)a(y,z) + rho(y)a(z,x) + rho(z)a(x,y)
                   + a(x,[y,z]) + a(y,[z,x]) + a(z,[x,y]).
    """
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    n = len(gamma)
    pairs = list(combinations(range(n), 2))
    col = {p: idx for idx, p in enumerate(pairs)}

    def coord(i, j):  # a(e_i, e_j) as (pair column block, sign)
        return (col[(i, j)], 1) if i < j else (col[(j, i)], -1)

    rows: dict[int, dict[int, Fraction]] = {}

    def add(r, c, v):
        if v:
            row = rows.setdefault(r, {})
            row[c] = row.get(c, 0) + v

    triples = list(combinations(range(n), 3))
    for t_idx, (i, j, k) in enumerate(triples):
        for x, (y, z) in ((i, (j, k)), (j, (k, i)), (k, (i, j))):
            block, sign = coord(y, z)
            for t in range(n):
                for m in range(n):
                    add(t_idx * n + t, block * n + m, -sign * gamma[x][t][m])
            for s in range(n):
                coeff = bracket[y][z][s]
                if coeff and s != x:
                    block, sign = coord(x, s)
                    for m in range(n):
                        add(t_idx * n + m, block * n + m, sign * coeff)
    width = len(pairs) * n
    height = len(triples) * n
    d2 = {r: {c: QQ(v.numerator, v.denominator) for c, v in row.items() if v}
          for r, row in rows.items()}
    d2 = {r: row for r, row in d2.items() if row}
    cyclic = dict(d2)
    for t_idx, (i, j, k) in enumerate(triples):
        row = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            block, sign = coord(a, b)
            row[block * n + c] = row.get(block * n + c, 0) + sign
        cyclic[height + t_idx] = {c: QQ(v) for c, v in row.items() if v}
    rank = DomainMatrix(d2, (height, width), QQ).rank()
    rank_l = DomainMatrix(cyclic, (height + len(triples), width), QQ).rank()
    return width, rank, rank_l


class CohomologyLadder(Workload):
    """Full cohomology summaries: seeded n = 3..6 structures and two 8-dim rungs."""

    name = "cohomology-ladder"
    SMALL_DRAWS = 4

    def __init__(self, lx, seed):
        super().__init__(lx, seed)
        self.lambdas = [
            [[self._lambda() for _ in range(n)] for n in range(3, 7)]
            for _ in range(self.SMALL_DRAWS)
        ]
        # Region ranges of each 8-dim rung, one per pass.  A rung takes seconds,
        # so a run holds two or three; each reports its median pass.
        self.large = {label: [] for label in LADDER_N8_DIMS}
        # (name, gamma, bracket, dims) of every rung of the first pass, for the oracle.
        self.rungs = []

    def _lambda(self) -> Fraction:
        return Fraction(self.rng.choice((-3, -2, -1, 1, 2, 3)), self.rng.randint(1, 3))

    def measured(self):
        return bool(self.passes) and bool(self.samples) and all(self.large.values())

    def _keep(self, name, conn, summary):
        self.rungs.append((name, canonical(conn.gamma), canonical(conn.base.bracket), _dims(summary)))

    def run_pass(self, lx, meter, tally):
        start = meter.mark()
        keep = not self.rungs
        for group in self.lambdas:
            before = meter.mark()
            for lambdas in group:
                conn = truncated_polynomial_connection(lx, lambdas)
                try:
                    with meter.timed():
                        if not lx.connection.check_flat_torsion_free(conn).ok:
                            raise ValueError("ladder structure is not flat torsion-free")
                        summary = lx.cohomology.cohomology(lx.connection.dual_representation(conn))
                except Exception as exc:
                    tally.error(f"{conn.label}: cohomology", exc)
                    continue
                self.ops_done += 1
                tally.op(_dims(summary) == LADDER_SMALL_DIMS[conn.dim],
                         f"{conn.label}: dims {_dims(summary)}")
                if keep:
                    self._keep(conn.label, conn, summary)
            self.samples.append((before, meter.mark()))
        catalog, ext_mod = lx.catalog, lx.extension
        for label in LADDER_N8_DIMS:
            before = meter.mark()
            try:
                conn = catalog.instantiate(catalog.entry_by_label(label), catalog.ParameterSample(()))
                with meter.timed():
                    ext = ext_mod.build_extension(ext_mod.ExtensionTriple.with_zero_cocycle(conn))
                    canonical_conn = ext_mod.canonical_connection(ext)
                    summary = lx.cohomology.cohomology(
                        lx.connection.dual_representation(canonical_conn))
            except Exception as exc:
                tally.error(f"{label}: 8-dim rung", exc)
                continue
            self.ops_done += 1
            self.large[label].append((before, meter.mark()))
            tally.op(_dims(summary) == LADDER_N8_DIMS[label], f"{label} n8: dims {_dims(summary)}")
            if keep:
                self._keep(f"{label} n8", canonical_conn, summary)
        self.passes.append((start, meter.mark()))

    def finish(self, tally):
        """The sympy oracle, once per run, on every rung of the first pass."""
        for label, gamma, bracket, (z2, z2l, *_rest) in self.rungs:
            try:
                width, rank, rank_l = oracle_ranks(gamma, bracket)
            except Exception as exc:
                tally.error(f"{label}: sympy oracle", exc)
                continue
            tally.op(rank == width - z2 and rank_l == width - z2l,
                     f"{label}: sympy ranks {rank}, {rank_l} vs dim Z2 {z2}, Z2_L {z2l}")

    def metrics(self, norm):
        return {
            "ops_per_s": self.ops_done / len(self.passes)
            / statistics.median(_sums(norm, self.passes)),
            "typical_ms": statistics.median(_sums(norm, self.samples)) * 1e3,
            "heavy_ms": sum(statistics.median(_sums(norm, spans))
                            for spans in self.large.values()) * 1e3,
        }

    def report(self, norm):
        m = self.metrics(norm)
        return [
            ("rungs_per_s", m["ops_per_s"], "1/s", f"{self.ops_done} in {len(self.passes)} passes"),
            ("ladder_small_s", m["typical_ms"] / 1e3, "s", f"{len(self.samples)} ladders n = 3..6"),
            ("ladder_n8_s", m["heavy_ms"] / 1e3, "s", f"median of {len(self.passes)} passes per 8-dim rung"),
        ]


WORKLOADS = {w.name: w for w in (CatalogSweep, ExtendCocycles, CohomologyLadder)}
