"""lagext benchmark: one workload per run, end-to-end or traced per-layer metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload catalog-sweep --seed 1 --seconds 15 --trace 0

It imports lagext from ``src/`` of the checkout and drives it in-process from
this single-threaded process.  Set-up (a fresh import, ``table1_entries`` and
the first ``instantiate``) is repeated ``SETUP_REPEATS`` times and reported as
a median.  The workload then runs whole passes until ``--seconds`` have gone
by; each pass starts from a fresh import of lagext, as each CLI invocation
does, so no lagext state carries over from one pass to the next.  Every
output is checked against golden values; mismatches and unexpected exceptions
count as failed operations.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one untraced
reference pass, then traced passes until ``--seconds`` have gone by in all
(spans written to ``perfbench/out/``), then one count-only pass under
cProfile for ``Fraction.__new__``, and reports the per-layer metrics per pass.  The last line of standard output is the JSON
result; the lines before it are a readable report.  Without ``src/lagext`` the
run prints no result and exits with code 2; when too few operations succeed to
time, it prints no result and exits with code 1.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import importlib
import json
import os
import platform
import pstats
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import tracing  # perfbench/, the script directory, is first on sys.path
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MODULES = ("verify", "catalog", "connection", "cohomology", "extension", "lie", "linalg", "specfile")
SETUP_REPEATS = 15
SETUP_TICK_S = 0.01
E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "typical_ms": "ms",
    "heavy_ms": "ms",
}


def fresh_lagext() -> SimpleNamespace:
    """Import lagext anew, as a CLI invocation does: no module state survives."""
    for name in [n for n in sys.modules if n == "lagext" or n.startswith("lagext.")]:
        del sys.modules[name]
    importlib.import_module("lagext")
    return SimpleNamespace(**{m: importlib.import_module(f"lagext.{m}") for m in MODULES})


def import_lagext() -> tuple[SimpleNamespace, workloads.Meter]:
    """Set up SETUP_REPEATS times from a fresh import; return the last import.

    The meter, on the import yardstick, holds one timed region per set-up.
    A set-up takes well under a second, so the meter samples the host speed
    every SETUP_TICK_S.
    """
    if not (SRC / "lagext" / "__init__.py").is_file():
        raise ImportError(f"no lagext package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    meter = workloads.Meter(yardstick=workloads.IMPORT, tick_s=SETUP_TICK_S)
    for _ in range(SETUP_REPEATS):
        with meter.timed():
            lx = fresh_lagext()
            first = lx.catalog.table1_entries()[0]
            lx.catalog.instantiate(first, lx.catalog.sample_parameters(first, 1)[0])
    if Path(sys.modules["lagext"].__file__).resolve().parent != (SRC / "lagext").resolve():
        raise ImportError("lagext was imported from outside this checkout")
    return lx, meter


def environment() -> list[str]:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    head = ROOT / ".git" / "HEAD"
    commit = "not a git checkout"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    src = hashlib.sha256()
    for path in sorted((SRC / "lagext").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return [
        f"python {platform.python_version()} ({platform.python_implementation()})",
        f"cpu {cpu}; nproc {len(os.sched_getaffinity(0))} (cores shared with other tenants)",
        f"commit {commit}; src/lagext sha256 {src.hexdigest()[:16]}",
    ]


def run_passes(work, meter, tally, seconds: float, tracer=None) -> int:
    """Whole passes, each on a fresh import, until `seconds` of wall time have
    gone by (at least one).  The tracer, if any, is installed for each pass."""
    start = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - start < seconds:
        lx = fresh_lagext()
        if tracer is None:
            work.run_pass(lx, meter, tally)
        else:
            tracer.install(lx)
            try:
                work.run_pass(lx, meter, tally)
            finally:
                tracer.uninstall()
        passes += 1
    return passes


def fraction_new_calls(profile: cProfile.Profile) -> int:
    stats = pstats.Stats(profile).stats
    return sum(
        value[1] for (filename, _, func), value in stats.items()
        if func == "__new__" and filename.endswith("fractions.py")
    )


def traced_run(work, tally, seconds: float, spans_path: Path) -> tuple[dict, str]:
    """The untraced reference pass and the traced passes share `seconds`."""
    start = time.perf_counter()
    untraced = workloads.Meter()
    work.run_pass(fresh_lagext(), untraced, tally)
    untraced_s = sum(untraced.normalized())

    tracer = tracing.Tracer()
    meter = workloads.Meter()
    passes = run_passes(work, meter, tally, seconds - (time.perf_counter() - start), tracer)

    profile = cProfile.Profile()
    work.run_pass(fresh_lagext(), workloads.Meter(profile), tally)

    table = tracing.aggregate(tracer.spans)
    for row in table.values():
        for field in row:
            row[field] /= passes
            if field in ("calls", "raised") and row[field] == int(row[field]):
                row[field] = int(row[field])
    metrics = {f"{name}.{field}": value for name, row in table.items() for field, value in row.items()}
    sweeps = table["connection.check_flat_torsion_free"]["calls"]
    builds = table["extension.build_extension"]["calls"]
    metrics["connection.sweeps_per_connection"] = sweeps / max(1, len(tracer.connections))
    metrics["extension.builds_per_extension"] = builds / max(1, len(tracer.triples))
    metrics["linalg.fraction_new.calls"] = fraction_new_calls(profile)
    traced_s = sum(meter.normalized()) / passes
    metrics["tracing.overhead_ratio"] = traced_s / untraced_s

    OUT.mkdir(exist_ok=True)
    tracing.write_spans(spans_path, tracer.spans)
    lines = [
        f"traced passes: {passes}; spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}",
        f"untraced pass {untraced_s:.3f} s, traced pass {traced_s:.3f} s "
        f"(overhead ratio {metrics['tracing.overhead_ratio']:.3f})",
        f"distinct connections {len(tracer.connections)}, distinct triples {len(tracer.triples)}, "
        f"Fraction.__new__ calls per pass {metrics['linalg.fraction_new.calls']}",
        tracing.format_table(table),
    ]
    return metrics, "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        lx, setup = import_lagext()
    except ImportError as exc:
        print(f"cannot import lagext from {SRC}: {exc}", file=sys.stderr)
        return 2

    tally = workloads.Tally()
    work = workloads.WORKLOADS[args.workload](lx, args.seed)
    del lx  # every pass imports lagext afresh
    print("\n".join(environment()))
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")

    if args.trace:
        spans_path = OUT / f"spans-{args.workload}-s{args.seed}.tsv"
        metrics, text = traced_run(work, tally, args.seconds, spans_path)
        work.finish(tally)
        units = tracing.metric_units()
        print(text)
    else:
        meter = workloads.Meter()
        passes = run_passes(work, meter, tally, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        work.finish(tally)
        if not work.measured():
            for message in tally.messages:
                print(f"FAILED: {message}", file=sys.stderr)
            print(f"too few operations succeeded to time ({tally.failed} of "
                  f"{tally.attempted} failed); no result", file=sys.stderr)
            return 1
        norm = meter.normalized()
        metrics = {
            "setup_s": statistics.median(setup.normalized()),
            "peak_rss_mb": peak_rss_mb,
            **work.metrics(norm),
        }
        units = E2E_UNITS
        print(f"passes {passes}; host speed factor {meter.speed_factor():.3f} "
              f"(times are rescaled to the nominal speed, see README.md); raw ops_per_s "
              f"{work.metrics(meter.raw())['ops_per_s']:.4f}")
        print(f"setup_s {metrics['setup_s']:.4f} s (median of {len(setup.regions)})")
        print(f"peak_rss_mb {peak_rss_mb:.1f} MB (before the oracle)")
        for name, value, unit, note in work.report(norm):
            print(f"{name} {value:.4f} {unit} ({note})")

    ratio = tally.failed / tally.attempted
    print(f"failed_op_ratio {ratio:.6f} ({tally.failed} of {tally.attempted} operations)")
    for message in tally.messages:
        print(f"FAILED: {message}", file=sys.stderr)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
