"""Self-test of the benchmark at minimal size (one pass per run, about 90 s).

    python3 perfbench/selftest.py

Checks that every end-to-end metric is emitted with its unit on each
workload, that every per-layer metric is emitted with its unit by a traced
run, that correct outputs give no failed operation, that one flipped byte in
the catalog TSV counts as a failed operation, and that a sweep in which every
row raises counts every failure and leaves nothing to time.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run
import tracing
import workloads


def _result(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    if code != 0:
        raise SystemExit(f"run.py {' '.join(argv)} exited with {code}")
    return json.loads(out.getvalue().strip().splitlines()[-1])


def _check_result(result: dict, units: dict[str, str], what: str) -> list[str]:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{what}: result keys {sorted(result)}")
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != units:
        problems.append(f"{what}: metrics/units differ: {sorted(set(got.items()) ^ set(units.items()))}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{what}: {result['failed']} of {result['attempted']} operations failed")
    return problems


def _flipped_tsv_fails() -> bool:
    lx, _ = run.import_lagext()
    original = lx.verify.format_tsv

    def corrupted(records):
        text = original(records)
        return text[:100] + chr(ord(text[100]) ^ 1) + text[101:]

    lx.verify.format_tsv = corrupted
    tally = workloads.Tally()
    workloads.CatalogSweep(lx, 0).run_pass(lx, workloads.Meter(), tally)
    return tally.failed / tally.attempted > 0


def _all_failing_is_reported() -> bool:
    """With every row raising, the sweep counts each failure and times nothing."""
    lx = run.fresh_lagext()

    def broken(entry, samples, seed):
        raise RuntimeError("broken on purpose")

    lx.verify.verify_entry = broken
    tally = workloads.Tally()
    work = workloads.CatalogSweep(lx, 0)
    work.run_pass(lx, workloads.Meter(), tally)
    return not work.measured() and tally.failed == tally.attempted > 0


def main() -> int:
    problems = []
    for name in workloads.WORKLOADS:
        argv = ["--workload", name, "--seed", "0", "--seconds", "0", "--trace", "0"]
        problems += _check_result(_result(argv), run.E2E_UNITS, f"{name} trace 0")
    argv = ["--workload", "catalog-sweep", "--seed", "0", "--seconds", "0", "--trace", "1"]
    problems += _check_result(_result(argv), tracing.metric_units(), "catalog-sweep trace 1")
    if not _flipped_tsv_fails():
        problems.append("a flipped TSV byte left failed_op_ratio at 0")
    if not _all_failing_is_reported():
        problems.append("a sweep whose every row raised was not reported as unmeasured")
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
