"""One untimed pass of each benchmark workload, in process, with no failed operation.

``perfbench/workloads.py`` checks every output of a pass against its goldens
(the catalog TSV digest, the cocycle bases digest, the cohomology dimensions)
and drives the cochain calls the benchmark makes (``unflatten``, ``flatten``,
``.tensor``, ``two_cochain_from_coefficients``).  A change that breaks
either fails here instead of only in a benchmark run.  The module is loaded
from its file without writing bytecode next to it, and lagext is the copy
this test session imported, as ``perfbench/run.py`` lists its modules.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 101


def run_modules() -> tuple[str, ...]:
    """The literal value of the module-level ``MODULES`` assignment of run.py."""
    for node in ast.parse((PERFBENCH / "run.py").read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "MODULES" for t in node.targets
        ):
            return tuple(ast.literal_eval(node.value))
    raise AssertionError("no MODULES tuple in run.py")


def load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes
    return module


WORKLOADS = load_workloads()


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_one_pass_of_each_workload_has_no_failed_operation(name):
    lx = SimpleNamespace(**{m: importlib.import_module(f"lagext.{m}") for m in run_modules()})
    work = WORKLOADS.WORKLOADS[name](lx, SEED)
    tally = WORKLOADS.Tally()
    work.run_pass(lx, WORKLOADS.Meter(), tally)
    work.finish(tally)  # the sympy oracle of cohomology-ladder; a no-op elsewhere
    assert (tally.failed, tally.messages) == (0, [])
    assert tally.attempted > 0 and work.ops_done > 0
