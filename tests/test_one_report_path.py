"""Every report record is built in verify.py.

Catalog rows and spec files share one report path; a record built anywhere
else would be a second path whose checks can drift from the catalog's.
"""

import ast
from pathlib import Path

import pytest

import lagext

PACKAGE = Path(lagext.__file__).parent


def record_constructions(source: str) -> list[str]:
    """Each call of ReportRecord(...) in the source, as a line-tagged string."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "ReportRecord":
                found.append(f"line {node.lineno}: ReportRecord(...)")
    return found


@pytest.mark.parametrize(
    "name", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "verify.py")
)
def test_no_module_but_verify_builds_records(name):
    assert record_constructions((PACKAGE / name).read_text()) == []


def test_guard_sees_every_call_form():
    for line in (
        'ReportRecord("x", "jacobi", "-", "pass")',
        'records.append(ReportRecord(label, "connection", "-", "conflict", str(exc)))',
        'verify.ReportRecord("x", "jacobi", "-", "pass")',
        'def f():\n    return [ReportRecord(*row) for row in rows]',
    ):
        assert len(record_constructions(line)) == 1, line
    assert record_constructions("from .verify import ReportRecord\nrecords: list[ReportRecord] = []") == []
