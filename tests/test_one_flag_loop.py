"""The descending flag is written once, as ``lie.descending_flag``.

The lower central series and the uniform nilindex of nabla are both read
off that flag.  A second loop that eliminates on each step in lie.py or
connection.py would bring back a second copy of the flag, whose stopping
rule could drift from the first; the dense loops live on only as oracles in
tests/test_sparse_oracles.py.
"""

import ast
from pathlib import Path

import lagext

PACKAGE = Path(lagext.__file__).parent
ELIMINATIONS = {"_subspace", "_eliminate", "_echelon", "from_vectors"}


def flag_loops(source: str) -> list[str]:
    """Each outermost for or while loop whose body calls ``_subspace``,
    ``_eliminate``, ``_echelon`` or ``.from_vectors``, tagged with the
    enclosing function."""
    found = []

    def eliminates(node):
        return any(
            isinstance(n, ast.Call)
            and (getattr(n.func, "id", None) or getattr(n.func, "attr", None)) in ELIMINATIONS
            for n in ast.walk(node)
        )

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, (ast.For, ast.AsyncFor, ast.While)) and eliminates(node):
            found.append(scope or "<module>")
            return
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def test_lie_and_connection_have_one_flag_loop():
    loops = [loop for name in ("lie.py", "connection.py")
             for loop in flag_loops((PACKAGE / name).read_text())]
    assert loops == ["descending_flag"]


def test_guard_sees_every_flag_loop():
    for source in (
        # the lower central series with its own loop
        "def _lower_central_series(algebra):\n"
        "    series = [Subspace.full(algebra.dim)]\n"
        "    while True:\n"
        "        nxt = _subspace(algebra.dim, _ad_images(algebra, series[-1]))\n"
        "        if nxt.dim == series[-1].dim:\n"
        "            break\n"
        "        series.append(nxt)\n"
        "    return tuple(series)",
        # the uniform nilindex with its own loop
        "def _uniform_nilindex(operators):\n"
        "    for r in range(n + 1):\n"
        "        nxt = list(_eliminate(images).values())\n"
        "        space = nxt",
        "def flag(ms, n):\n    for m in ms:\n        space = Subspace.from_vectors(n, [m.apply(v)])",
        # the int flag with its own loop
        "def _uniform_nilindex(operators, n):\n"
        "    step = {i: {i: 1} for i in range(n)}\n"
        "    while step:\n"
        "        nxt = {}\n"
        "        _echelon(_images(operators, step.values()), nxt)\n"
        "        step = nxt",
    ):
        assert flag_loops(source), source
    # An elimination outside a loop, and a loop that eliminates nothing, pass.
    assert flag_loops(
        "def center(algebra):\n    for i in range(n):\n        rows.append({})\n"
        "    return _kernel(_eliminate(rows), n)\n"
        "def derived_series(algebra):\n    while series[-1].dim:\n"
        "        nxt = bracket_of_subspaces(algebra, series[-1], series[-1])"
    ) == []
