"""A subspace is stored once, as its sparse echelon rows, and omega once, as its
pair coordinates.

``Subspace`` keeps only ``rows``; its pivots and dense basis are views.  A
write into an instance's ``__dict__`` would bring back a second store set
beside the dataclass fields, and a read of ``._rows`` the cached copy that
store fed.  ``SymplecticLieAlgebra`` keeps only ``form``, antisymmetric by
construction, so its constructor checks the length and scans nothing.  In
extension.py the orthogonal of J is the kernel of omega read on J's sparse
rows, with no ``kernel_basis`` of dense ``.apply`` images, and the standard
form is ``standard_form``; the dense versions live on only as oracles in
tests/test_sparse_oracles.py.

A bracket, omega and rho each have one table and one int table scaled by
one D: no module defines a Fraction mirror beside them (``nonzero_brackets``,
``omega_rows``, ``nonzero_entries``), and ``linalg._integer_tables`` takes
one flat sequence of cells, so it guesses no table's shape.
"""

import ast
from pathlib import Path

import pytest

import lagext

PACKAGE = Path(lagext.__file__).parent
LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.comprehension)
DENSE_NAMES = {"kernel_basis", "standard_omega"}
MIRRORS = {"nonzero_brackets", "omega_rows", "nonzero_entries"}


def second_stores(source: str) -> list[str]:
    """Each write into a ``__dict__`` and each ``._rows`` read, line-tagged."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Subscript) and getattr(target.value, "attr", None) == "__dict__":
                    found.append(f"line {node.lineno}: __dict__ write")
        elif isinstance(node, ast.Attribute) and node.attr == "_rows":
            found.append(f"line {node.lineno}: ._rows")
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) in ("update", "setdefault"):
            if getattr(node.func.value, "attr", None) == "__dict__":
                found.append(f"line {node.lineno}: __dict__ write")
    return found


def post_init_loops(source: str) -> list[str]:
    """Each loop or comprehension in ``SymplecticLieAlgebra.__post_init__``."""
    found = []
    for cls in ast.walk(ast.parse(source)):
        if isinstance(cls, ast.ClassDef) and cls.name == "SymplecticLieAlgebra":
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__":
                    found += [
                        f"line {getattr(n, 'lineno', fn.lineno)}: {type(n).__name__}"
                        for n in ast.walk(fn) if isinstance(n, LOOPS)
                    ]
    return found


def dense_omega_paths(source: str) -> list[str]:
    """Each use of ``kernel_basis`` or ``standard_omega``, and each ``.apply(`` call."""
    found = []
    for node in ast.walk(ast.parse(source)):
        name = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.alias):
            name = node.name
        elif isinstance(node, ast.FunctionDef):
            name = node.name
        if name in DENSE_NAMES:
            found.append(f"line {getattr(node, 'lineno', 0)}: {name}")
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "apply":
            found.append(f"line {node.lineno}: .apply(...)")
    return found


def second_tables(source: str) -> list[str]:
    """Each definition of a Fraction mirror, and a ``_integer_tables`` that
    takes other than one positional argument, line-tagged."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name in MIRRORS:
                found.append(f"line {node.lineno}: def {node.name}")
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            if node.name == "_integer_tables" and (len(params) != 1 or args.vararg or args.kwarg):
                found.append(f"line {node.lineno}: _integer_tables takes other than one argument")
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                name = target.id if isinstance(target, ast.Name) else getattr(target, "attr", None)
                if name in MIRRORS:
                    found.append(f"line {node.lineno}: {name} =")
    return found


@pytest.mark.parametrize("name", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_keeps_one_store_per_object(name):
    assert second_stores((PACKAGE / name).read_text()) == []


def test_each_structure_has_one_table_and_one_scaler():
    found = {
        path.name: hits for path in sorted(PACKAGE.glob("*.py"))
        if (hits := second_tables(path.read_text()))
    }
    assert found == {}


def test_symplectic_constructor_scans_nothing():
    assert post_init_loops((PACKAGE / "extension.py").read_text()) == []


def test_extension_module_reads_omega_and_subspaces_sparse():
    assert dense_omega_paths((PACKAGE / "extension.py").read_text()) == []


def test_guards_see_the_dense_stores():
    for line in (
        # the dense subspace with its injected sparse rows
        'space.__dict__["_rows"] = rows',
        "kept = dict(zip(sub.pivots, sub._rows))",
        "object.__dict__.update(_rows=rows)",
        "self.__dict__['basis'] += ()",
    ):
        assert second_stores(line), line
    # the antisymmetry scan of the dense omega
    assert post_init_loops(
        "class SymplecticLieAlgebra:\n"
        "    def __post_init__(self):\n"
        "        n = self.algebra.dim\n"
        "        for i in range(n):\n"
        "            for j in range(i, n):\n"
        "                if self.omega[i, j] != -self.omega[j, i]:\n"
        "                    raise ValueError('omega is not antisymmetric')"
    )
    assert post_init_loops(
        "class SymplecticLieAlgebra:\n    def __post_init__(self):\n"
        "        if any(x != 0 for x in self.form[:0]):\n            raise ValueError"
    )
    for line in (
        "rows = [s.omega.apply(u) for u in j.basis]\nreturn kernel_basis(RatMatrix(tuple(rows)))",
        "from .linalg import kernel_basis",
        "return SymplecticLieAlgebra(algebra, standard_omega(n), dual_subspace(n))",
        "def standard_omega(n):\n    return RatMatrix(())",
    ):
        assert dense_omega_paths(line), line
    # What the sparse code does passes.
    assert second_stores("kept = dict(zip(sub.pivots, sub.rows))\nrows = nxt.rows") == []
    assert post_init_loops(
        "class SymplecticLieAlgebra:\n    def __post_init__(self):\n"
        "        if len(self.form) != n * (n - 1) // 2:\n            raise ValueError\n"
        "    def integer_omega(self):\n        for i in range(n):\n            pass"
    ) == []
    assert dense_omega_paths(
        "return _kernel(_eliminate(rows), s.dim)\nform = standard_form(n)\npsi.col(a)"
    ) == []
    # the Fraction mirrors and the shape-guessing scaler
    for source in (
        "class LieAlgebra:\n    @cached_property\n    def nonzero_brackets(self):\n        pass",
        "class SymplecticLieAlgebra:\n    def omega_rows(self):\n        pass",
        "class DualRep:\n    nonzero_entries = cached_property(entries)",
        "def _integer_tables(*tables):\n    pass",
        "def _integer_tables(cells, shape):\n    pass",
    ):
        assert second_tables(source), source
    assert second_tables(
        "def _integer_tables(cells):\n    pass\nd, cells = _integer_tables(algebra.pairs)"
    ) == []
