"""Names that no command, check or benchmark reached are gone.

Each had no caller outside its own tests, and two duplicated code that
stays: ``Subspace.reduce`` eliminated in Fractions what ``Subspace.contains``
now does through ``linalg._in_span`` on the int rows, and
``LieAlgebra.central_series`` kept a second copy of what
``integer_central_series`` keeps.  ``quotient_basis`` is read in the product
as ``_quotient_pivots`` (cohomology's representatives), and
``symplectic_reduction`` only wrapped ``classify_and_reduce``.
"""

import inspect

import pytest

import lagext
from lagext import catalog, cohomology, extension, lie, linalg

DELETED = [
    (linalg, "quotient_basis"),
    (linalg, "_quotient_rows"),
    (linalg.Subspace, "reduce"),
    (linalg.Subspace, "coordinates"),
    (lie.LieAlgebra, "central_series"),
    (extension.ExtensionTriple, "dual_rep"),
    (extension, "symplectic_reduction"),
    (cohomology.OneCochain, "unit"),
    (cohomology.OneCochain, "value"),
    (cohomology.TwoCochain, "value"),
]


@pytest.mark.parametrize(
    "owner, name", DELETED, ids=[f"{owner.__name__}.{name}" for owner, name in DELETED]
)
def test_a_deleted_name_is_absent_from_its_module_and_the_package(owner, name):
    assert not hasattr(owner, name)
    assert not hasattr(lagext, name)


def test_the_kernel_continues_no_earlier_elimination():
    assert list(inspect.signature(linalg._kernel).parameters) == ["rows", "width"]


def test_sample_parameters_keeps_no_set_of_seen_combinations():
    assert "seen" not in catalog.sample_parameters.__code__.co_varnames
