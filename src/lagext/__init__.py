"""Exact-arithmetic toolkit for flat nilpotent Lie algebras, their Lagrangian
extensions, symplectic verification, and reduction."""

from .catalog import (
    CatalogEntry,
    ConflictReport,
    ParameterSample,
    base_algebra,
    connection_for,
    entry_by_label,
    instantiate,
    sample_parameters,
    table1_entries,
)
from .cohomology import (
    CohomologySummary,
    OneCochain,
    TwoCochain,
    coboundary_1,
    coboundary_2,
    cocycle_bases,
    cohomology,
    solve_coboundary,
)
from .connection import (
    CompletenessEvidence,
    ConnectionReport,
    DualRep,
    FlatConnection,
    check_flat_torsion_free,
    dual_representation,
    induced_bracket,
    is_geodesically_complete,
)
from .extension import (
    CocycleError,
    ExtensionTriple,
    IntegrityError,
    SymplecticLieAlgebra,
    adjusted_symplectic_form,
    build_extension,
    canonical_connection,
    d_omega,
    equivalence_map_psi,
    extension_nilpotency,
    induced_flat_connection,
    is_lagrangian_ideal,
    symplectic_orthogonal,
)
from .lie import (
    Fingerprint,
    LieAlgebra,
    check_jacobi,
    derived_series,
    fingerprint,
    lower_central_series,
    nilpotency_class,
    quotient_algebra,
)
from .linalg import (
    RatMatrix,
    Subspace,
    kernel_basis,
    solve_linear,
)
from .verify import ReportRecord, run_verify_catalog

__all__ = [name for name in dir() if not name.startswith("_")]
