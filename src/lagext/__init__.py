"""Exact-arithmetic toolkit for flat nilpotent Lie algebras, their Lagrangian
extensions, symplectic verification, and reduction.

Each name is imported from its module: ``linalg`` (exact matrices and
subspaces), ``lie`` (Lie algebras and their series), ``connection`` (flat
torsion-free connections and their dual representation), ``cohomology``,
``extension`` (Lagrangian extensions, the induced and canonical connections,
reduction), ``exprs`` and ``specfile`` (the spec-file format), ``catalog``
(the paper's table), ``sampling``, ``verify`` (report records) and ``cli``.
"""
