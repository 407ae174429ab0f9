"""Deterministic report records for catalog rows and spec files.

``verify_entry`` checks each parameter sample of a catalog row and
``verify_spec`` each block of a parsed spec file.  A connection from either
source goes through the same nine checks (``CHECK_NAMES``), and a connection
that assigns a cell twice gets nine ``conflict`` records from either, so a
row written out by ``lagext catalog export`` and read back gets the records
``verify-catalog`` gives it.  The round trip recovers each connection from
its extension's Lagrangian ideal (``extension.induced_flat_connection``).  A
check fails exactly when it has a witness, and a run exits 1 exactly when
some record fails (``exit_code_for``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .catalog import (
    CatalogEntry,
    ConflictReport,
    instantiate,
    sample_parameters,
    table1_entries,
)
from .cohomology import coboundary_2
from .connection import (
    CompletenessEvidence,
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
    build_extension,
    extension_nilpotency,
    induced_flat_connection,
    is_lagrangian_ideal,
)
from .linalg import _dense, fmt_vector, format_rational
from .specfile import (
    BlockError,
    DuplicateCellError,
    SpecFile,
    build_algebra,
    build_block,
    build_cocycle,
    build_connection,
    build_omega,
)

CHECK_NAMES = (
    "torsion",
    "flatness",
    "base-bracket-match",
    "completeness",
    "extension-jacobi",
    "extension-closed",
    "lagrangian-ideal",
    "extension-nilpotent",
    "round-trip",
)

PASS = "pass"
FAIL = "fail"
CONFLICT = "conflict"
SKIPPED = "skipped"


@dataclass(frozen=True)
class ReportRecord:
    entry: str
    check: str
    sample: str
    status: str
    witness: str = ""

    def __post_init__(self):
        if self.status == FAIL and not self.witness:
            raise ValueError("fail records must carry a witness")


def _verdict(label: str, check: str, sample_id: str, witness: str) -> ReportRecord:
    """The record of a check that ran: it fails exactly when it has a witness."""
    return ReportRecord(label, check, sample_id, FAIL if witness else PASS, witness)


def exit_code_for(records: list[ReportRecord]) -> int:
    """1 when some record fails, else 0; conflicts and skips do not fail a run."""
    return 1 if any(r.status == FAIL for r in records) else 0


def _completeness_witness(evidence: CompletenessEvidence) -> str:
    if not evidence.complete:
        j = next(i for i, t in enumerate(evidence.traces) if t != 0)
        return f"tr R(e{j+1}) = {format_rational(evidence.traces[j])}"
    if evidence.nabla_nilindex is None:
        return "Engel flag of nabla stops above 0: some nabla_x is not nilpotent"
    if not evidence.all_nilpotent:
        j = evidence.right_mult_nilpotent.index(False)
        return f"R(e{j+1}) is not nilpotent"
    return ""


def _conflict_records(conflict: ConflictReport, sample_id: str) -> list[ReportRecord]:
    """One ``conflict`` record per check, each witnessed by the conflicting cells."""
    witness = conflict.describe()
    return [ReportRecord(conflict.label, c, sample_id, CONFLICT, witness) for c in CHECK_NAMES]


def _connection_records(label: str, sample_id: str, conn: FlatConnection) -> list[ReportRecord]:
    records: list[ReportRecord] = []

    def record(check: str, witness: str) -> None:
        records.append(_verdict(label, check, sample_id, witness))

    def skip_the_rest(reason: str) -> list[ReportRecord]:
        records.extend(
            ReportRecord(label, name, sample_id, SKIPPED, reason)
            for name in CHECK_NAMES[len(records):]
        )
        return records

    report = check_flat_torsion_free(conn)
    record("torsion", next(
        (f"T(e{i},e{j}) = {fmt_vector(res)}" for (i, j), res in report.torsion), ""
    ))
    record("flatness", next(
        (f"R(e{i},e{j})e{s} = {fmt_vector(res)}" for (i, j, s), res in report.curvature), ""
    ))
    n = conn.dim
    record("base-bracket-match", next(
        (f"[e{i+1},e{j+1}] induced {fmt_vector(_dense(dict(induced), n))} "
         f"vs declared {fmt_vector(_dense(dict(declared), n))}"
         for (i, j), induced, declared in zip(
             combinations(range(n), 2), induced_bracket(conn).pairs, conn.base.pairs
         )
         if induced != declared),
        "",
    ))
    if not report.ok:
        return skip_the_rest("requires flat torsion-free connection")

    record("completeness", _completeness_witness(is_geodesically_complete(conn)))

    triple = ExtensionTriple.with_zero_cocycle(conn)
    try:
        ext = build_extension(triple)
    except (CocycleError, ValueError) as exc:
        records.append(ReportRecord(label, "extension-jacobi", sample_id, FAIL, str(exc)))
        return skip_the_rest("extension unbuildable")
    record("extension-jacobi", "")

    record("extension-closed", ext.d_omega_result.first_witness())

    verdict = is_lagrangian_ideal(ext, ext.lagrangian_ideal)
    record("lagrangian-ideal", "" if verdict.is_lagrangian and verdict.normal
           else f"status={verdict.status} normal={verdict.normal}")

    try:
        cert = extension_nilpotency(triple)
    except IntegrityError as exc:
        records.append(ReportRecord(label, "extension-nilpotent", sample_id, FAIL, str(exc)))
    else:
        record("extension-nilpotent", "" if cert.nilpotent else f"lcs dims {cert.lcs_dims}")

    recovered = induced_flat_connection(ext, ext.lagrangian_ideal).nonzero_gamma
    record("round-trip", next(
        (f"gamma({i+1},{j+1}) recovered {fmt_vector(_dense(dict(recovered[i][j]), n))} "
         f"vs {fmt_vector(_dense(dict(terms), n))}"
         for i, plane in enumerate(conn.nonzero_gamma)
         for j, terms in enumerate(plane)
         if recovered[i][j] != terms),
        "",
    ))
    return records


def verify_entry(entry: CatalogEntry, samples: int, seed: int = 0) -> list[ReportRecord]:
    """Records of ``samples`` parameter samples of a row; ``seed`` is ignored."""
    records: list[ReportRecord] = []
    for idx, sample in enumerate(sample_parameters(entry, samples)):
        sample_id = f"s{idx}[{sample.describe()}]"
        result = instantiate(entry, sample)
        if isinstance(result, ConflictReport):
            records.extend(_conflict_records(result, sample_id))
        else:
            records.extend(_connection_records(entry.label, sample_id, result))
    return records


def verify_spec(spec: SpecFile, env: dict[str, Fraction]) -> list[ReportRecord]:
    """Records for each block of a parsed spec file, in block order.

    The algebra block gives ``jacobi``; a connection block the nine
    ``CHECK_NAMES`` records, all ``conflict`` when it assigns a cell twice,
    as a suspect catalog row's are; an omega block ``omega-nondegenerate``
    and ``omega-closed``; a cocycle block ``cocycle-closed`` and
    ``cocycle-bianchi``, or a skipped ``cocycle`` record without a flat
    torsion-free connection.  Raises
    BlockError when the algebra, omega or cocycle block, or the connection
    block for any reason but a cell assigned twice, does not build.
    """
    label = spec.name
    algebra = build_block("algebra", build_algebra, spec, env)
    records = [_verdict(label, "jacobi", "-", "")]

    conn = None
    if spec.connection:
        try:
            conn = build_block("connection", build_connection, spec, algebra, env)
        except BlockError as exc:
            if not isinstance(exc.__cause__, DuplicateCellError):
                raise
            records.extend(_conflict_records(ConflictReport(label, exc.__cause__.conflicts), "-"))
        else:
            records.extend(_connection_records(label, "-", conn))

    if spec.omega:
        sympl = SymplecticLieAlgebra(algebra, build_block("omega", build_omega, spec, env))
        records.append(_verdict(label, "omega-nondegenerate", "-",
                                "" if sympl.form.is_nondegenerate else "omega is singular"))
        records.append(_verdict(label, "omega-closed", "-", sympl.d_omega_result.first_witness()))

    if spec.cocycle:
        if conn is None:
            records.append(ReportRecord(label, "cocycle", "-", SKIPPED,
                                        "cocycle checks need a connection block"))
        elif not check_flat_torsion_free(conn).ok:
            records.append(ReportRecord(label, "cocycle", "-", SKIPPED,
                                        "requires flat torsion-free connection"))
        else:
            alpha = build_block("cocycle", build_cocycle, spec, env)
            residual = coboundary_2(dual_representation(conn), alpha)
            records.append(_verdict(label, "cocycle-closed", "-", residual.first_witness()))
            records.append(_verdict(label, "cocycle-bianchi", "-",
                                    "" if alpha.is_lagrangian else "cyclic sum is nonzero"))
    return records


def run_verify_catalog(
    samples: int = 3, entry_label: str | None = None
) -> tuple[list[ReportRecord], int]:
    """All records in catalog order plus the exit code (0 iff no fail)."""
    records: list[ReportRecord] = []
    for entry in table1_entries():
        if entry_label is not None and entry.label != entry_label:
            continue
        records.extend(verify_entry(entry, samples))
    if entry_label is not None and not records:
        raise ValueError(f"no catalog entry labeled {entry_label!r}")
    return records, exit_code_for(records)


def format_tsv(records: list[ReportRecord]) -> str:
    lines = ["entry\tcheck\tsample\tstatus\twitness"]
    for r in records:
        lines.append(f"{r.entry}\t{r.check}\t{r.sample}\t{r.status}\t{r.witness}")
    return "\n".join(lines) + "\n"


def format_text(records: list[ReportRecord]) -> str:
    lines = []
    for r in records:
        line = f"[{r.status:>8}] {r.entry:6} {r.check:20} sample={r.sample}"
        if r.witness:
            line += f"  witness: {r.witness}"
        lines.append(line)
    counts = {status: 0 for status in (PASS, FAIL, CONFLICT, SKIPPED)}
    for r in records:
        counts[r.status] += 1
    lines.append(
        f"summary: {counts[PASS]} pass, {counts[FAIL]} fail, "
        f"{counts[CONFLICT]} conflict, {counts[SKIPPED]} skipped"
    )
    return "\n".join(lines) + "\n"


__all__ = [
    "CHECK_NAMES",
    "ReportRecord",
    "exit_code_for",
    "run_verify_catalog",
    "verify_entry",
    "verify_spec",
    "format_text",
    "format_tsv",
]
