"""Catalog-wide verification sweep producing deterministic report records."""

from __future__ import annotations

from dataclasses import dataclass

from .catalog import (
    CatalogEntry,
    ConflictReport,
    base_algebra,
    instantiate,
    sample_parameters,
    table1_entries,
)
from .connection import (
    FlatConnection,
    check_flat_torsion_free,
    induced_bracket,
    is_geodesically_complete,
)
from .extension import (
    CocycleError,
    ExtensionTriple,
    IntegrityError,
    build_extension,
    d_omega,
    extension_nilpotency,
    induced_flat_connection,
    is_lagrangian_ideal,
)
from .linalg import Vector, format_rational

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


def fmt_vector(v: Vector) -> str:
    return "(" + ", ".join(format_rational(x) for x in v) + ")"


def _connection_records(label: str, sample_id: str, conn: FlatConnection) -> list[ReportRecord]:
    records: list[ReportRecord] = []
    report = check_flat_torsion_free(conn)

    if report.torsion:
        (i, j), res = report.torsion[0]
        records.append(ReportRecord(label, "torsion", sample_id, FAIL,
                                    f"T(e{i},e{j}) = {fmt_vector(res)}"))
    else:
        records.append(ReportRecord(label, "torsion", sample_id, PASS))

    if report.curvature:
        (i, j, s), res = report.curvature[0]
        records.append(ReportRecord(label, "flatness", sample_id, FAIL,
                                    f"R(e{i},e{j})e{s} = {fmt_vector(res)}"))
    else:
        records.append(ReportRecord(label, "flatness", sample_id, PASS))

    induced = induced_bracket(conn)
    if induced.bracket == conn.base.bracket:
        records.append(ReportRecord(label, "base-bracket-match", sample_id, PASS))
    else:
        witness = next(
            f"[e{i+1},e{j+1}] induced {fmt_vector(induced.bracket[i][j])} "
            f"vs declared {fmt_vector(conn.base.bracket[i][j])}"
            for i in range(conn.dim)
            for j in range(conn.dim)
            if induced.bracket[i][j] != conn.base.bracket[i][j]
        )
        records.append(ReportRecord(label, "base-bracket-match", sample_id, FAIL, witness))

    blocked = "requires flat torsion-free connection"
    if not report.ok:
        for name in CHECK_NAMES[3:]:
            records.append(ReportRecord(label, name, sample_id, SKIPPED, blocked))
        return records

    evidence = is_geodesically_complete(conn)
    if evidence.complete and evidence.all_nilpotent:
        records.append(ReportRecord(label, "completeness", sample_id, PASS))
    else:
        if not evidence.complete:
            j = next(i for i, t in enumerate(evidence.traces) if t != 0)
            witness = f"tr rho(e{j+1}) = {format_rational(evidence.traces[j])}"
        elif evidence.nabla_nilindex is None:
            witness = "Engel flag of nabla stops above 0: some nabla_x is not nilpotent"
        else:
            j = evidence.right_mult_nilpotent.index(False)
            witness = f"R(e{j+1}) is not nilpotent"
        records.append(ReportRecord(label, "completeness", sample_id, FAIL, witness))

    triple = ExtensionTriple.with_zero_cocycle(conn)
    try:
        ext = build_extension(triple)
        records.append(ReportRecord(label, "extension-jacobi", sample_id, PASS))
    except (CocycleError, ValueError) as exc:
        records.append(ReportRecord(label, "extension-jacobi", sample_id, FAIL, str(exc)))
        for name in CHECK_NAMES[5:]:
            records.append(ReportRecord(label, name, sample_id, SKIPPED, "extension unbuildable"))
        return records

    witnesses = d_omega(ext).witnesses()
    if witnesses:
        (i, j, k), value = witnesses[0]
        records.append(ReportRecord(label, "extension-closed", sample_id, FAIL,
                                    f"d_omega({i},{j},{k}) = {format_rational(value)}"))
    else:
        records.append(ReportRecord(label, "extension-closed", sample_id, PASS))

    verdict = is_lagrangian_ideal(ext, ext.lagrangian_ideal)
    if verdict.is_lagrangian and verdict.normal:
        records.append(ReportRecord(label, "lagrangian-ideal", sample_id, PASS))
    else:
        records.append(ReportRecord(label, "lagrangian-ideal", sample_id, FAIL,
                                    f"status={verdict.status} normal={verdict.normal}"))

    try:
        cert = extension_nilpotency(triple)
        if cert.nilpotent:
            records.append(ReportRecord(label, "extension-nilpotent", sample_id, PASS))
        else:
            records.append(ReportRecord(label, "extension-nilpotent", sample_id, FAIL,
                                        f"lcs dims {cert.lcs_dims}"))
    except IntegrityError as exc:
        records.append(ReportRecord(label, "extension-nilpotent", sample_id, FAIL, str(exc)))

    recovered = induced_flat_connection(ext, ext.lagrangian_ideal)
    if recovered.gamma == conn.gamma:
        records.append(ReportRecord(label, "round-trip", sample_id, PASS))
    else:
        witness = next(
            f"gamma({i+1},{j+1}) recovered {fmt_vector(recovered.gamma[i][j])} "
            f"vs {fmt_vector(conn.gamma[i][j])}"
            for i in range(conn.dim)
            for j in range(conn.dim)
            if recovered.gamma[i][j] != conn.gamma[i][j]
        )
        records.append(ReportRecord(label, "round-trip", sample_id, FAIL, witness))
    return records


def verify_entry(entry: CatalogEntry, samples: int, seed: int) -> list[ReportRecord]:
    records: list[ReportRecord] = []
    for idx, sample in enumerate(sample_parameters(entry, samples, seed)):
        sample_id = f"s{idx}[{sample.describe()}]"
        result = instantiate(entry, sample)
        if isinstance(result, ConflictReport):
            for name in CHECK_NAMES:
                records.append(
                    ReportRecord(entry.label, name, sample_id, CONFLICT, result.describe())
                )
        else:
            records.extend(_connection_records(entry.label, sample_id, result))
    return records


def run_verify_catalog(
    samples: int = 3, seed: int = 0, entry_label: str | None = None
) -> tuple[list[ReportRecord], int]:
    """All records in catalog order plus the exit code (0 iff no fail)."""
    records: list[ReportRecord] = []
    for entry in table1_entries():
        if entry_label is not None and entry.label != entry_label:
            continue
        records.extend(verify_entry(entry, samples, seed))
    if entry_label is not None and not records:
        raise ValueError(f"no catalog entry labeled {entry_label!r}")
    exit_code = 1 if any(r.status == FAIL for r in records) else 0
    return records, exit_code


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


def verify_file_connection(label: str, conn: FlatConnection) -> list[ReportRecord]:
    """Connection axioms for a user-supplied file (no catalog base matching)."""
    records: list[ReportRecord] = []
    report = check_flat_torsion_free(conn)
    if report.torsion:
        (i, j), res = report.torsion[0]
        records.append(ReportRecord(label, "torsion", "-", FAIL,
                                    f"T(e{i},e{j}) = {fmt_vector(res)}"))
    else:
        records.append(ReportRecord(label, "torsion", "-", PASS))
    if report.curvature:
        (i, j, s), res = report.curvature[0]
        records.append(ReportRecord(label, "flatness", "-", FAIL,
                                    f"R(e{i},e{j})e{s} = {fmt_vector(res)}"))
    else:
        records.append(ReportRecord(label, "flatness", "-", PASS))
    if report.ok:
        evidence = is_geodesically_complete(conn)
        if evidence.complete:
            records.append(ReportRecord(label, "completeness", "-", PASS))
        else:
            j = next(i for i, t in enumerate(evidence.traces) if t != 0)
            records.append(ReportRecord(label, "completeness", "-", FAIL,
                                        f"tr rho(e{j+1}) = {format_rational(evidence.traces[j])}"))
    else:
        records.append(ReportRecord(label, "completeness", "-", SKIPPED,
                                    "requires flat torsion-free connection"))
    return records


__all__ = [
    "CHECK_NAMES",
    "ReportRecord",
    "run_verify_catalog",
    "verify_entry",
    "format_text",
    "format_tsv",
    "verify_file_connection",
    "base_algebra",
]
