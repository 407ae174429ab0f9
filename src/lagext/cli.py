"""Command-line front end: axiom checks, cohomology, extensions, reductions,
and the catalog verification sweep."""

from __future__ import annotations

import sys
from fractions import Fraction

import click

from .catalog import table1_entries, TABLE4_RECORDS
from .cohomology import TwoCochain, cohomology, cocycle_bases, two_cochain_from_coefficients
from .connection import check_flat_torsion_free, dual_representation
from .extension import (
    CocycleError,
    ExtensionTriple,
    SymplecticLieAlgebra,
    build_extension,
    d_omega,
    extension_nilpotency,
    is_lagrangian_ideal,
    symplectic_reduction,
)
from .linalg import Subspace, unit_vector
from .sampling import random_rational, rng_for
from .specfile import (
    BasisToken,
    DuplicateCellError,
    SpecParseError,
    build_algebra,
    build_cocycle,
    build_connection,
    build_omega,
    parse_spec,
    serialize_spec,
    spec_from_symplectic,
)
from .verify import (
    AlgebraBlockError,
    exit_code_for,
    format_text,
    format_tsv,
    run_verify_catalog,
    verify_spec,
)


def _parse_assignments(pairs) -> dict[str, Fraction]:
    env = {}
    for pair in pairs:
        if "=" not in pair:
            raise click.ClickException(f"--set expects NAME=VALUE, got {pair!r}")
        name, _, value = pair.partition("=")
        try:
            env[name.strip()] = Fraction(value.strip())
        except ValueError:
            raise click.ClickException(f"bad rational value in {pair!r}") from None
    return env


def _load_spec(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_spec(fh.read())
    except OSError as exc:
        raise click.ClickException(str(exc)) from None
    except SpecParseError as exc:
        raise click.ClickException(f"{path}: {exc}") from None


def _require_env(spec, env):
    missing = sorted(spec.param_names - set(env))
    if missing:
        raise click.ClickException(
            f"file declares parameters {', '.join(missing)}; supply them with --set NAME=VALUE"
        )


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


@click.group()
def main():
    """Exact verification of flat nilpotent Lie algebras and their Lagrangian extensions."""


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--set", "assignments", multiple=True, help="Parameter value NAME=VALUE.")
@click.option("--format", "fmt", type=click.Choice(["text", "tsv"]), default="text")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def check(file, assignments, fmt, out):
    """Run axiom checks for whatever blocks FILE contains."""
    spec = _load_spec(file)
    env = _parse_assignments(assignments)
    _require_env(spec, env)
    try:
        records = verify_spec(spec, env)
    except AlgebraBlockError as exc:
        raise click.ClickException(f"algebra block invalid: {exc}") from None
    _emit(format_tsv(records) if fmt == "tsv" else format_text(records), out)
    sys.exit(exit_code_for(records))


@main.command("cohomology")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--set", "assignments", multiple=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def cohomology_cmd(file, assignments, out):
    """Cohomology dimensions of the flat structure in FILE."""
    spec = _load_spec(file)
    env = _parse_assignments(assignments)
    _require_env(spec, env)
    algebra = build_algebra(spec, env)
    try:
        conn = build_connection(spec, algebra, env)
    except DuplicateCellError as exc:
        raise click.ClickException(str(exc)) from None
    report = check_flat_torsion_free(conn)
    if not report.ok:
        raise click.ClickException("connection is not flat torsion-free; cohomology undefined")
    summary = cohomology(dual_representation(conn))
    lines = [
        f"algebra {spec.name} dim {spec.dim}",
        f"dim C1 = {summary.dim_c1}",
        f"dim C1_lagrangian = {summary.dim_c1_lagrangian}",
        f"dim Z2 = {summary.dim_z2}",
        f"dim B2 = {summary.dim_b2}",
        f"dim B2_lagrangian = {summary.dim_b2_lagrangian}",
        f"dim Z2_lagrangian = {summary.dim_z2_lagrangian}",
        f"dim H2 = {summary.dim_h2}",
        f"dim H2_lagrangian = {summary.dim_h2_lagrangian}",
        f"natural map rank = {summary.natural_map_rank}",
    ]
    _emit("\n".join(lines) + "\n", out)


def _random_lagrangian_cocycle(conn, seed: int) -> TwoCochain:
    _, z2l = cocycle_bases(dual_representation(conn))
    rng = rng_for(seed, "cli-random-cocycle", conn.label)
    coeffs = tuple(random_rational(rng) for _ in range(z2l.dim))
    return two_cochain_from_coefficients(z2l, coeffs, conn.dim)


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--cocycle", "source", default="zero",
              help="Cocycle source: zero, spec, or random:SEED.")
@click.option("--cohomology", "with_cohomology", is_flag=True, default=False)
@click.option("--set", "assignments", multiple=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def extend(file, source, with_cohomology, assignments, out):
    """Build the Lagrangian extension of the flat structure in FILE."""
    spec = _load_spec(file)
    env = _parse_assignments(assignments)
    _require_env(spec, env)
    algebra = build_algebra(spec, env)
    try:
        conn = build_connection(spec, algebra, env)
    except DuplicateCellError as exc:
        raise click.ClickException(f"conflict: {exc}") from None
    report = check_flat_torsion_free(conn)
    if not report.ok:
        raise click.ClickException("connection is not flat torsion-free")

    if source == "zero":
        alpha = TwoCochain.zero(spec.dim)
    elif source == "spec":
        alpha = build_cocycle(spec, env)
    elif source.startswith("random:"):
        alpha = _random_lagrangian_cocycle(conn, int(source.split(":", 1)[1]))
    else:
        raise click.ClickException(f"unknown cocycle source {source!r}")

    triple = ExtensionTriple(conn, alpha)
    try:
        ext = build_extension(triple, name=f"{spec.name}_ext")
    except CocycleError as exc:
        raise click.ClickException(f"cocycle is not closed: {exc}") from None
    cert = extension_nilpotency(triple)
    closed = d_omega(ext).is_zero()

    comments = [
        f"# extension of {spec.name} (dim {spec.dim} -> {ext.dim})",
        f"# cocycle source: {source}",
        f"# omega closed: {'yes' if closed else 'no (cocycle violates the cyclic-sum condition)'}",
        f"# nilpotent: {'yes' if cert.nilpotent else 'no'}"
        + (f", class {cert.extension_class}" if cert.nilpotent else ""),
        f"# lower central series dims: {', '.join(str(d) for d in cert.lcs_dims)}",
    ]
    if with_cohomology:
        summary = cohomology(dual_representation(conn))
        comments.append(
            f"# base cohomology: dim H2 = {summary.dim_h2}, "
            f"dim H2_lagrangian = {summary.dim_h2_lagrangian}"
        )
    body = serialize_spec(spec_from_symplectic(f"{spec.name}_ext", ext.algebra, ext.omega))
    _emit("\n".join(comments) + "\n" + body, out)


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--ideal", required=True, help="Comma-separated basis tokens, e.g. e^1,e^2.")
@click.option("--set", "assignments", multiple=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def reduce(file, ideal, assignments, out):
    """Symplectic reduction of FILE (algebra + omega) by the span of basis tokens."""
    spec = _load_spec(file)
    env = _parse_assignments(assignments)
    _require_env(spec, env)
    algebra = build_algebra(spec, env)
    omega = build_omega(spec, env)
    sympl = SymplecticLieAlgebra(algebra, omega)
    sympl.validate()

    tokens = [t.strip() for t in ideal.split(",") if t.strip()]
    vectors = []
    for t in tokens:
        token = BasisToken.parse(t, 0)
        vectors.append(unit_vector(spec.dim, token.resolve(spec.dim, 0)))
    j = Subspace.from_vectors(spec.dim, vectors)

    verdict = is_lagrangian_ideal(sympl, j)
    if verdict.status in ("not_ideal", "not_isotropic") or not verdict.normal:
        raise click.ClickException(
            f"span({ideal}) is not a normal isotropic ideal: "
            f"status={verdict.status} normal={verdict.normal}"
        )
    reduced = symplectic_reduction(sympl, j)
    comments = [
        f"# reduction of {spec.name} by span({ideal})",
        f"# ideal status: {verdict.status}, normal: {verdict.normal}",
        f"# reduced dimension: {reduced.dim}",
    ]
    if reduced.dim:
        body = serialize_spec(spec_from_symplectic(f"{spec.name}_red", reduced.algebra, reduced.omega))
    else:
        body = f"algebra {spec.name}_red dim 0\n"
    _emit("\n".join(comments) + "\n" + body, out)


@main.command("verify-catalog")
@click.option("--samples", default=3, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--entry", "entry_label", default=None)
@click.option("--format", "fmt", type=click.Choice(["text", "tsv"]), default="text")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def verify_catalog(samples, seed, entry_label, fmt, out):
    """Re-check every catalog row: connection axioms, extension properties, round trip."""
    try:
        records, exit_code = run_verify_catalog(samples, seed, entry_label)
    except ValueError as exc:
        raise click.ClickException(str(exc)) from None
    text = format_tsv(records) if fmt == "tsv" else format_text(records)
    _emit(text, out)
    sys.exit(exit_code)


@main.group()
def catalog():
    """Catalog data commands."""


@catalog.command()
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def export(out):
    """Write the bundled catalog in the spec-file format (verbatim, typos included)."""
    blocks = []
    for entry in table1_entries():
        lines = [f"# entry {entry.label} (base {entry.base})"]
        if entry.suspect:
            slots = ", ".join(f"({i},{j})" for i, j in entry.duplicate_slots())
            lines.append(f"# suspect: duplicate slots {slots}")
        lines.append(f"algebra {entry.label} dim 4")
        base = {
            "a": [],
            "l": ["bracket e1 e2 -> 1 e3"],
            "t": ["bracket e1 e4 -> -1 e2", "bracket e2 e4 -> -1 e3"],
        }[entry.base]
        lines.extend(base)
        for p in entry.params:
            lines.append(f"param {p.describe()}")
        for cell in entry.cells:
            lines.append(f"connection e{cell.i} e{cell.j} -> {cell.rhs}")
        blocks.append("\n".join(lines))
    footer = ["# reference records (no bracket data; nothing asserted):"]
    for record in TABLE4_RECORDS:
        footer.append(f"# {record.label}: {record.form}; {record.coefficients}; {record.remark}")
    blocks.append("\n".join(footer))
    _emit("\n\n".join(blocks) + "\n", out)


if __name__ == "__main__":
    main()
