"""Command-line front end: axiom checks, cohomology, extensions, reductions,
and the catalog verification sweep."""

from __future__ import annotations

import functools
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
    SpecParseError,
    bind_params,
    build_algebra,
    build_block,
    build_cocycle,
    build_connection,
    build_omega,
    parse_spec,
    serialize_spec,
    spec_from_symplectic,
)
from .verify import (
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
        except (ValueError, ZeroDivisionError):
            raise click.ClickException(f"bad rational value in {pair!r}") from None
    return env


def _load_spec(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_spec(fh.read())
    except OSError as exc:
        raise click.ClickException(str(exc)) from None
    except (SpecParseError, UnicodeDecodeError) as exc:
        raise click.ClickException(f"{path}: {exc}") from None


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


@click.group()
def main():
    """Exact verification of flat nilpotent Lie algebras and their Lagrangian extensions."""


def spec_command(name: str):
    """Register a command on a spec FILE whose parameters come from --set.

    The command body gets the parsed spec and its bound parameters.  A
    ValueError from parsing, binding or building ends the command with a
    one-line ``Error:`` and exit code 1.
    """

    def register(body):
        @main.command(name)
        @click.argument("file", type=click.Path(exists=True, dir_okay=False))
        @click.option("--set", "assignments", multiple=True, help="Parameter value NAME=VALUE.")
        @functools.wraps(body)
        def command(file, assignments, **options):
            spec = _load_spec(file)
            try:
                return body(spec, bind_params(spec, _parse_assignments(assignments)), **options)
            except ValueError as exc:
                raise click.ClickException(str(exc)) from None

        return command

    return register


@spec_command("check")
@click.option("--format", "fmt", type=click.Choice(["text", "tsv"]), default="text")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def check(spec, env, fmt, out):
    """Run axiom checks for whatever blocks FILE contains."""
    records = verify_spec(spec, env)
    _emit(format_tsv(records) if fmt == "tsv" else format_text(records), out)
    sys.exit(exit_code_for(records))


def _flat_connection(spec, env):
    algebra = build_block("algebra", build_algebra, spec, env)
    conn = build_block("connection", build_connection, spec, algebra, env)
    if not check_flat_torsion_free(conn).ok:
        raise click.ClickException("connection is not flat torsion-free")
    return conn


@spec_command("cohomology")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def cohomology_cmd(spec, env, out):
    """Cohomology dimensions of the flat structure in FILE."""
    summary = cohomology(dual_representation(_flat_connection(spec, env)))
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


@spec_command("extend")
@click.option("--cocycle", "source", default="zero",
              help="Cocycle source: zero, spec, or random:SEED.")
@click.option("--cohomology", "with_cohomology", is_flag=True, default=False)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def extend(spec, env, source, with_cohomology, out):
    """Build the Lagrangian extension of the flat structure in FILE."""
    conn = _flat_connection(spec, env)
    kind, _, seed = source.partition(":")
    if source == "zero":
        alpha = TwoCochain.zero(spec.dim)
    elif source == "spec":
        alpha = build_block("cocycle", build_cocycle, spec, env)
    elif kind == "random" and seed.lstrip("-").isdigit():
        alpha = _random_lagrangian_cocycle(conn, int(seed))
    else:
        raise click.ClickException(
            f"unknown cocycle source {source!r}; use zero, spec or random:SEED"
        )

    triple = ExtensionTriple(conn, alpha)
    try:
        ext = build_extension(triple, name=f"{spec.name}_ext")
    except CocycleError as exc:
        raise click.ClickException(f"cocycle is not closed: {exc._first_witness}") from None
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


@spec_command("reduce")
@click.option("--ideal", required=True, help="Comma-separated basis tokens, e.g. e^1,e^2.")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def reduce(spec, env, ideal, out):
    """Symplectic reduction of FILE (algebra + omega) by the span of basis tokens."""
    sympl = SymplecticLieAlgebra(
        build_block("algebra", build_algebra, spec, env),
        build_block("omega", build_omega, spec, env),
    )
    sympl.validate()

    tokens = [t.strip() for t in ideal.split(",") if t.strip()]
    vectors = [
        unit_vector(spec.dim, BasisToken.parse(t, None).resolve(spec.dim, None)) for t in tokens
    ]
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
@click.option("--entry", "entry_label", default=None)
@click.option("--format", "fmt", type=click.Choice(["text", "tsv"]), default="text")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def verify_catalog(samples, entry_label, fmt, out):
    """Re-check every catalog row: connection axioms, extension properties, round trip."""
    try:
        records, exit_code = run_verify_catalog(samples, entry_label)
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
        blocks.append("\n".join(lines) + "\n" + serialize_spec(entry.spec))
    footer = ["# reference records (no bracket data; nothing asserted):"]
    for record in TABLE4_RECORDS:
        footer.append(f"# {record.label}: {record.form}; {record.coefficients}; {record.remark}")
    blocks.append("\n".join(footer) + "\n")
    _emit("\n".join(blocks), out)


if __name__ == "__main__":
    main()
