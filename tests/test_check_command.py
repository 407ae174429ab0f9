"""`lagext check`: the records each block of a spec file adds.

The omega, cocycle, conflict and algebra-block outcomes are pinned; a
connection block gets the catalog's nine checks, compared row by row with
`verify-catalog` itself.
"""

import pytest
from click.testing import CliRunner

from lagext.catalog import entry_by_label, sample_parameters, table1_entries
from lagext.cli import main
from lagext.specfile import parse_spec
from inputs import L26_TEXT, runner  # noqa: F401 (runner is a fixture)
from lagext.verify import CHECK_NAMES

T8_NON_COCYCLE = (
    "algebra t_8 dim 4\nbracket e1 e4 -> -1 e2\nbracket e2 e4 -> -1 e3\n"
    "connection e1 e1 -> 1 e4\nconnection e4 e1 -> 1 e2\nconnection e4 e2 -> 1 e3\n"
    "cocycle e1 e2 -> 1 e^2\n"
)


def check_tsv(runner, tmp_path, text, *args):
    """Exit code and (entry, check, sample, status, witness) rows of `check --format tsv`."""
    path = tmp_path / "input.spec"
    path.write_text(text)
    result = runner.invoke(main, ["check", str(path), "--format", "tsv", *args])
    rows = [tuple(line.split("\t")) for line in result.output.splitlines()[1:]]
    return result.exit_code, rows


def without_connection_checks(rows):
    return [row for row in rows if row[1] not in CHECK_NAMES]


def test_extension_output_gets_omega_records(runner, tmp_path):
    spec = tmp_path / "l26.spec"
    spec.write_text(L26_TEXT)
    extended = runner.invoke(main, ["extend", str(spec)])
    assert extended.exit_code == 0
    assert check_tsv(runner, tmp_path, extended.output) == (0, [
        ("l_26_ext", "jacobi", "-", "pass", ""),
        ("l_26_ext", "omega-nondegenerate", "-", "pass", ""),
        ("l_26_ext", "omega-closed", "-", "pass", ""),
    ])


@pytest.mark.parametrize(
    "omega, nondegenerate, closed",
    [
        ("omega e1 e2 -> 1\n", ("fail", "omega is singular"), ("pass", "")),
        ("omega e1 e2 -> 1\nomega e3 e4 -> 1\n", ("pass", ""), ("fail", "d_omega(1,2,4) = -1")),
    ],
)
def test_singular_or_open_omega_fails_with_witness(runner, tmp_path, omega, nondegenerate, closed):
    text = "algebra h dim 4\nbracket e1 e2 -> 1 e3\n" + omega
    assert check_tsv(runner, tmp_path, text) == (1, [
        ("h", "jacobi", "-", "pass", ""),
        ("h", "omega-nondegenerate", "-", *nondegenerate),
        ("h", "omega-closed", "-", *closed),
    ])


def test_closed_lagrangian_cocycle_passes(runner, tmp_path):
    code, rows = check_tsv(runner, tmp_path, L26_TEXT + "cocycle e1 e2 -> 1 e^1\n")
    assert code == 0
    assert without_connection_checks(rows) == [
        ("l_26", "jacobi", "-", "pass", ""),
        ("l_26", "cocycle-closed", "-", "pass", ""),
        ("l_26", "cocycle-bianchi", "-", "pass", ""),
    ]


def test_non_lagrangian_cocycle_fails_the_cyclic_sum(runner, tmp_path):
    code, rows = check_tsv(runner, tmp_path, L26_TEXT + "cocycle e1 e2 -> 1 e^4\n")
    assert code == 1
    assert without_connection_checks(rows)[1:] == [
        ("l_26", "cocycle-closed", "-", "pass", ""),
        ("l_26", "cocycle-bianchi", "-", "fail", "cyclic sum is nonzero"),
    ]


def test_non_cocycle_fails_with_d2_residual(runner, tmp_path):
    code, rows = check_tsv(runner, tmp_path, T8_NON_COCYCLE)
    assert code == 1
    assert without_connection_checks(rows) == [
        ("t_8", "jacobi", "-", "pass", ""),
        ("t_8", "cocycle-closed", "-", "fail", "d2 residual(1,2,4) = (-1, 0, 0, 0)"),
        ("t_8", "cocycle-bianchi", "-", "pass", ""),
    ]


H_CONNECTION = (
    "algebra h dim 4\nbracket e1 e2 -> 1 e3\n"
    "connection e1 e2 -> 1/2 e3\nconnection e2 e1 -> -1/2 e3\n"
)


@pytest.mark.parametrize(
    "text, command, message, record",
    [
        (
            H_CONNECTION + "cocycle e3 e4 -> 1 e^3\n",
            ["extend", "--cocycle", "spec"],
            "cocycle is not closed: d2 residual(1,2,4) = (0, 0, -1, 0)",
            ("h", "cocycle-closed", "-", "fail", "d2 residual(1,2,4) = (0, 0, -1, 0)"),
        ),
        (
            "algebra h dim 4\nbracket e1 e2 -> 1 e3\nomega e1 e2 -> 1\nomega e3 e4 -> 1\n",
            ["reduce", "--ideal", "e3"],
            "omega is not closed: d_omega(1,2,4) = -1",
            ("h", "omega-closed", "-", "fail", "d_omega(1,2,4) = -1"),
        ),
    ],
    ids=["extend", "reduce"],
)
def test_extend_and_reduce_errors_name_the_witness_as_check_does(
    runner, tmp_path, text, command, message, record
):
    path = tmp_path / "input.spec"
    path.write_text(text)
    result = runner.invoke(main, [command[0], str(path), *command[1:]])
    assert (result.exit_code, result.output) == (1, f"Error: {message}\n")
    assert record in check_tsv(runner, tmp_path, text)[1]


def test_cocycle_without_connection_is_skipped(runner, tmp_path):
    text = "algebra l dim 4\nbracket e1 e2 -> 1 e3\ncocycle e1 e2 -> 1 e^4\n"
    assert check_tsv(runner, tmp_path, text) == (0, [
        ("l", "jacobi", "-", "pass", ""),
        ("l", "cocycle", "-", "skipped", "cocycle checks need a connection block"),
    ])


def test_cocycle_on_a_non_flat_connection_is_skipped(runner, tmp_path):
    # nabla_{e1} e1 = e2 and nabla_{e2} e2 = e1 on the abelian plane are
    # torsion-free but not flat, so there is no dual representation to
    # close the cocycle in.
    text = (
        "algebra a dim 2\nconnection e1 e1 -> 1 e2\nconnection e2 e2 -> 1 e1\n"
        "cocycle e1 e2 -> 1 e^1\n"
    )
    code, rows = check_tsv(runner, tmp_path, text)
    assert code == 1
    assert without_connection_checks(rows) == [
        ("a", "jacobi", "-", "pass", ""),
        ("a", "cocycle", "-", "skipped", "requires flat torsion-free connection"),
    ]
    assert [row[3] for row in rows if row[1] == "flatness"] == ["fail"]


def test_duplicate_connection_cell_is_a_conflict(runner, tmp_path):
    text = (
        "algebra l dim 4\nbracket e1 e2 -> 1 e3\n"
        "connection e1 e2 -> 1/2 e3\nconnection e1 e2 -> 1 e4\n"
        "cocycle e1 e2 -> 1 e^1\n"
    )
    assert check_tsv(runner, tmp_path, text) == (0, [
        ("l", "jacobi", "-", "pass", ""),
        ("l", "connection", "-", "conflict",
         "conflicting duplicate connection assignments at (1,2)"),
        ("l", "cocycle", "-", "skipped", "cocycle checks need a connection block"),
    ])


def test_duplicate_bracket_cell_is_an_invalid_algebra_block(runner, tmp_path):
    path = tmp_path / "dup.spec"
    path.write_text("algebra l dim 4\nbracket e1 e2 -> 1 e3\nbracket e1 e2 -> 1 e4\n")
    result = runner.invoke(main, ["check", str(path)])
    assert result.exit_code == 1
    assert result.output == (
        "Error: algebra block invalid: conflicting duplicate bracket assignments at (1,2)\n"
    )


@pytest.mark.parametrize(
    "text, args, message",
    [
        (
            "algebra j dim 4\nbracket e1 e2 -> 1 e3\nbracket e3 e4 -> 1 e1\n",
            (),
            "algebra block invalid: Jacobi identity fails at (1, 2, 4): residual (-1, 0, 0, 0)",
        ),
        (
            "algebra a dim 4\nparam mu\nbracket e1 e2 -> 1 e3\nconnection e1 e1 -> 1/(mu-1) e3\n",
            ("--set", "mu=1"),
            "connection block invalid: cell e1 e1: division by zero while evaluating expression",
        ),
        (
            "algebra h dim 4\nparam mu\nbracket e1 e2 -> 1 e3\nomega e1 e2 -> 1\n"
            "omega e3 e4 -> 1/(mu-1)\n",
            ("--set", "mu=1"),
            "omega block invalid: cell e3 e4: division by zero while evaluating expression",
        ),
        (
            L26_TEXT + "param mu\ncocycle e2 e1 -> 1/(mu-1) e^4\n",
            ("--set", "mu=1"),
            "cocycle block invalid: cell e2 e1: division by zero while evaluating expression",
        ),
        (
            "algebra a dim 4\nparam mu\nbracket e1 e2 -> 1/mu e3\n",
            ("--set", "mu=0"),
            "algebra block invalid: cell e1 e2: division by zero while evaluating expression",
        ),
        (
            "algebra a dim 4\nparam mu\nbracket e1 e2 -> mu^-1 e3\n",
            ("--set", "mu=0"),
            "algebra block invalid: cell e1 e2: division by zero while evaluating expression",
        ),
        (
            "algebra a dim 4\nparam mu\nbracket e1 e2 -> 7^mu e3\n",
            ("--set", "mu=10000000"),
            "algebra block invalid: cell e1 e2: exponent 10000000 exceeds the bound 1024",
        ),
        (
            "algebra a dim 4\nparam mu\nbracket e1 e2 -> (7^1024)^mu e3\n",
            ("--set", "mu=1024"),
            "algebra block invalid: cell e1 e2: power with exponent 1024 exceeds the bound of"
            " 65536 bits",
        ),
    ],
    ids=[
        "jacobi-residual", "connection-pole", "omega-pole", "cocycle-pole", "bracket-pole",
        "bracket-pole-power", "bracket-exponent-bound", "bracket-power-size-bound",
    ],
)
def test_a_block_that_does_not_build_is_named_in_plain_numbers(
    runner, tmp_path, text, args, message
):
    path = tmp_path / "bad.spec"
    path.write_text(text)
    result = runner.invoke(main, ["check", str(path), *args])
    assert (result.exit_code, result.output) == (1, f"Error: {message}\n")


@pytest.mark.parametrize("cell", ["1/0", "0^-1"], ids=["quotient", "power"])
def test_a_literal_pole_is_named_by_its_line(runner, tmp_path, cell):
    path = tmp_path / "bad.spec"
    path.write_text(f"algebra a dim 4\nbracket e1 e2 -> {cell} e3\n")
    result = runner.invoke(main, ["check", str(path)])
    assert (result.exit_code, result.output) == (
        1, f"Error: {path}: line 2: division by zero while evaluating expression\n"
    )


def test_omega_block_error_is_not_an_algebra_block_error(runner, tmp_path):
    path = tmp_path / "dup_omega.spec"
    path.write_text(
        "algebra h dim 4\nbracket e1 e2 -> 1 e3\nomega e1 e2 -> 1\nomega e1 e2 -> 2\n"
    )
    result = runner.invoke(main, ["check", str(path)])
    assert result.exit_code != 0
    assert "algebra block invalid" not in result.output


@pytest.mark.parametrize(
    "command, text",
    [
        ("check", "algebra h dim 4\nbracket e1 e2 -> 1 e3\nomega e1 e2 -> 1\nomega e1 e2 -> 2\n"),
        ("check", L26_TEXT + "cocycle e1 e2 -> 1 e^1\ncocycle e1 e2 -> 1 e^2\n"),
        ("reduce", "algebra h dim 4\nbracket e1 e2 -> 1 e3\nomega e1 e2 -> 1\nomega e1 e2 -> 2\n"),
    ],
    ids=["check-omega", "check-cocycle", "reduce-omega"],
)
def test_duplicate_omega_or_cocycle_cell_names_its_block(runner, tmp_path, command, text):
    block = "omega" if "omega" in text else "cocycle"
    path = tmp_path / "dup.spec"
    path.write_text(text)
    args = [command, str(path)] + (["--ideal", "e3"] if command == "reduce" else [])
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert result.output == (
        f"Error: {block} block invalid: conflicting duplicate {block} assignments at (1,2)\n"
    )


@pytest.fixture(scope="module")
def exported_blocks():
    """The `catalog export` block of each row, by label."""
    output = CliRunner().invoke(main, ["catalog", "export"]).output
    return {
        parse_spec(block).name: block
        for block in output.split("\n\n")
        if "algebra " in block
    }


@pytest.fixture(scope="module")
def catalog_rows():
    """(entry, check, status, witness) of every `verify-catalog --samples 1` record."""
    result = CliRunner().invoke(main, ["verify-catalog", "--samples", "1", "--format", "tsv"])
    return [
        (entry, check, status, witness)
        for entry, check, _, status, witness in
        (line.split("\t") for line in result.output.splitlines()[1:])
    ]


@pytest.mark.parametrize(
    "label", [entry.label for entry in table1_entries() if not entry.suspect]
)
def test_spec_connection_gets_the_catalog_records(
    runner, tmp_path, exported_blocks, catalog_rows, label
):
    sample = sample_parameters(entry_by_label(label), 1)[0]
    settings = [arg for name, value in sample.values for arg in ("--set", f"{name}={value}")]
    code, rows = check_tsv(runner, tmp_path, exported_blocks[label], *settings)
    expected = [row[1:] for row in catalog_rows if row[0] == label]
    assert [(check, status, witness) for _, check, _, status, witness in rows[1:]] == expected
    assert code == (1 if any(status == "fail" for _, status, _ in expected) else 0)


def test_completeness_needs_nilpotent_nabla(runner, tmp_path):
    # Flat, torsion-free and with zero traces, but nabla_{e1} e2 = e2: the
    # trace criterion alone passed this connection; the catalog's rule adds the
    # Engel flag, and the extension of a non-nilpotent base is not nilpotent.
    text = "algebra aff dim 2\nbracket e1 e2 -> 1 e2\nconnection e1 e2 -> 1 e2\n"
    code, rows = check_tsv(runner, tmp_path, text)
    assert code == 1
    assert [row[1:] for row in rows if row[3] != "pass"] == [
        ("completeness", "-", "fail",
         "Engel flag of nabla stops above 0: some nabla_x is not nilpotent"),
        ("extension-nilpotent", "-", "fail", "lcs dims (4, 2)"),
    ]
    assert [row[1] for row in rows] == ["jacobi", *CHECK_NAMES]


@pytest.mark.parametrize(
    "cell, message",
    [
        ("7^1000000", "exponent 1000000 exceeds the bound 1024"),
        ("9^9^9", "exponent 387420489 exceeds the bound 1024"),
        ("(7^1024)^1024", "power with exponent 1024 exceeds the bound of 65536 bits"),
    ],
    ids=["power", "tower", "size"],
)
def test_a_literal_exponent_beyond_the_bound_is_named_by_its_line(runner, tmp_path, cell, message):
    path = tmp_path / "big.spec"
    path.write_text(f"algebra a dim 4\nbracket e1 e2 -> {cell} e3\n")
    result = runner.invoke(main, ["check", str(path)])
    assert (result.exit_code, result.output) == (1, f"Error: {path}: line 2: {message}\n")

