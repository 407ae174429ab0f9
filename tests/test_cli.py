import hashlib

import pytest

from lagext import extension
from lagext.cli import main
from lagext.specfile import parse_spec
from lagext.verify import run_verify_catalog
from inputs import L26_TEXT, counting, runner  # noqa: F401 (runner is a fixture)


@pytest.fixture
def l26_path(tmp_path):
    path = tmp_path / "l26.spec"
    path.write_text(L26_TEXT)
    return str(path)


def test_verify_catalog_single_clean_entry(runner):
    result = runner.invoke(main, ["verify-catalog", "--entry", "l_26", "--format", "tsv"])
    assert result.exit_code == 0
    rows = [l.split("\t") for l in result.output.strip().splitlines()[1:]]
    assert len(rows) == 9
    assert all(row[3] == "pass" for row in rows)


def test_verify_catalog_suspect_entry_conflicts_exit_zero(runner):
    result = runner.invoke(main, ["verify-catalog", "--entry", "l_29", "--format", "tsv"])
    assert result.exit_code == 0
    rows = result.output.strip().splitlines()[1:]
    assert rows and all("\tconflict\t" in row for row in rows)


def test_verify_catalog_output_bytes_are_pinned(runner):
    # Two runs in one process (criterion 9) cannot see a change that both
    # share; these digests are the output of the full catalog sweep.
    tsv = runner.invoke(main, ["verify-catalog", "--samples", "3", "--format", "tsv"])
    assert tsv.exit_code == 1
    assert len(tsv.stdout_bytes.splitlines()) == 1 + 1062
    assert hashlib.sha256(tsv.stdout_bytes).hexdigest() == (
        "e92a19a4578509d5f00df531b03b2951d07ded3ff48ad4c8b60ab0e8470d83f5"
    )
    text = runner.invoke(main, ["verify-catalog"])
    assert text.exit_code == 1
    assert hashlib.sha256(text.stdout_bytes).hexdigest() == (
        "8f8862b20d06196e070deec607f74dce123988fdee9c3b777909e4e4c85391f4"
    )


def test_verify_catalog_unknown_entry_errors(runner):
    result = runner.invoke(main, ["verify-catalog", "--entry", "nope"])
    assert result.exit_code != 0


@pytest.mark.parametrize("samples", ["0", "-1"])
def test_verify_catalog_rejects_a_sample_count_below_one_by_its_option_name(runner, samples):
    result = runner.invoke(main, ["verify-catalog", "--samples", samples])
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr == "Error: --samples must be at least 1\n"


def test_verify_catalog_parametrized_entry_samples(runner):
    result = runner.invoke(
        main, ["verify-catalog", "--entry", "l_3", "--samples", "2", "--format", "tsv"]
    )
    assert result.exit_code == 0
    rows = result.output.strip().splitlines()[1:]
    assert len(rows) == 18  # 2 samples x 9 checks
    assert any("t=1" in row for row in rows) and any("t=2" in row for row in rows)


def test_run_verify_catalog_library_contract():
    records, exit_code = run_verify_catalog(samples=1, entry_label="a_10")
    assert exit_code == 0
    assert [r.check for r in records] == list(
        ("torsion", "flatness", "base-bracket-match", "completeness",
         "extension-jacobi", "extension-closed", "lagrangian-ideal",
         "extension-nilpotent", "round-trip")
    )


def test_check_command_passes_clean_file(runner, l26_path):
    result = runner.invoke(main, ["check", l26_path])
    assert result.exit_code == 0
    assert "0 fail" in result.output
    assert "[    fail]" not in result.output


def test_check_command_flags_missing_parameters(runner, tmp_path):
    path = tmp_path / "param.spec"
    path.write_text(
        "algebra p dim 4\nparam t positive\nconnection e1 e1 -> t e3\n"
    )
    result = runner.invoke(main, ["check", str(path)])
    assert result.exit_code != 0
    assert "--set" in result.output
    result = runner.invoke(main, ["check", str(path), "--set", "t=2"])
    assert result.exit_code == 0


@pytest.mark.parametrize("command", ["check", "extend", "cohomology"])
def test_declared_parameter_constraints_hold(runner, tmp_path, command):
    path = tmp_path / "param.spec"
    path.write_text("algebra p dim 4\nparam t positive\nconnection e1 e1 -> t e3\n")
    result = runner.invoke(main, [command, str(path), "--set", "t=-1"])
    assert result.exit_code == 1
    assert result.output == "Error: t=-1 violates 'param t positive'\n"
    result = runner.invoke(main, [command, str(path)])
    assert result.exit_code == 1
    assert "supply them with --set" in result.output


NON_JACOBI_TEXT = (
    "algebra j dim 4\nbracket e1 e2 -> 1 e3\nbracket e3 e4 -> 1 e1\nconnection e1 e1 -> 1 e1\n"
)


@pytest.mark.parametrize(
    "text, args, message",
    [
        ("algebra p dim 4\nparam mu\nconnection e1 e1 -> 1/(mu-1) e3\n", ["check", "--set", "mu=1"],
         None),
        (NON_JACOBI_TEXT, ["extend"], None),
        (NON_JACOBI_TEXT, ["cohomology"], None),
        (L26_TEXT, ["extend", "--cocycle", "random:x"], None),
        (L26_TEXT, ["extend", "--cocycle", "spec"], None),
        (None, ["reduce", "--ideal", "e9"], None),
        ("algebra p dim 4\nparam mu\nconnection e1 e1 -> mu e3\n", ["check", "--set", "mu=1/0"],
         "Error: bad rational value in 'mu=1/0'"),
        ("algebra p dim 4\nparam mu gt 1/0\nconnection e1 e1 -> mu e3\n", ["check"],
         "Error: {path}: line 2: bad bound '1/0'"),
        (b"algebra p dim 4\n# \xff\n", ["check"],
         "Error: {path}: 'utf-8' codec can't decode byte 0xff in position 18: invalid start byte"),
    ],
    ids=["pole", "non-jacobi-extend", "non-jacobi-cohomology", "random-seed-not-a-number",
         "spec-without-cocycle", "ideal-out-of-range", "set-pole", "bound-pole", "not-utf-8"],
)
def test_bad_input_ends_in_a_one_line_error(runner, l26_path, tmp_path, text, args, message):
    path = tmp_path / "input.spec"
    if text is None:
        runner.invoke(main, ["extend", l26_path, "--out", str(path)])
    elif isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    result = runner.invoke(main, [args[0], str(path), *args[1:]])
    assert result.exit_code == 1
    assert result.output.startswith("Error: ")
    assert len(result.output.splitlines()) == 1
    assert "Traceback" not in result.output and "line 0" not in result.output
    assert not isinstance(result.exception, ValueError)
    if message is not None:
        assert result.output == message.format(path=path) + "\n"


def test_cohomology_command_outputs_dims(runner, l26_path):
    result = runner.invoke(main, ["cohomology", l26_path])
    assert result.exit_code == 0
    assert "dim H2 = 13" in result.output
    assert "dim H2_lagrangian = 10" in result.output


def test_cohomology_command_rejects_non_flat(runner, tmp_path):
    path = tmp_path / "torsion.spec"
    path.write_text("algebra l dim 4\nbracket e1 e2 -> 1 e3\nconnection e1 e1 -> 1 e2\n")
    result = runner.invoke(main, ["cohomology", str(path)])
    assert result.exit_code != 0
    assert "not flat torsion-free" in result.output


def test_extend_zero_cocycle_output_reparses(runner, l26_path, tmp_path):
    out = tmp_path / "ext.spec"
    result = runner.invoke(main, ["extend", l26_path, "--out", str(out)])
    assert result.exit_code == 0
    text = out.read_text()
    assert "# nilpotent: yes, class 2" in text
    assert "# omega closed: yes" in text
    spec = parse_spec(text)
    assert spec.dim == 8
    assert len(spec.omega) == 4


def test_extend_random_cocycle_stays_closed(runner, l26_path):
    result = runner.invoke(main, ["extend", l26_path, "--cocycle", "random:5", "--cohomology"])
    assert result.exit_code == 0
    assert "# omega closed: yes" in result.output
    assert "# nilpotent: yes" in result.output
    assert "dim H2_lagrangian = 10" in result.output


def test_extend_spec_cocycle_and_rejection(runner, tmp_path):
    path = tmp_path / "with_cocycle.spec"
    path.write_text(L26_TEXT + "cocycle e1 e2 -> 1 e^4\n")
    result = runner.invoke(main, ["extend", str(path), "--cocycle", "spec"])
    assert result.exit_code == 0, result.output
    # a non-cocycle must be rejected with a residual witness
    bad = tmp_path / "bad_cocycle.spec"
    bad.write_text(
        "algebra t_8 dim 4\nbracket e1 e4 -> -1 e2\nbracket e2 e4 -> -1 e3\n"
        "connection e1 e1 -> 1 e4\nconnection e4 e1 -> 1 e2\nconnection e4 e2 -> 1 e3\n"
        "cocycle e1 e2 -> 1 e^2\n"
    )
    result = runner.invoke(main, ["extend", str(bad), "--cocycle", "spec"])
    assert result.exit_code != 0
    assert "not closed" in result.output


def test_reduce_by_full_dual_gives_zero_algebra(runner, l26_path, tmp_path):
    # first build the extension, then reduce it by its Lagrangian dual half
    ext_path = tmp_path / "ext.spec"
    runner.invoke(main, ["extend", l26_path, "--out", str(ext_path)])
    result = runner.invoke(
        main, ["reduce", str(ext_path), "--ideal", "e^1,e^2,e^3,e^4"]
    )
    assert result.exit_code == 0
    assert "# reduced dimension: 0" in result.output


def test_reduce_by_central_line(runner, l26_path, tmp_path):
    ext_path = tmp_path / "ext.spec"
    runner.invoke(main, ["extend", l26_path, "--out", str(ext_path)])
    result = runner.invoke(main, ["reduce", str(ext_path), "--ideal", "e^1"])
    assert result.exit_code == 0
    assert "# reduced dimension: 6" in result.output


@pytest.mark.parametrize("ideal, code", [("e^1", 0), ("e1,e^1", 1)])
def test_reduce_computes_one_orthogonal_and_one_classification(
    runner, l26_path, tmp_path, monkeypatch, ideal, code
):
    ext_path = tmp_path / "ext.spec"
    runner.invoke(main, ["extend", l26_path, "--out", str(ext_path)])
    calls = counting(monkeypatch, extension, ["symplectic_orthogonal", "_classify_ideal"])
    result = runner.invoke(main, ["reduce", str(ext_path), "--ideal", ideal])
    assert result.exit_code == code, result.output
    assert calls == {"symplectic_orthogonal": 1, "_classify_ideal": 1}
    if code:
        assert "is not a normal isotropic ideal: status=not_isotropic normal=False" in result.output


def test_reduce_rejects_non_isotropic_ideal(runner, l26_path, tmp_path):
    ext_path = tmp_path / "ext.spec"
    runner.invoke(main, ["extend", l26_path, "--out", str(ext_path)])
    result = runner.invoke(main, ["reduce", str(ext_path), "--ideal", "e1,e^1"])
    assert result.exit_code != 0


def test_check_tsv_format_and_out_file(runner, l26_path, tmp_path):
    out = tmp_path / "report.tsv"
    result = runner.invoke(
        main, ["check", l26_path, "--format", "tsv", "--out", str(out)]
    )
    assert result.exit_code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "entry\tcheck\tsample\tstatus\twitness"
    assert all(line.split("\t")[3] == "pass" for line in lines[1:])


def test_verify_catalog_out_file_matches_stdout(runner, tmp_path):
    out = tmp_path / "r.tsv"
    direct = runner.invoke(main, ["verify-catalog", "--entry", "a_3", "--format", "tsv"])
    written = runner.invoke(
        main, ["verify-catalog", "--entry", "a_3", "--format", "tsv", "--out", str(out)]
    )
    assert written.exit_code == direct.exit_code == 0
    assert out.read_text() == direct.output


def test_catalog_export_contains_all_entries(runner):
    result = runner.invoke(main, ["catalog", "export"])
    assert result.exit_code == 0
    assert result.output.count("algebra ") == 70
    assert "# suspect: duplicate slots (2,2)" in result.output
    # verbatim duplicates are exported, not repaired
    assert result.output.count("connection e2 e2 ->") >= 4
    assert "g_8_95" in result.output


def test_catalog_export_blocks_reparse(runner):
    result = runner.invoke(main, ["catalog", "export"])
    blocks = result.output.split("\n\n")
    parsed = 0
    for block in blocks:
        if "algebra " not in block:
            continue
        parse_spec(block)
        parsed += 1
    assert parsed == 70
