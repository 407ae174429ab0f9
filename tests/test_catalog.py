import time
from fractions import Fraction as F

import pytest

from lagext.catalog import (
    ConflictReport,
    ParameterSample,
    TABLE4_RECORDS,
    base_algebra,
    connection_for,
    entry_by_label,
    instantiate,
    sample_parameters,
    table1_entries,
)
from lagext.connection import FlatConnection
from lagext.lie import check_jacobi


def test_exactly_seventy_entries_in_family_order():
    entries = table1_entries()
    assert len(entries) == 70
    labels = [e.label for e in entries]
    assert labels[:10] == [f"a_{i}" for i in range(1, 11)]
    l_labels = [f"l_{i}" for i in range(1, 41) if i != 32]
    assert labels[10:49] == l_labels
    assert labels[49:] == [f"t_{i}" for i in range(1, 22)]
    assert "l_32" not in labels


def test_family_counts():
    entries = table1_entries()
    assert sum(1 for e in entries if e.base == "a") == 10
    assert sum(1 for e in entries if e.base == "l") == 39
    assert sum(1 for e in entries if e.base == "t") == 21


def test_suspect_rows_are_exactly_the_duplicated_ones():
    suspects = [e.label for e in table1_entries() if e.suspect]
    assert suspects == ["l_29", "l_30", "t_17"]
    assert entry_by_label("l_29").duplicate_slots() == ((2, 2),)
    assert entry_by_label("t_17").duplicate_slots() == ((4, 2),)


def test_base_algebras_satisfy_jacobi():
    for code in ("a", "l", "t"):
        algebra = base_algebra(code)
        assert algebra.dim == 4
        assert check_jacobi(algebra) == ()


def test_each_base_is_built_once_and_shared_by_its_rows():
    for code in ("a", "l", "t"):
        base = base_algebra(code)
        assert base_algebra(code) is base
        for entry in table1_entries():
            if entry.base == code and not entry.suspect:
                sample = sample_parameters(entry, 1)[0]
                assert instantiate(entry, sample).base is base
    with pytest.raises(ValueError, match="^unknown base code 'x'$"):
        base_algebra("x")


def test_l26_cells():
    entry = entry_by_label("l_26")
    assert entry.base == "l"
    assert entry.params == ()
    assert [(c.left.text, c.right.text, c.rhs) for c in entry.spec.connection] == [
        ("e1", "e2", "1/2 e3"),
        ("e2", "e1", "-1/2 e3"),
    ]


def test_a2_instantiation():
    conn = connection_for("a_2")
    assert conn.gamma[1][1] == (F(1), 0, 0, 0)
    assert conn.gamma[2][2] == (F(1), 0, 0, 0)
    assert conn.gamma[3][3] == (F(-1), 0, 0, 0)


def test_l3_coefficient_expression_evaluates():
    conn = connection_for("l_3", t=1)
    assert conn.gamma[1][1] == (0, 0, F(1, 2), 0)
    conn2 = connection_for("l_3", t=F(1, 3))
    assert conn2.gamma[1][1] == (0, 0, F(1, 3), 0)


def test_sample_parameters_no_params_single_empty():
    entry = entry_by_label("l_26")
    samples = sample_parameters(entry, 5)
    assert samples == (ParameterSample(()),)


def test_sample_parameters_positive_constraint():
    samples = sample_parameters(entry_by_label("l_3"), 3)
    values = [dict(s.values)["t"] for s in samples]
    assert values == [F(1), F(2), F(1, 3)]
    assert all(v > 0 for v in values)


def test_sample_parameters_bounds():
    gt = [dict(s.values)["mu"] for s in sample_parameters(entry_by_label("l_34"), 3)]
    assert all(v > F(1, 2) for v in gt)
    lt = [dict(s.values)["mu"] for s in sample_parameters(entry_by_label("l_37"), 3)]
    assert all(v < F(1, 2) for v in lt)


def test_sample_parameters_t17_exclusions():
    entry = entry_by_label("t_17")
    samples = sample_parameters(entry, 4)
    assert len(samples) == 4
    for s in samples:
        env = s.env
        assert env["mu"] not in (0, 1)
        assert env["mu1"] != env["mu"] * (2 * env["mu"] + 1) / 3


def test_sample_parameters_distinct_and_deterministic():
    entry = entry_by_label("t_5")
    a = sample_parameters(entry, 5)
    b = sample_parameters(entry, 5)
    assert a == b
    assert len({s.values for s in a}) == 5


def test_sample_parameters_refuses_a_count_beyond_the_admissible_pool_values():
    # t > 0 admits 198 of the first 200 pool values, so 300 samples cannot be met.
    assert len(sample_parameters(entry_by_label("l_3"), 198)) == 198
    with pytest.raises(
        ValueError, match="^l_3 has fewer than 300 admissible samples among the first 200 pool values$"
    ):
        sample_parameters(entry_by_label("l_3"), 300)


def test_sample_parameters_refuses_a_large_count_without_enumerating_the_pool():
    # Each pool size whose per-parameter product is below k is skipped, so
    # the refusal costs no enumeration of combinations.
    start = time.perf_counter()
    with pytest.raises(ValueError, match="^t_5 has fewer than 100000 admissible samples"):
        sample_parameters(entry_by_label("t_5"), 100000)
    assert time.perf_counter() - start < 5


def test_instantiate_suspect_returns_conflict_report():
    entry = entry_by_label("l_29")
    result = instantiate(entry, ParameterSample(()))
    assert isinstance(result, ConflictReport)
    assert result.duplicates == ((2, 2, ("-1/2 e3", "e4")),)
    assert "nabla(e2,e2)" in result.describe()


def test_instantiate_t17_conflict_keeps_both_values():
    entry = entry_by_label("t_17")
    sample = sample_parameters(entry, 1)[0]
    result = instantiate(entry, sample)
    assert isinstance(result, ConflictReport)
    (i, j, rhs) = result.duplicates[0]
    assert (i, j) == (4, 2)
    assert rhs == ("(mu1-mu)/(mu-1) e3", "(mu1-1)/(mu-1) e3")


def test_instantiate_rejects_constraint_violations():
    entry = entry_by_label("l_3")
    with pytest.raises(ValueError):
        instantiate(entry, ParameterSample((("t", F(-1)),)))
    with pytest.raises(ValueError):
        instantiate(entry, ParameterSample(()))  # missing t


def test_every_non_suspect_entry_instantiates_everywhere():
    for entry in table1_entries():
        if entry.suspect:
            continue
        for sample in sample_parameters(entry, 3):
            conn = instantiate(entry, sample)
            assert isinstance(conn, FlatConnection)
            assert conn.base.bracket == base_algebra(entry.base).bracket


def test_connection_for_refuses_suspect_rows():
    with pytest.raises(ValueError):
        connection_for("l_30")


def test_export_blocks_rebuild_identical_connections():
    # the exported spec-file text and the in-memory table must materialize
    # the same tensors, including entries with nonlinear coefficients
    from click.testing import CliRunner
    from lagext.cli import main
    from lagext.specfile import build_algebra, build_connection, parse_spec

    output = CliRunner().invoke(main, ["catalog", "export"]).output
    blocks = {}
    for block in output.split("\n\n"):
        for line in block.splitlines():
            if line.startswith("algebra "):
                blocks[line.split()[1]] = block
    for label in ("l_26", "t_16", "l_17", "a_3", "t_3"):
        entry = entry_by_label(label)
        sample = sample_parameters(entry, 1)[0]
        direct = instantiate(entry, sample)
        spec = parse_spec(blocks[label])
        rebuilt = build_connection(spec, build_algebra(spec), sample.env)
        assert rebuilt.gamma == direct.gamma, label


def test_every_export_block_reparses_to_its_row():
    # a row is a spec file, so its exported block reads back as that same
    # spec: base brackets, parameters and connection cells alike
    from click.testing import CliRunner
    from lagext.cli import main
    from lagext.specfile import parse_spec

    output = CliRunner().invoke(main, ["catalog", "export"]).output
    specs = [parse_spec(block) for block in output.split("\n\n") if "algebra " in block]
    assert {spec.name: spec for spec in specs} == {e.label: e.spec for e in table1_entries()}


def test_dual_half_invariants_under_random_lagrangian_cocycles():
    from lagext.cohomology import cocycle_bases, two_cochain_from_coefficients
    from lagext.connection import dual_representation
    from lagext.extension import ExtensionTriple, build_extension, is_lagrangian_ideal
    from lagext.sampling import random_rational, rng_for

    rng = rng_for(19, "dual-half-invariants")
    for label in ("l_26", "a_3", "t_18"):
        conn = connection_for(label)
        _, z2l = cocycle_bases(dual_representation(conn))
        for _ in range(3):
            coeffs = tuple(random_rational(rng) for _ in range(z2l.dim))
            alpha = two_cochain_from_coefficients(z2l, coeffs, 4)
            ext = build_extension(ExtensionTriple(conn, alpha))
            verdict = is_lagrangian_ideal(ext, ext.lagrangian_ideal)
            assert verdict.is_lagrangian and verdict.normal
            # the dual half is abelian by construction
            for u in ext.lagrangian_ideal.rows:
                for v in ext.lagrangian_ideal.rows:
                    assert not ext.algebra.bracket_rows(u, v)


def test_table4_reference_records_are_opaque():
    assert len(TABLE4_RECORDS) == 5
    labels = [r.label for r in TABLE4_RECORDS]
    assert labels[0].startswith("g_8_80") and labels[-1].startswith("g_8_95")
    # reference data only: every record is a plain string bundle
    for r in TABLE4_RECORDS:
        assert r.form.startswith("omega =")
        assert r.remark
