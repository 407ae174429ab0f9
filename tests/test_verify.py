"""Report machinery: record structure, witnesses, skip cascades, formats."""

from collections import Counter
from fractions import Fraction as F
from itertools import chain

import pytest

from inputs import perturbed, random_lagrangian_cocycle, shifted
from lagext import cohomology, connection, extension, lie, linalg, verify
from lagext.catalog import (
    base_algebra,
    connection_for,
    entry_by_label,
    instantiate,
    sample_parameters,
)
from lagext.connection import CompletenessEvidence, FlatConnection
from lagext.extension import (
    ExtensionTriple,
    build_extension,
    extension_nilpotency,
    induced_flat_connection,
)
from lagext.lie import LieAlgebra
from lagext.sampling import rng_for
from lagext.verify import (
    CHECK_NAMES,
    ReportRecord,
    _connection_records,
    format_text,
    format_tsv,
    run_verify_catalog,
    verify_entry,
)


def test_fail_records_must_carry_witness():
    with pytest.raises(ValueError):
        ReportRecord("x", "torsion", "s0", "fail")
    ReportRecord("x", "torsion", "s0", "fail", "T(e1,e2) = (1)")  # fine


def test_clean_entry_emits_all_checks_in_order():
    records = verify_entry(entry_by_label("a_10"), samples=1, seed=0)
    assert [r.check for r in records] == list(CHECK_NAMES)
    assert all(r.status == "pass" for r in records)
    assert all(r.entry == "a_10" for r in records)


def test_parametrized_entry_emits_per_sample():
    records = verify_entry(entry_by_label("l_3"), samples=3, seed=0)
    assert len(records) == 27
    samples = {r.sample for r in records}
    assert len(samples) == 3
    assert all(r.status == "pass" for r in records)


def test_suspect_entry_emits_conflicts_with_both_values():
    records = verify_entry(entry_by_label("l_29"), samples=1, seed=0)
    assert len(records) == len(CHECK_NAMES)
    assert all(r.status == "conflict" for r in records)
    assert all("-1/2 e3" in r.witness and "e4" in r.witness for r in records)


def test_defective_row_fails_with_witness_and_skip_cascade():
    # t_6 is internally inconsistent as shipped; the report machinery must
    # carry exact residual witnesses and skip the checks it blocks.
    records = verify_entry(entry_by_label("t_6"), samples=1, seed=0)
    by_check = {r.check: r for r in records}
    assert by_check["torsion"].status == "fail"
    assert by_check["torsion"].witness == "T(e2,e4) = (0, 0, -1/6, 0)"
    assert by_check["flatness"].status == "fail"
    assert by_check["base-bracket-match"].status == "fail"
    for name in CHECK_NAMES[3:]:
        assert by_check[name].status == "skipped"


@pytest.mark.parametrize(
    "move, witness",
    [
        (lambda c: perturbed(c, rng_for(59, "round-trip-witness")),
         "gamma(3,3) recovered (0, 0, 1/3, 0) vs (0, 0, 0, 0)"),
        (lambda c: perturbed(c, rng_for(63, "round-trip-witness")),
         "gamma(2,1) recovered (0, -2, -1/2, 0) vs (0, 0, -1/2, 0)"),
        (lambda c: shifted(c, {(1, 0, 2): F(1, 2)}),
         "gamma(2,1) recovered (0, 0, 0, 0) vs (0, 0, -1/2, 0)"),
        (lambda c: shifted(c, {(3, 3, 0): F(1), (0, 1, 2): F(-1, 2)}),
         "gamma(1,2) recovered (0, 0, 0, 0) vs (0, 0, 1/2, 0)"),
    ],
    ids=["seeded-empty-cell", "seeded-filled-cell", "cancelled-cell", "first-of-two-cells"],
)
def test_round_trip_failure_names_the_first_moved_cell(move, witness, monkeypatch):
    # The recovered connection is replaced by one with moved cells; every
    # other record of l_26 still passes.
    conn = connection_for("l_26")
    monkeypatch.setattr(verify, "induced_flat_connection", lambda ext, j: move(conn))
    records = _connection_records("l_26", "s0", conn)
    assert [r.check for r in records] == list(CHECK_NAMES)
    assert [(r.check, r.status, r.witness) for r in records if r.status != "pass"] == [
        ("round-trip", "fail", witness)
    ]


def test_exit_code_reflects_fail_records_only():
    _, clean = run_verify_catalog(samples=1, entry_label="l_26")
    assert clean == 0
    _, conflict = run_verify_catalog(samples=1, entry_label="t_17")
    assert conflict == 0
    _, failing = run_verify_catalog(samples=1, entry_label="t_20")
    assert failing == 1


def test_tsv_and_text_formats():
    records, _ = run_verify_catalog(samples=1, entry_label="l_26")
    tsv = format_tsv(records)
    lines = tsv.splitlines()
    assert lines[0] == "entry\tcheck\tsample\tstatus\twitness"
    assert len(lines) == 10
    assert all(len(line.split("\t")) == 5 for line in lines[1:])
    text = format_text(records)
    assert text.endswith("summary: 9 pass, 0 fail, 0 conflict, 0 skipped\n")


def test_full_run_record_accounting():
    records, exit_code = run_verify_catalog(samples=1)
    assert len(records) == 70 * 9
    counts = {}
    for r in records:
        counts[r.status] = counts.get(r.status, 0) + 1
    # 64 clean rows, 3 suspect rows, 3 rows failing the first three checks
    assert counts["pass"] == 64 * 9
    assert counts["conflict"] == 3 * 9
    assert counts["fail"] == 3 * 3
    assert counts["skipped"] == 3 * 6
    assert exit_code == 1


def compute_base_series():
    """The lower central series of the three shared base algebras, computed
    before counting, so that a count does not depend on which test ran first."""
    for code in "alt":
        base_algebra(code).integer_central_series


@pytest.fixture
def verdict_counts(monkeypatch):
    """Counts of the sweep, dual, completeness, build, lower-central-series and
    ideal-classification computations, and of every ``solve_linear`` call.
    The bases' series are computed before counting."""
    compute_base_series()
    counts = Counter()
    patched = [
        (connection, "_sweep"),
        (connection, "_dual"),
        (connection, "_completeness"),
        (extension, "_build"),
        (lie, "_lower_central_series"),
        (extension, "_classify_ideal"),
    ]
    # solve_linear is imported by name, so rebind it wherever it is held.
    patched += [
        (module, "solve_linear")
        for module in (linalg, lie, connection, cohomology, extension)
        if getattr(module, "solve_linear", None) is linalg.solve_linear
    ]
    for module, name in patched:
        def counted(*args, _name=name, _original=getattr(module, name)):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(module, name, counted)
    return counts


@pytest.fixture
def flag_counts(monkeypatch):
    """The descending flags run, the Fractions made inside them, the write-outs
    of a lower central series as subspaces (whose ``rows`` are Fractions),
    and the cells of each connection's tables scaled to ints.  The bases'
    series are computed before counting."""
    compute_base_series()
    counts = {"flags": 0, "fractions_in_flags": 0, "written": 0, "scaled_gamma": []}
    inside = [False]
    real_new = F.__new__

    def counting_new(cls, *args, **kwargs):
        counts["fractions_in_flags"] += inside[0]
        return real_new(cls, *args, **kwargs)

    def flag(*args, _real=lie.descending_flag):
        counts["flags"] += 1
        inside[0] = True
        try:
            return _real(*args)
        finally:
            inside[0] = False

    def written(*args, _real=lie.Subspace.of):
        counts["written"] += 1
        return _real(*args)

    def scaled(cells, _real=connection._integer_tables):
        counts["scaled_gamma"].append(cells)
        return _real(cells)

    monkeypatch.setattr(F, "__new__", counting_new)
    for module in (lie, connection):
        monkeypatch.setattr(module, "descending_flag", flag)
    # lie makes a Subspace with ``of`` only to write out a lower central series.
    counted = type("Subspace", (lie.Subspace,), {"of": staticmethod(written)})
    monkeypatch.setattr(lie, "Subspace", counted)
    monkeypatch.setattr(connection, "_integer_tables", scaled)
    return counts


def assert_flags_on_ints(flag_counts, conn):
    """One series (the extension's; the base's is computed before counting),
    the Engel flag of nabla and one flag per R_{e_j}, none making a Fraction
    or writing one out; gamma scaled once, its cells first and then the base's
    pairs."""
    assert flag_counts["flags"] == 1 + 1 + conn.dim
    assert flag_counts["fractions_in_flags"] == 0
    assert flag_counts["written"] == 0
    assert len(flag_counts["scaled_gamma"]) == 1
    cells = list(flag_counts["scaled_gamma"][0])
    assert cells == [*chain.from_iterable(conn.nonzero_gamma), *conn.base.pairs]


def _first_sample_records(label):
    entry = entry_by_label(label)
    conn = instantiate(entry, sample_parameters(entry, 1)[0])
    return _connection_records(label, "s0", conn), conn


@pytest.mark.parametrize("label", ["l_26", "a_3", "t_5"])
def test_passing_row_computes_each_verdict_once(label, verdict_counts, flag_counts):
    records, conn = _first_sample_records(label)
    assert [r.status for r in records] == ["pass"] * len(CHECK_NAMES)
    # One sweep and one completeness check: the connection recovered from the
    # extension has the row's table, so its checks read the row's connection.  One dual and one build.  One lower central series, the
    # extension's, shared by extension_nilpotency and induced_flat_connection
    # (the shared base's is computed before counting).  One classification of
    # the Lagrangian ideal, shared by the lagrangian-ideal check and
    # induced_flat_connection.  No solve_linear call: the induced connection
    # applies one inverse of the pairing.
    assert verdict_counts == {
        "_sweep": 1,
        "_dual": 1,
        "_completeness": 1,
        "_build": 1,
        "_lower_central_series": 1,
        "_classify_ideal": 1,
    }
    # The series and the Engel flags run on ints and are read by their
    # dimensions only; gamma is scaled once, for the sweep, the flags and rho.
    assert_flags_on_ints(flag_counts, conn)


def test_named_extension_shares_the_lower_central_series(verdict_counts):
    # The order of `lagext extend` and the extend-cocycles workload: name the
    # extension, certify its nilpotency on the triple's unnamed algebra, then
    # recover the connection from the named copy.
    triple = ExtensionTriple.with_zero_cocycle(connection_for("l_26"))
    named = build_extension(triple, name="l_26_ext")
    extension_nilpotency(triple)
    induced_flat_connection(named, named.lagrangian_ideal)
    # One series for the extension, shared by its copy; the base's is
    # computed before counting.
    assert verdict_counts["_lower_central_series"] == 1


def test_named_extension_of_a_nonzero_class_computes_each_verdict_once(
    verdict_counts, flag_counts
):
    # The order of the extend-cocycles workload, with a seeded nonzero class of
    # Z2_L drawn on another instance of the row, so that only the pipeline is
    # counted: name the extension, certify its nilpotency, recover the
    # connection from the named copy.
    alpha = random_lagrangian_cocycle(connection_for("l_26"), rng_for(83, "named-nonzero-class"))
    assert any(alpha.values)
    conn = connection_for("l_26")
    verdict_counts.clear()
    flag_counts.update(flags=0, fractions_in_flags=0, written=0, scaled_gamma=[])
    triple = ExtensionTriple(conn, alpha)
    named = build_extension(triple, name="l_26_ext")
    extension_nilpotency(triple)
    recovered = induced_flat_connection(named, named.lagrangian_ideal)
    assert recovered.nonzero_gamma == conn.nonzero_gamma
    assert verdict_counts == {
        "_sweep": 1,
        "_dual": 1,
        "_completeness": 1,
        "_build": 1,
        "_lower_central_series": 1,
        "_classify_ideal": 1,
    }
    assert_flags_on_ints(flag_counts, conn)
    # Read after counting: the recovered connection's verdicts are its own.
    assert recovered.completeness.complete


def test_defective_row_sweeps_once(verdict_counts):
    _first_sample_records("t_6")
    assert verdict_counts == {"_sweep": 1}


@pytest.mark.parametrize(
    "nilindex, right_mult_nilpotent, witness",
    [
        (None, (True,), "Engel flag of nabla stops above 0: some nabla_x is not nilpotent"),
        (1, (False,), "R(e1) is not nilpotent"),
    ],
)
def test_completeness_witness_names_the_failed_nilpotency_condition(
    nilindex, right_mult_nilpotent, witness
):
    # No catalog row has zero traces and a failed nilpotency condition, so the
    # kept evidence of the line connection nabla_{e1} e1 = e1 is replaced.
    conn = FlatConnection.from_entries(LieAlgebra.abelian(1), {(0, 0): (1,)})
    conn.__dict__["completeness"] = CompletenessEvidence(
        True, (F(0),), nilindex, right_mult_nilpotent
    )
    records = _connection_records("line", "s0", conn)
    completeness = next(r for r in records if r.check == "completeness")
    assert (completeness.status, completeness.witness) == ("fail", witness)
