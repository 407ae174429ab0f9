"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  Every tolerance is exact
(zero residuals); the stated runtime budgets are asserted alongside the
mathematical checks.
"""

import time

import sympy
from click.testing import CliRunner

from lagext.catalog import (
    ConflictReport,
    base_algebra,
    connection_for,
    instantiate,
    sample_parameters,
    table1_entries,
)
from lagext.cli import main as cli_main
from lagext.cohomology import (
    OneCochain,
    cocycle_bases,
    coboundary_1,
    cyclic_sum_matrix,
    matrix_of_coboundary_2,
    two_cochain_from_coefficients,
)
from lagext.connection import (
    FlatConnection,
    check_flat_torsion_free,
    dual_representation,
    induced_bracket,
    is_geodesically_complete,
)
from lagext.extension import (
    ExtensionTriple,
    IntegrityError,
    adjusted_symplectic_form,
    build_extension,
    canonical_connection,
    d_omega,
    equivalence_map_psi,
    extension_nilpotency,
    induced_flat_connection,
    is_lagrangian_ideal,
)
from lagext.lie import LieAlgebra, fingerprint
from lagext.sampling import random_rational, rng_for
from lagext.verify import fmt_vector

SUSPECT = {"l_29", "l_30", "t_17"}

# Entries used where the criterion lets us choose the connections.
SWEEP_ENTRIES = ("l_26", "a_3", "t_8", "l_38", "t_18", "a_10")


def _finish(num: int, name: str, started: float, bound: float | None, failures: list):
    elapsed = time.time() - started
    if bound is not None and elapsed >= bound:
        failures.append(f"runtime {elapsed:.2f}s exceeds the {bound:.0f}s budget")
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {num} ({name}): {status} [{elapsed:.2f}s]")
    for f in failures[:12]:
        print(f"    - {f}")
    assert not failures, f"criterion {num} ({name}): {len(failures)} failure(s)"


def _first_sample_connection(entry):
    sample = sample_parameters(entry, 1)[0]
    conn = instantiate(entry, sample)
    assert isinstance(conn, FlatConnection)
    return conn


def _symmetric(rows):
    n = len(rows)
    for i in range(n):
        for k in range(i):
            rows[i][k] = rows[k][i]
    return rows


def test_criterion_1_catalog_soundness_sweep():
    started = time.time()
    failures = []
    for entry in table1_entries():
        if entry.suspect:
            for sample in sample_parameters(entry, 3):
                if not isinstance(instantiate(entry, sample), ConflictReport):
                    failures.append(f"{entry.label}: expected a conflict report")
            continue
        for sample in sample_parameters(entry, 3):
            conn = instantiate(entry, sample)
            if isinstance(conn, ConflictReport):
                failures.append(f"{entry.label}: unexpected conflict report")
                continue
            tag = f"{entry.label}[{sample.describe()}]"
            report = check_flat_torsion_free(conn)
            if report.torsion:
                (i, j), res = report.torsion[0]
                failures.append(f"{tag}: torsion T(e{i},e{j}) = {fmt_vector(res)}")
                continue
            if report.curvature:
                (i, j, s), res = report.curvature[0]
                failures.append(f"{tag}: curvature R(e{i},e{j})e{s} = {fmt_vector(res)}")
                continue
            if induced_bracket(conn).bracket != conn.base.bracket:
                failures.append(f"{tag}: induced bracket differs from declared base")
                continue
            evidence = is_geodesically_complete(conn)
            if not evidence.complete:
                failures.append(f"{tag}: nonzero right-multiplication trace")
            elif not evidence.all_nilpotent:
                failures.append(f"{tag}: non-nilpotent nabla or right multiplication")
    _finish(1, "catalog soundness sweep", started, 10.0, failures)


def test_criterion_2_extension_sweep():
    started = time.time()
    failures = []
    for entry in table1_entries():
        if entry.suspect:
            continue
        try:
            conn = _first_sample_connection(entry)
            triple = ExtensionTriple.with_zero_cocycle(conn)
            ext = build_extension(triple)  # raises if the Jacobi identity fails
        except (ValueError, AssertionError) as exc:
            failures.append(f"{entry.label}: extension unbuildable ({exc})")
            continue
        if not d_omega(ext).is_zero():
            failures.append(f"{entry.label}: pairing form not closed")
        verdict = is_lagrangian_ideal(ext, ext.lagrangian_ideal)
        if not (verdict.is_lagrangian and verdict.normal):
            failures.append(
                f"{entry.label}: dual half classified {verdict.status}, normal={verdict.normal}"
            )
        try:
            cert = extension_nilpotency(triple)
            if not cert.nilpotent:
                failures.append(f"{entry.label}: extension not nilpotent {cert.lcs_dims}")
        except IntegrityError as exc:
            failures.append(f"{entry.label}: nilpotency paths disagree ({exc})")
    _finish(2, "extension sweep", started, 10.0, failures)


def test_criterion_3_round_trip():
    started = time.time()
    failures = []
    for entry in table1_entries():
        if entry.suspect:
            continue
        try:
            conn = _first_sample_connection(entry)
            ext = build_extension(ExtensionTriple.with_zero_cocycle(conn))
            recovered = induced_flat_connection(ext, ext.lagrangian_ideal)
        except (ValueError, IntegrityError) as exc:
            failures.append(f"{entry.label}: round trip unbuildable ({exc})")
            continue
        if recovered.gamma != conn.gamma:
            failures.append(f"{entry.label}: recovered connection differs")

    rng = rng_for(0, "acceptance-roundtrip")
    cocycle_runs = 0
    for label in ("l_26", "a_3", "t_8", "l_38", "t_18"):
        conn = connection_for(label)
        _, z2l = cocycle_bases(dual_representation(conn))
        for _ in range(4):
            coeffs = tuple(random_rational(rng) for _ in range(z2l.dim))
            alpha = two_cochain_from_coefficients(z2l, coeffs, 4)
            ext = build_extension(ExtensionTriple(conn, alpha))
            recovered = induced_flat_connection(ext, ext.lagrangian_ideal)
            cocycle_runs += 1
            if recovered.gamma != conn.gamma:
                failures.append(f"{label}: random-cocycle round trip differs")
    if cocycle_runs < 20:
        failures.append(f"only {cocycle_runs} random-cocycle round trips")
    _finish(3, "round trip", started, None, failures)


def test_criterion_4_bianchi_iff_closed():
    started = time.time()
    failures = []
    rng = rng_for(0, "acceptance-bianchi")
    total = 0
    closed_count = 0
    for label in SWEEP_ENTRIES:
        conn = connection_for(label)
        z2, z2l = cocycle_bases(dual_representation(conn))
        for draw in range(20):
            space = z2 if draw % 2 == 0 else z2l
            coeffs = tuple(random_rational(rng) for _ in range(space.dim))
            alpha = two_cochain_from_coefficients(space, coeffs, 4)
            ext = build_extension(ExtensionTriple(conn, alpha))
            closed = d_omega(ext).is_zero()
            bianchi = alpha.is_lagrangian
            total += 1
            closed_count += closed
            if closed != bianchi:
                failures.append(
                    f"{label} draw {draw}: closed={closed} but cyclic-sum-zero={bianchi}"
                )
    if total < 100:
        failures.append(f"only {total} sampled cocycles")
    if closed_count in (0, total):
        failures.append("sample did not exercise both outcome classes")
    _finish(4, "Bianchi iff closed", started, 30.0, failures)


def test_criterion_5_cohomology_oracle():
    started = time.time()
    failures = []
    expected = {2: (2, 2), 3: (9, 8), 4: (24, 20)}
    for n, (z2_expected, z2l_expected) in expected.items():
        rep = dual_representation(FlatConnection.zero(LieAlgebra.abelian(n)))
        z2, z2l = cocycle_bases(rep)
        if (z2.dim, z2l.dim) != (z2_expected, z2l_expected):
            failures.append(f"n={n}: got ({z2.dim}, {z2l.dim})")
        if z2_expected != n * n * (n - 1) // 2:
            failures.append(f"n={n}: closed form mismatch for Z2")
        if z2l_expected != n * n * (n - 1) // 2 - n * (n - 1) * (n - 2) // 6:
            failures.append(f"n={n}: closed form mismatch for Z2_L")
        # independent brute-force kernel computation through sympy
        d2 = sympy.Matrix(
            [
                [sympy.Rational(x.numerator, x.denominator) for x in row]
                for row in matrix_of_coboundary_2(rep).entries
            ]
        )
        cyc = sympy.Matrix(
            [
                [sympy.Rational(x.numerator, x.denominator) for x in row]
                for row in cyclic_sum_matrix(n).entries
            ]
        )
        cols = d2.shape[1]
        if cols - d2.rank() != z2_expected:
            failures.append(f"n={n}: independent Z2 kernel dim differs")
        if cols - d2.col_join(cyc).rank() != z2l_expected:
            failures.append(f"n={n}: independent Z2_L kernel dim differs")
    _finish(5, "cohomology oracle", started, 1.0, failures)


def test_criterion_6_equivalence_maps():
    started = time.time()
    failures = []
    rng = rng_for(0, "acceptance-equivalence")
    omega_checks = 0
    for label in ("l_26", "t_8", "a_3", "l_38"):
        conn = connection_for(label)
        rep = dual_representation(conn)
        base_triple = ExtensionTriple.with_zero_cocycle(conn)
        for draw in range(6):
            rows = [[random_rational(rng) for _ in range(4)] for _ in range(4)]
            symmetric = draw % 2 == 1
            if symmetric:
                rows = _symmetric(rows)
            sigma = OneCochain.from_rows(rows)
            shifted = ExtensionTriple(conn, base_triple.cocycle - coboundary_1(rep, sigma))
            try:
                # bracket preservation (and, for symmetric sigma, the pullback
                # identity) are verified inside; a violation raises
                equivalence_map_psi(base_triple, shifted, sigma)
            except (ValueError, IntegrityError) as exc:
                failures.append(f"{label} draw {draw}: psi failed ({exc})")
                continue
            sigma_l = OneCochain.from_rows(
                _symmetric([[random_rational(rng) for _ in range(4)] for _ in range(4)])
            )
            try:
                omega_adj = adjusted_symplectic_form(base_triple, sigma, sigma_l)
            except (ValueError, IntegrityError) as exc:
                failures.append(f"{label} draw {draw}: adjusted form failed ({exc})")
                continue
            omega_checks += 1
            if not omega_adj.is_invertible():
                failures.append(f"{label} draw {draw}: adjusted form degenerate")
            if any(
                omega_adj[i, j] != -omega_adj[j, i] for i in range(8) for j in range(8)
            ):
                failures.append(f"{label} draw {draw}: adjusted form not antisymmetric")
            alpha_bar = base_triple.cocycle - coboundary_1(rep, sigma)
            shifted_ext = build_extension(ExtensionTriple(conn, alpha_bar))
            if not d_omega(shifted_ext, omega_adj).is_zero():
                failures.append(f"{label} draw {draw}: adjusted form not closed")
    if omega_checks < 20:
        failures.append(f"only {omega_checks} sigma draws exercised")
    _finish(6, "equivalence maps", started, 10.0, failures)


def test_criterion_7_canonical_connection():
    started = time.time()
    failures = []
    for entry in table1_entries():
        if entry.suspect:
            continue
        try:
            conn = _first_sample_connection(entry)
            ext = build_extension(ExtensionTriple.with_zero_cocycle(conn))
            # flat + torsion-free is verified inside; failure raises
            canonical_connection(ext)
        except (ValueError, IntegrityError) as exc:
            failures.append(f"{entry.label}: {exc}")
    _finish(7, "canonical connection", started, 10.0, failures)


def test_criterion_8_filiform_sanity():
    started = time.time()
    failures = []
    fps = {code: fingerprint(base_algebra(code)) for code in ("a", "l", "t")}
    if fps["a"].nilpotency_class != 1:
        failures.append(f"abelian class {fps['a'].nilpotency_class} != 1")
    if fps["l"].nilpotency_class != 2:
        failures.append(f"heisenberg+R class {fps['l'].nilpotency_class} != 2")
    if fps["t"].nilpotency_class != 3:
        failures.append(f"filiform base class {fps['t'].nilpotency_class} != 3")
    filiform = [code for code in fps if fps[code].is_filiform]
    if filiform != ["t"]:
        failures.append(f"filiform set {filiform} != ['t']")
    if len(set(fps.values())) != 3:
        failures.append("fingerprints do not distinguish the three base algebras")
    _finish(8, "filiform sanity", started, 1.0, failures)


def test_criterion_9_determinism():
    started = time.time()
    failures = []
    runner = CliRunner()
    args = ["verify-catalog", "--format", "tsv"]
    first = runner.invoke(cli_main, args)
    second = runner.invoke(cli_main, args)
    if first.output != second.output:
        failures.append("two identical runs produced different bytes")
    if first.exit_code != second.exit_code:
        failures.append("exit codes differ between identical runs")
    if not first.output.startswith("entry\tcheck\tsample\tstatus\twitness"):
        failures.append("tsv header missing")
    _finish(9, "determinism", started, None, failures)
