"""Acceptance gate: one test per shipped guarantee, one line each.

Each test prints PASS/FAIL with its measured evidence, then asserts.
Time and memory budgets are asserted where a guarantee carries one.
"""
import resource
import time

import pytest

from dyckmotz import (
    FIXED_POINT_PATTERNS,
    PATTERNS,
    PathProfile,
    SequenceRef,
    check_bijectivity,
    compare_sequence,
    distribution_brute_force,
    distribution_gf_closed,
    distribution_gf_fixed_point,
    enumerate_constrained,
    enumerate_dyck,
    enumerate_motzkin,
    evaluate_statistic,
    motzkin_number,
    parse_statistic,
    phi,
    popularity_gf,
    run_full_verification,
    transport_rules,
)
from dyckmotz.verifier import load_golden_tables

MAX_N = 12


def _line(tag, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}  {tag}: {detail}")
    assert ok, f"{tag}: {detail}"


@pytest.fixture(scope="module")
def pairs():
    return {n: [(PathProfile(p), PathProfile(phi(p)))
                for p in enumerate_constrained(n)]
            for n in range(MAX_N + 1)}


@pytest.fixture(scope="module")
def series12():
    out = {}
    for pattern in PATTERNS:
        routes = {"closed": distribution_gf_closed(pattern, MAX_N),
                  "brute": distribution_brute_force(pattern, MAX_N)}
        if pattern in FIXED_POINT_PATTERNS:
            routes["fixed"] = distribution_gf_fixed_point(pattern, MAX_N)
        out[pattern] = routes
    return out


@pytest.fixture(scope="module")
def full_report():
    t0 = time.monotonic()
    report = run_full_verification(max_n=MAX_N)
    return report, time.monotonic() - t0


def test_c01_cardinality_matches_motzkin_numbers_within_5s():
    t0 = time.monotonic()
    counts = [sum(1 for _ in enumerate_constrained(n)) for n in range(1, 12)]
    elapsed = time.monotonic() - t0
    wanted = [motzkin_number(n) for n in range(1, 12)]
    _line("C1", counts == wanted and elapsed < 5.0,
          f"family sizes n=1..11 in {elapsed:.2f}s (budget 5s)")


def test_c02_bijectivity_exhaustive_to_12_within_10s():
    t0 = time.monotonic()
    reports = [check_bijectivity(n) for n in range(MAX_N + 1)]
    elapsed = time.monotonic() - t0
    ok = all(r["ok"] for r in reports) and elapsed < 10.0
    _line("C2", ok,
          f"injective, surjective, round-trip for n=0..12 in {elapsed:.2f}s "
          f"(budget 10s)")


def test_c03_golden_images():
    golden = {
        "UDUDUD": "FFF",
        "UUDDUD": "UDF",
        "UUDUDD": "FUD",
        "UUUDDD": "UFD",
        "UUUUDDDDUUUDDUDD": "UUDDFUFD",
    }
    bad = {p: (str(phi(p)), m) for p, m in golden.items() if str(phi(p)) != m}
    _line("C3", not bad, f"five reference images ({bad or 'all exact'})")


def test_c04_all_transport_rules_to_12(pairs):
    failures = []
    for rule in transport_rules():
        for n in range(rule.min_n, MAX_N + 1):
            for dyck_prof, motz_prof in pairs[n]:
                lhs = evaluate_statistic(dyck_prof.path, rule.dyck_side,
                                         dyck_prof)
                rhs = evaluate_statistic(motz_prof.path, rule.motzkin_side,
                                         motz_prof)
                if lhs != rhs:
                    failures.append((rule.name, dyck_prof.text))
                    break
    _line("C4", not failures,
          f"15 rules exhaustively to n=12 ({failures or 'no counterexample'})")


def test_c05_distribution_tables(series12):
    golden = load_golden_tables()
    spot = {
        ("UD", 7, 4): 44, ("UUU", 9, 3): 215, ("UUD", 9, 2): 432,
        ("DUU", 9, 1): 432, ("DUD", 9, 2): 199, ("UDU", 9, 2): 200,
        ("UDD", 9, 3): 417, ("DDU", 9, 2): 444, ("DDD", 9, 1): 251,
    }
    bad = []
    checked = 0
    for table in golden.tables.values():
        for n, k, value in table.cells:
            if n > MAX_N:
                continue
            for route, series in series12[table.pattern].items():
                checked += 1
                if series.coefficient(n, k) != value:
                    bad.append((table.pattern, n, k, route))
    for (pattern, n, k), value in spot.items():
        if series12[pattern]["closed"].coefficient(n, k) != value:
            bad.append(("spot", pattern, n, k))
    for label, n, value in golden.sums:
        if n <= MAX_N and sum(series12["UD"]["brute"].y_poly(n)) != value:
            bad.append(("sum", n))
    _line("C5", not bad,
          f"{checked} table cell checks across all routes "
          f"({bad[:3] or 'all agree'})")


def test_c06_popularity_rows_and_closed_forms():
    golden = load_golden_tables()
    pop = {p: popularity_gf(p, MAX_N) for p in PATTERNS}
    bad = []
    for cell in golden.popularity:
        for pattern in cell.patterns:
            computed = pop[pattern].coefficient(cell.n)
            if cell.misprint_computed is not None:
                if computed != cell.misprint_computed:
                    bad.append((pattern, cell.n, "annotation broken"))
                if computed == cell.printed:
                    bad.append((pattern, cell.n, "stale annotation"))
            elif computed != cell.printed:
                bad.append((pattern, cell.n, computed, cell.printed))
    try:
        # the length-2 closed popularity formulas are proven against the
        # derivative route inside popularity_gf; it raises on disagreement
        for pattern in ("UD", "UU", "DD", "DU"):
            popularity_gf(pattern, 24)
    except ValueError as exc:
        bad.append(("closed-form", str(exc)))
    _line("C6", not bad,
          f"12 rows x 12 terms + closed forms to x^24 ({bad or 'all agree'})")


def test_c07_three_way_agreement(series12):
    disagreements = [
        (pattern, a, b)
        for pattern, routes in series12.items()
        for a in routes for b in routes
        if a < b and routes[a] != routes[b]
    ]
    _line("C7", not disagreements,
          f"closed/fixed/brute agree to n=12 for all 12 patterns "
          f"({disagreements or 'exact'})")


def test_c08_identity_suite():
    dyck_ids = [
        ("UU", "UUU + UUD", 0), ("UU", "UUU + DUU + ^UU", 0),
        ("UD", "UUD + DUD + ^UD", 0), ("DU", "DUU + DUD", 0),
        ("DD", "DDD + UDD", 0), ("DD", "DDD + DDU + DD$", 0),
        ("UD", "UDD + UDU + UD$", 0), ("DU", "DDU + UDU", 0),
        ("UU + UD", "n", 0), ("UU", "DD", 0), ("DU", "UD - 1", 1),
    ]
    motz_ids = [("U", "D"), ("U + F + D", "n"), ("UF", "UF+D + UF+U"),
                ("F", "F$ + FF + FD + FUU + FUD + FUF")]
    bad = []
    for n in range(9):
        for p in enumerate_dyck(n):
            prof = PathProfile(p)
            for lhs, rhs, min_n in dyck_ids:
                if n < min_n:
                    continue
                if (evaluate_statistic(p, parse_statistic(lhs, "dyck"), prof)
                        != evaluate_statistic(p, parse_statistic(rhs, "dyck"),
                                              prof)):
                    bad.append((lhs, rhs, str(p)))
    for n in range(9):
        for p in enumerate_motzkin(n):
            prof = PathProfile(p)
            for lhs, rhs in motz_ids:
                if (evaluate_statistic(p, parse_statistic(lhs, "motzkin"), prof)
                        != evaluate_statistic(p, parse_statistic(rhs, "motzkin"),
                                              prof)):
                    bad.append((lhs, rhs, str(p)))
    _line("C8", not bad,
          f"15 step-statistic identities on all paths to n=8 "
          f"({bad[:3] or 'all hold'})")


def test_c09_popularity_identities():
    ud = popularity_gf("UD", MAX_N + 1)
    udu = popularity_gf("UDU", MAX_N + 1)
    du = popularity_gf("DU", MAX_N + 1)
    uu = popularity_gf("UU", MAX_N + 1)
    bad = []
    for n in range(1, MAX_N + 1):
        if udu.coefficient(n + 1) != ud.coefficient(n):
            bad.append(("shift", n))
        if du.coefficient(n) != ud.coefficient(n) - motzkin_number(n):
            bad.append(("du", n))
        if uu.coefficient(n) + ud.coefficient(n) != n * motzkin_number(n):
            bad.append(("total", n))
    _line("C9", not bad,
          f"shift, difference, and total identities to n=12 "
          f"({bad or 'all hold'})")


def test_c10_conjectures_reported_not_fatal(full_report, tmp_path):
    report, _ = full_report
    statuses = [c["status"] for c in report["checks"]]
    consistent = statuses.count("conjecture-consistent")
    info = [c for c in report["checks"] if c["status"] == "info"]
    duu_noted = any("DUU" in c["check"] and "powers of two" in c["details"]
                    for c in info)
    # a deliberately wrong conjectured reference must downgrade, not fail
    seed = tmp_path / "seed.txt"
    seed.write_text("seq A000045 conjectured pop:UD 1 9,9,9,9,9,9\n")
    crooked = run_full_verification(max_n=4, seed_tables=str(seed))
    downgraded = (crooked["ok"]
                  and any(c["status"] == "conjecture-broken"
                          for c in crooked["checks"]))
    bad_ref = SequenceRef("A000045", "conjectured", "pop:UD", 1, (9, 9, 9))
    verdict = compare_sequence([1, 3, 8], bad_ref)["verdict"]
    _line("C10", consistent == 2 and duu_noted and downgraded
          and verdict == "CONJECTURE-BROKEN",
          f"{consistent} conjecture-consistent refs, avoider note present, "
          f"broken conjecture downgrades to {verdict}")


def test_c11_full_verification_within_budget(full_report):
    report, elapsed = full_report
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ok = report["ok"] and elapsed < 60.0 and peak_kb < 1024 * 1024
    failures = [c["check"] for c in report["checks"] if c["status"] == "fail"]
    _line("C11", ok,
          f"campaign at n=12: {'ok' if report['ok'] else failures} "
          f"in {elapsed:.2f}s (budget 60s), peak {peak_kb / 1024:.0f}MB "
          f"(budget 1024MB)")
