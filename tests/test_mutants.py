"""The series-route, rule and identity slice of the campaign's mutation
matrix: each mutant is a monkeypatch of one printed form, one fixed-point
system, the fixed-point solver, the Motzkin numbers the routes check their
rows against, one transport rule or one identity, with the exact set of
records of run_full_verification(8) whose status it turns.
Every mutant of a form, a system or the solver runs on a cold memo of
printed forms and again right after an unmutated campaign has filled it; a
memo that served a replaced form's old series would turn fewer records on
the warm run. The rule and identity mutants read no printed form and run
once."""
import json
import os

import pytest

from dyckmotz import cli, genfun, patterns, run_full_verification, series, verifier

MAX_N = 8


def _closed(**forms):
    def mutate(monkeypatch):
        for pattern, form in forms.items():
            monkeypatch.setitem(genfun._CLOSED_FORMS, pattern, form)
    return mutate


def _printed_du_plus_one(monkeypatch):
    du = genfun._pop_closed_length2["DU"]
    monkeypatch.setitem(genfun._pop_closed_length2, "DU", lambda x, r: du(x, r) + 1)


def _systems(**systems):
    def mutate(monkeypatch):
        for pattern, system in systems.items():
            monkeypatch.setitem(genfun._SYSTEMS, pattern, system)
    return mutate


def _uu_y_for_y2(x, y, M):
    x2 = x * x
    return (1 + x*M + x2*y*M + x2*y*(M - 1)*M,)


def _ddd_one_ab(x, y, A, B):
    x2, y2, F = x * x, y**2, 1 + A + B
    return x*F, x2*F + x2*y2*B + x2*y*A + x2*A**2 + x2*y*A*B + x2*y2*B**2


def _narrow_decode(monkeypatch):
    # each solution row built one byte wider than the width its majorant
    # proves, and so decoded one byte narrow
    solve = series._solve
    monkeypatch.setattr(series, "_solve", lambda N, w, system, count: solve(
        N, None if w is None else w + 8, system, count))


def _m7_plus_one(monkeypatch):
    # every route's row check at x^7 wants one member too many
    numbers = genfun.motzkin_numbers
    monkeypatch.setattr(genfun, "motzkin_numbers",
                        lambda n: [m + (k == 7) for k, m in enumerate(numbers(n))])


# the records that read a closed series, or a route's row at x^7
_ROUTE_RECORDS = {
    *(f"three-way:{p}" for p in (*genfun.PATTERNS, "DU-from-UD")),
    *(f"golden:dist:{p}" for p in ("UD", "UUU", "UUD", "DUU", "DUD", "UDU", "UDD", "DDU", "DDD")),
    *(f"golden:pop:pop2:{p}" for p in ("UD", "DU", "UU", "DD")),
    *(f"golden:pop:pop3a:{p}" for p in ("UUU", "UUD", "DUU", "DUD")),
    *(f"golden:pop:pop3b:{p}" for p in ("DDD", "DDU", "UDD", "UDU")),
    "golden:sum-row", "popularity-closed-forms", "info:DUU-avoider-shape",
    "oeis:A025566:pop:UD", "oeis:A025567:pop:DU", "oeis:A097861:pop:UUD",
    "oeis:A304011:pop:DUU", "oeis:A025566:pop:UDU", "oeis:A004148:avoid:UDU",
    "oeis:A026418:avoid:DDD", "oeis:A007562:avoid:DUD", "oeis:A001793:row:UUD:2",
    "oeis:A034851:row:UD:2", "oeis:A005994:row:UD:3", "oeis:A005900:diag:UD:3",
}

MUTANTS = [
    ("closed UUD and DUU swapped", _closed(UUD=genfun._cf_duu, DUU=genfun._cf_uud),
     {"three-way:UUD", "three-way:DUU", "golden:dist:UUD", "golden:dist:DUU",
      "golden:pop:pop3a:UUD", "golden:pop:pop3a:DUU", "oeis:A097861:pop:UUD",
      "oeis:A001793:row:UUD:2",
      "oeis:A304011:pop:DUU"}),  # conjecture-consistent to conjecture-broken
    ("closed UDD and DDU swapped", _closed(UDD=genfun._cf_ddu, DDU=genfun._cf_udd),
     {"three-way:UDD", "three-way:DDU", "golden:dist:UDD", "golden:dist:DDU",
      "golden:pop:pop3b:UDD", "golden:pop:pop3b:DDU"}),
    ("closed DD replaced by DU's", _closed(DD=genfun._cf_du),
     {"three-way:DD", "golden:pop:pop2:DD", "popularity-closed-forms"}),
    ("printed DU popularity plus 1", _printed_du_plus_one,
     {"popularity-closed-forms"}),
    ("UU's system with y for y**2", _systems(UU=_uu_y_for_y2), {"three-way:UU"}),
    ("DDD's system with x2*y*A*B for 2*x2*y*A*B", _systems(DDD=_ddd_one_ab),
     {"three-way:DDD"}),
    # a solution that misses its equations fails its record; the report goes on
    ("_fixed_point decodes one byte narrow", _narrow_decode,
     {f"three-way:{p}" for p in genfun.FIXED_POINT_PATTERNS}),
    # every route fails its own check: the closed series too, so each record
    # that reads one fails and names the cause (a conjecture turns to info)
    ("M_7 one too many in genfun", _m7_plus_one, _ROUTE_RECORDS),
]


def _rule(name, motzkin_text):
    def mutate(monkeypatch):
        rules = [patterns._rule(name, motzkin_text) if r.name == name else r
                 for r in patterns.transport_rules()]
        monkeypatch.setattr(verifier, "transport_rules", lambda: rules)
    return mutate


def _dyck_identity(old, new):
    def mutate(monkeypatch):
        monkeypatch.setattr(verifier, "DYCK_IDENTITIES", tuple(
            new if identity == old else identity for identity in verifier.DYCK_IDENTITIES))
    return mutate


# each turned record with its new status; a record is named by its
# identity's text, so a changed identity's record leaves (None) under its old
# name and comes back under its new one
MEMO_FREE_MUTANTS = [
    ("rule UDU to FF", _rule("UDU", "FF"), {"transport:UDU": "fail"}),
    ("rule DDD plus 1", _rule("DDD", "2*UU + 2*UF - FD - FUU - FUF + 1"),
     {"transport:DDD": "fail"}),
    ("identity DU = DDU + UDU to DDU + UDD",
     _dyck_identity(("DU", "DDU + UDU", 0), ("DU", "DDU + UDD", 0)),
     {"identity:dyck:DU = DDU + UDU": None, "identity:dyck:DU = DDU + UDD": "fail"}),
]


def _clear_caches():
    genfun._printed.cache_clear()
    genfun._family_row.cache_clear()


def _statuses() -> dict:
    return {c["check"]: c["status"] for c in run_full_verification(MAX_N)["checks"]}


@pytest.fixture(scope="module")
def unmutated():
    _clear_caches()
    statuses = _statuses()
    assert "fail" not in statuses.values()
    return statuses


@pytest.mark.parametrize("memo", ["cold", "warm"])
@pytest.mark.parametrize("mutate, turned", [row[1:] for row in MUTANTS],
                         ids=[row[0] for row in MUTANTS])
def test_mutant_turns_exactly_its_records(monkeypatch, unmutated, mutate, turned, memo):
    _clear_caches()
    if memo == "warm":
        assert _statuses() == unmutated  # fills the memo with the true forms
    mutate(monkeypatch)
    statuses = _statuses()
    assert statuses.keys() == unmutated.keys()
    assert {name for name, status in statuses.items() if status != unmutated[name]} == turned


@pytest.mark.parametrize("mutate, turned", [row[1:] for row in MEMO_FREE_MUTANTS],
                         ids=[row[0] for row in MEMO_FREE_MUTANTS])
def test_memo_free_mutant_turns_exactly_its_records(monkeypatch, unmutated, mutate, turned):
    mutate(monkeypatch)
    statuses = _statuses()
    assert {name: statuses.get(name) for name in statuses.keys() | unmutated.keys()
            if statuses.get(name) != unmutated.get(name)} == turned


def test_a_failed_fixed_point_still_gives_the_report(monkeypatch, capsys):
    _narrow_decode(monkeypatch)
    assert cli.main(["verify", "--max-n", "8", "--format", "json"]) == 1
    checks = {c["check"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    record = checks["three-way:UDU"]
    assert record["status"] == "fail"
    assert record["details"] == "the solution misses its equations at x^8"
    assert checks["golden:dist:UDU"]["details"].endswith("against 2 routes")
    # the CLI's own fixed-point route exits 1 with the message, as a failed check
    assert cli.main(["gf", "--pattern", "UU", "--method", "fixed", "--max-n", "8"]) == 1
    assert capsys.readouterr().err == "dyckmotz: the solution misses its equations at x^8\n"


def test_a_failed_closed_form_still_gives_the_report(monkeypatch, capsys):
    _m7_plus_one(monkeypatch)
    assert cli.main(["verify", "--max-n", "8", "--format", "json"]) == 1
    checks = {c["check"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    cause = "UD/closed: row sum at x^7 is 127, want M_7 = 128"
    # a three-way record names its first failed route: closed, brute, fixed
    assert checks["three-way:UD"]["details"] == checks["three-way:DU-from-UD"]["details"] == cause
    for name in ("golden:sum-row", "golden:pop:pop2:UD", "oeis:A034851:row:UD:2"):
        assert checks[name] == {"check": name, "status": "fail",
                                "details": f"no closed series for UD: {cause}"}
    assert checks["oeis:A304011:pop:DUU"]["status"] == "info"
    assert checks["bijectivity"]["status"] == "pass"


def _forks() -> bool:
    return hasattr(os, "fork") and len(os.sched_getaffinity(0)) > 1


@pytest.mark.skipif(not _forks(), reason="the family pass forks only with a second CPU")
@pytest.mark.parametrize("mutate, turned", [row[1:] for row in MEMO_FREE_MUTANTS[:2]],
                         ids=[row[0] for row in MEMO_FREE_MUTANTS[:2]])
def test_rule_mutant_turns_the_same_records_when_the_pass_forks(monkeypatch, unmutated,
                                                                mutate, turned):
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    monkeypatch.setattr(patterns, "_CHUNK", 16)  # semilengths 5 to 8 are shared
    mutate(monkeypatch)
    statuses = _statuses()
    assert forks
    assert {name: statuses.get(name) for name in statuses.keys() | unmutated.keys()
            if statuses.get(name) != unmutated.get(name)} == turned
