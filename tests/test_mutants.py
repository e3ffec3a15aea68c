"""The series-route slice of the campaign's mutation matrix: each mutant
is a monkeypatch of one printed form or of the fixed-point solver, with the
exact set of records of run_full_verification(8) whose status it turns. Every mutant runs on a
cold memo of printed forms and again right after an unmutated campaign
has filled it; a memo that served a replaced form's old series would
turn fewer records on the warm run."""
import json

import pytest

from dyckmotz import cli, genfun, run_full_verification, series

MAX_N = 8


def _closed(**forms):
    def mutate(monkeypatch):
        for pattern, form in forms.items():
            monkeypatch.setitem(genfun._CLOSED_FORMS, pattern, form)
    return mutate


def _printed_du_plus_one(monkeypatch):
    du = genfun._pop_closed_length2["DU"]
    monkeypatch.setitem(genfun._pop_closed_length2, "DU", lambda x, r: du(x, r) + 1)


def _narrow_decode(monkeypatch):
    # each solution row read one byte narrower than the width its majorant proves
    monkeypatch.setattr(genfun, "_unpack", lambda v, w, den: series._unpack(v, w - 8, den))


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
    # a solution that misses its equations fails its record; the report goes on
    ("_fixed_point decodes one byte narrow", _narrow_decode,
     {f"three-way:{p}" for p in genfun.FIXED_POINT_PATTERNS}),
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
