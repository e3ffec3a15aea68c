"""The series-route, rule and identity slice of the campaign's mutation
matrix: each mutant is a monkeypatch of one printed form, one shared
radical, one fixed-point system, the fixed-point solver, the Motzkin
numbers the routes, the bijectivity report or the cardinality check read,
one transport rule, _phi's images, the family walker, one identity, the
campaign sweep's pattern counts, the brute-force columns, the derivative
popularity route, the three-way comparison or the printed popularity
route's coverage, with the exact set of records of run_full_verification(8)
whose status it turns; and a test that some row turns a record of each kind.
Every mutant of a form, a radical, a system or the solver runs on a cold
memo of printed forms and roots and again right after an unmutated
campaign has filled it; a memo that served a replaced form's old series,
or a replaced radical's old root, would turn fewer records on the warm
run. The rule, image, walker, family M_n and identity mutants read no
printed form, and the count, column, popularity and comparison mutants
replace none, so these run once."""
import itertools
import json
import os
import pathlib

import pytest

from dyckmotz import (cli, count_occurrences, enumerate_constrained, family, genfun,
                      parse_pattern, patterns, run_full_verification, series, verifier)

MAX_N = 8


def _closed(**forms):
    def mutate(monkeypatch):
        for pattern, form in forms.items():
            monkeypatch.setitem(genfun._CLOSED_FORMS, pattern, form)
    return mutate


def _ud_radical_of_3(x, y):
    # UD's printed form with 2 added under its root: the ring refuses a square
    # root whose constant term is 3, so UD's closed route fails its own check
    rad = 2 - 4*x**2 + (x**2*(y - 1) + x*y - 1)**2
    return (x**2 - x**2*y - x*y + 1 - rad.sqrt_unit()) / (2*x**2)


def _uud_radical_2x_for_4x(monkeypatch):
    # the radical UUD and DUU share, with 2*x for 4*x: its constant term stays 1,
    # so the ring takes its root. Both forms go into _CLOSED_FORMS anew, as an
    # edited form would, so that the printed memo evaluates them afresh and the
    # root memo is asked for the new radical's root
    monkeypatch.setattr(genfun, "_rad_uud",
                        lambda x, y: (x**2*y - 1) * (x**2*y - 4*x**2 + 2*x - 1))
    for pattern in ("UUD", "DUU"):
        monkeypatch.setitem(genfun._CLOSED_FORMS, pattern,
                            lambda x, y, form=genfun._CLOSED_FORMS[pattern]: form(x, y))


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


def _udd_a_for_y_a(x, y, A, B):
    x2, F = x * x, 1 + A + B
    return x*F, x2*(y*F + y*A + B + (B + A)**2)


def _narrow_decode(monkeypatch):
    # each solution row built one byte wider than the width its majorant
    # proves, and so decoded one byte narrow
    solve = series._solve
    monkeypatch.setattr(series, "_solve", lambda N, w, system, count: solve(
        N, None if w is None else w + 8, system, count))


def _m7_plus_one(monkeypatch, module=genfun):
    # in genfun, every route's row check at x^7 wants one member too many
    numbers = module.motzkin_numbers
    monkeypatch.setattr(module, "motzkin_numbers",
                        lambda n: [m + (k == 7) for k, m in enumerate(numbers(n))])


def _m7_plus_one_in_verifier(monkeypatch):
    # cardinality and the golden sum row read verifier's own M_n
    _m7_plus_one(monkeypatch, verifier)


def _m7_plus_one_in_family(monkeypatch):
    # the bijectivity report wants M_7 + 1 images at n = 7
    number = family.motzkin_number
    monkeypatch.setattr(family, "motzkin_number", lambda n: number(n) + (n == 7))


def _printed_popularity_covers_nothing(monkeypatch):
    # the printed route's entry in the route table with no pattern: no
    # popularity route is compared with the derivative route
    routes = genfun._ROUTES["popularity"][1]
    monkeypatch.setitem(routes, "printed", (routes["printed"][0], ()))


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
    # a form the series ring refuses fails UD's closed route: each record that
    # reads it fails; golden:dist:UD and the sum row still read the brute series
    ("closed UD with a radical of constant term 3", _closed(UD=_ud_radical_of_3),
     {"three-way:UD", "three-way:DU-from-UD", "golden:pop:pop2:UD", "popularity-closed-forms",
      "oeis:A025566:pop:UD", "oeis:A034851:row:UD:2", "oeis:A005994:row:UD:3",
      "oeis:A005900:diag:UD:3"}),
    # the two closed routes fail their own checks; golden:dist: reads brute force
    ("UUD and DUU's shared radical with 2*x for 4*x", _uud_radical_2x_for_4x,
     {"three-way:UUD", "three-way:DUU", "golden:pop:pop3a:UUD", "golden:pop:pop3a:DUU",
      "info:DUU-avoider-shape", "oeis:A097861:pop:UUD", "oeis:A001793:row:UUD:2",
      "oeis:A304011:pop:DUU"}),  # conjecture-consistent to info
    ("printed DU popularity plus 1", _printed_du_plus_one,
     {"popularity-closed-forms"}),
    ("UU's system with y for y**2", _systems(UU=_uu_y_for_y2), {"three-way:UU"}),
    ("DDD's system with x2*y*A*B for 2*x2*y*A*B", _systems(DDD=_ddd_one_ab),
     {"three-way:DDD"}),
    # a factored form's square: the transcribed cell x^4 y^0 reads 2, not 1
    ("UDD's system with (B + A)**2 for (B + y*A)**2", _systems(UDD=_udd_a_for_y_a),
     {"three-way:UDD", "golden:dist:UDD"}),
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


def _uduudd_after_the_second_member_of_3(monkeypatch):
    # the walker yields UDUUDD, outside the family, after the second member
    # of n = 3: _phi refuses it, so it makes no pair, and the pass lists it
    members = family._members

    def walk(n, claim=None):
        outputs = members(n, claim)  # n = 3 is never shared, so claim is None there
        if n == 3:
            return itertools.chain(itertools.islice(outputs, 2), ["UDUUDD"], outputs)
        return outputs
    monkeypatch.setattr(family, "_members", walk)


def _mirrored_images(monkeypatch):
    # each image read right to left with U and D swapped, still a Motzkin
    # word of the same length
    phi, mirror = family._phi, str.maketrans("UD", "DU")
    monkeypatch.setattr(family, "_phi", lambda p: phi(p)[::-1].translate(mirror))


def _dyck_identity(old, new):
    def mutate(monkeypatch):
        monkeypatch.setattr(verifier, "DYCK_IDENTITIES", tuple(
            new if identity == old else identity for identity in verifier.DYCK_IDENTITIES))
    return mutate


def _duu_read_as_0(monkeypatch, peaks=0):
    # for each member with at least peaks UD: one with two or more UUD then
    # looks like a DUU-avoider

    class Sweep(family.TransportSweep):
        def __init__(self, rules, dyck_patterns=()):
            super().__init__(rules, dyck_patterns)
            if dyck_patterns:  # the campaign's sweep, not an identity system's
                values, duu, ud = self.dyck_values, *map(self.dyck_keys.index, ("DUU", "UD"))

                def zeroed(raw):
                    counts = values(raw)
                    return tuple(0 if i == duu and counts[ud] >= peaks else c
                                 for i, c in enumerate(counts))
                self.dyck_values = zeroed
    monkeypatch.setattr(verifier, "TransportSweep", Sweep)


def _uuu_and_uud_columns_swapped(monkeypatch):
    # the brute-force rows the campaign reads, with UUU's column and UUD's swapped
    row_of = verifier._distribution_row

    def swapped(*args):
        row = row_of(*args)
        row["UUU"], row["UUD"] = row["UUD"], row["UUU"]
        return row
    monkeypatch.setattr(verifier, "_distribution_row", swapped)


def _popularity_doubled(monkeypatch):
    # the derivative route in both modules that take it
    popularity = genfun._popularity
    for module in (genfun, verifier):
        monkeypatch.setattr(module, "_popularity", lambda series: 2 * popularity(series))


def _brute_against_itself(monkeypatch):
    # cross_check with 'if name != reference' turned to '==': each record
    # compares the brute series with itself and with nothing else
    cross_check = genfun.cross_check

    def mutated(quantity, pattern, N, **builds):
        routes, _, errors = cross_check(quantity, pattern, N, **builds)
        return routes, {name: s == routes.get("brute") for name, s in routes.items()
                        if name == "brute"}, errors
    monkeypatch.setattr(verifier, "cross_check", mutated)


# each turned record with its new status; a record is named by its
# identity's text, so a changed identity's record leaves (None) under its old
# name and comes back under its new one
MEMO_FREE_MUTANTS = [
    ("rule UDU to FF", _rule("UDU", "FF"), {"transport:UDU": "fail"}),
    ("rule DDD plus 1", _rule("DDD", "2*UU + 2*UF - FD - FUU - FUF + 1"),
     {"transport:DDD": "fail"}),
    # first wrong on (UD)^5, whose image FFFFF holds the one FFFFF of n <= 5:
    # found inside a share when the pass forks
    ("rule UD plus FFFFF", _rule("UD", "F + UD + FFFFF"), {"transport:UD": "fail"}),
    ("_phi's image reversed and mirrored", _mirrored_images,
     dict.fromkeys(("bijectivity", *(f"transport:{r}" for r in ("UDU", "UDD", "DDU", "DDD"))),
                   "fail")),
    ("the walker yields UDUUDD after the second member of n = 3",
     _uduudd_after_the_second_member_of_3, {"cardinality": "fail", "bijectivity": "fail"}),
    ("M_7 one too many in the motzkin_number that family reads", _m7_plus_one_in_family,
     {"bijectivity": "fail"}),
    ("M_7 one too many in verifier's motzkin_numbers", _m7_plus_one_in_verifier,
     {"cardinality": "fail", "golden:sum-row": "fail"}),
    ("identity DU = DDU + UDU to DDU + UDD",
     _dyck_identity(("DU", "DDU + UDU", 0), ("DU", "DDU + UDD", 0)),
     {"identity:dyck:DU = DDU + UDU": None, "identity:dyck:DU = DDU + UDD": "fail"}),
    # the brute DUU row is all zeros; the structural record names its first
    # member with two UUD (test_the_structural_witness_is_the_first_pair_that_breaks_it)
    ("the campaign's sweep reads the DUU column as 0", _duu_read_as_0,
     dict.fromkeys(("three-way:DUU", "golden:dist:DUU",
                    "structural:DUU-avoiders-have-at-most-one-UUD"), "fail")),
    # the one row that reaches a column: record
    ("brute-force columns of UUU and UUD swapped", _uuu_and_uud_columns_swapped,
     dict.fromkeys(("three-way:UUU", "three-way:UUD", "golden:dist:UUU", "golden:dist:UUD",
                    "column:UUD-exactly-twice"), "fail")),
    ("popularity doubled in genfun and verifier", _popularity_doubled,
     {**dict.fromkeys((*(f"golden:pop:{key}" for key in (
         "pop2:UD", "pop2:DU", "pop2:UU", "pop2:DD", "pop3a:UUU", "pop3a:UUD", "pop3a:DUU",
         "pop3a:DUD", "pop3b:DDD", "pop3b:DDU", "pop3b:UDD", "pop3b:UDU")),
         "popularity-closed-forms", "oeis:A025566:pop:UD", "oeis:A025567:pop:DU",
         "oeis:A097861:pop:UUD", "oeis:A025566:pop:UDU"), "fail"),
      "oeis:A304011:pop:DUU": "conjecture-broken"}),
    # no record may pass having compared nothing
    ("cross_check compares the brute route with itself", _brute_against_itself,
     {f"three-way:{p}": "info" for p in genfun.PATTERNS}),
    ("the printed popularity route covers no pattern", _printed_popularity_covers_nothing,
     {"popularity-closed-forms": "info"}),
]


def _clear_caches():
    genfun._printed.cache_clear()
    genfun._root.cache_clear()
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


# every kind of record, by the prefix of its name
KINDS = ("cardinality", "bijectivity", "transport:", "identity:", "three-way:", "golden:dist:",
         "golden:sum-row", "golden:pop:", "popularity-closed-forms", "structural:", "column:",
         "oeis:", "info:")
# the kinds that no row reaches, each with the reason
UNREACHED = {"misprint-notice": "its only case, the popularity misprint, is at n = 11, "
                                f"so the campaign at max_n {MAX_N} makes no such record"}


def test_every_record_kind_has_a_mutant(unmutated):
    def kind(name):
        return next(k for k in (*KINDS, *UNREACHED) if name.startswith(k))
    assert {kind(name) for name in unmutated} == set(KINDS)
    turned = (name for row in MUTANTS + MEMO_FREE_MUTANTS for name in row[2])
    assert {kind(name) for name in turned} == set(KINDS)


def test_every_mutant_has_its_row_in_the_readme():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| mutant | records turned |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
    # a row's first cell is the mutant's name, with code in backticks
    names = [row.split("|")[1].strip().replace("`", "") for row in table.splitlines()]
    assert names == [row[0] for row in MUTANTS + MEMO_FREE_MUTANTS]


def _forks() -> bool:
    return hasattr(os, "fork") and len(os.sched_getaffinity(0)) > 1


@pytest.mark.skipif(not _forks(), reason="the family pass forks only with a second CPU")
@pytest.mark.parametrize("mutate, turned", [row[1:] for row in MEMO_FREE_MUTANTS[:4]],
                         ids=[row[0] for row in MEMO_FREE_MUTANTS[:4]])
def test_rule_mutant_turns_the_same_records_when_the_pass_forks(monkeypatch, unmutated,
                                                                mutate, turned):
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    monkeypatch.setattr(family, "_CHUNK", 16)  # semilengths 5 to 8 are shared
    mutate(monkeypatch)
    statuses = _statuses()
    assert forks
    assert {name: statuses.get(name) for name in statuses.keys() | unmutated.keys()
            if statuses.get(name) != unmutated.get(name)} == turned


@pytest.mark.parametrize("forked", [False, True], ids=["one process", "forked"])
@pytest.mark.parametrize("peaks", [0, 3])
def test_the_structural_witness_is_the_first_pair_that_breaks_it(monkeypatch, peaks, forked):
    # with the DUU column read as 0, the first member in walk order with two
    # UUD (and, from three peaks, the first of three at n = 5, which is shared)
    uud, ud = parse_pattern("UUD"), parse_pattern("UD")
    first = next({"n": n, "path": str(p), "UUD": c} for n in range(MAX_N + 1)
                 for p in enumerate_constrained(n)
                 if (c := count_occurrences(p, uud)) > 1 and count_occurrences(p, ud) >= peaks)
    forks = []
    if forked:
        if not _forks():
            pytest.skip("the family pass forks only with a second CPU")
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        monkeypatch.setattr(family, "_CHUNK", 16)  # semilengths 5 to 8 are shared
    _duu_read_as_0(monkeypatch, peaks)
    checks = {c["check"]: c for c in run_full_verification(MAX_N)["checks"]}
    assert checks["structural:DUU-avoiders-have-at-most-one-UUD"]["counterexample"] == first
    assert bool(forks) == forked
