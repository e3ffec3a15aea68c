import io
import json
import os
import subprocess
import sys

import pytest

from dyckmotz import PATTERNS, family, genfun, patterns, run_full_verification
from dyckmotz.cli import main
from test_mutants import _ud_radical_of_3
from test_verifier import _no_child_left


def test_enumerate_text(capsys):
    assert main(["enumerate", "--family", "constrained", "--n", "3"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["UUUDDD", "UUDUDD", "UUDDUD", "UDUDUD"]


def test_enumerate_csv(capsys):
    assert main(["enumerate", "--n", "2", "--format", "csv"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["index,path", "0,UUDD", "1,UDUD"]


def test_enumerate_json(capsys):
    assert main(["--format", "json", "enumerate", "--family", "motzkin",
                 "--n", "2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == ["UD", "FF"]


def test_map_forward_and_inverse(capsys):
    assert main(["map", "UUDUDD", "UUUDDD"]) == 0
    assert capsys.readouterr().out.splitlines() == ["FUD", "UFD"]
    assert main(["map", "--direction", "inverse", "FUD"]) == 0
    assert capsys.readouterr().out.splitlines() == ["UUDUDD"]


def test_map_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("UDUDUD\n\nUUDDUD\n"))
    assert main(["map"]) == 0
    assert capsys.readouterr().out.splitlines() == ["FFF", "UDF"]


def test_map_csv_keeps_input_column(capsys):
    assert main(["map", "--format", "csv", "UD"]) == 0
    assert capsys.readouterr().out.splitlines() == ["input,image", "UD,F"]


def test_map_long_paths(capsys):
    assert main(["map", "UD" * 1200, "U" * 1000 + "D" * 1000]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "F" * 1200, "U" * 500 + "D" * 500]
    assert main(["map", "--direction", "inverse", "F" * 1200]) == 0
    assert capsys.readouterr().out.splitlines() == ["UD" * 1200]


def test_map_rejects_bad_path(capsys):
    assert main(["map", "UDUUDD"]) == 2
    assert "dyckmotz:" in capsys.readouterr().err


def test_count(capsys):
    assert main(["count", "--pattern", "UF+D", "--path", "UFDUFFD"]) == 0
    assert capsys.readouterr().out.strip() == "2"
    assert main(["count", "--pattern", "delta", "--path", "FFFF",
                 "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 1


def test_count_rejects_bad_pattern(capsys):
    assert main(["count", "--pattern", "^UD$", "--path", "UD"]) == 2


def test_check_transport_single(capsys):
    assert main(["check-transport", "--rule", "DUD", "--max-n", "6"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("ok")
    assert "DUD" in out


def test_check_transport_all(capsys):
    assert main(["check-transport", "--all", "--max-n", "5"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "ok    U    = U + D + F  (38 paths, n=0..5)",
        "ok    D    = U + D + F  (38 paths, n=0..5)",
        "ok    UD   = F + UD  (38 paths, n=0..5)",
        "ok    UU   = U + UU + UF  (38 paths, n=0..5)",
        "ok    DU   = FF + FU + DF + DU  (38 paths, n=0..5)",
        "ok    UUD  = UF+D + UD  (38 paths, n=0..5)",
        "ok    UUU  = UF+D + 2*UF+U + 2*UU  (38 paths, n=0..5)",
        "ok    DUU  = UF+D + UD + delta - 1  (37 paths, n=1..5)",
        "ok    DUD  = F - UF+D - delta  (37 paths, n=1..5)",
        "ok    UDU  = FF + FUD  (38 paths, n=0..5)",
        "ok    UDD  = FD + UD + FUU + FUF  (38 paths, n=0..5)",
        "ok    DDU  = DF + DU + FUU + FUF  (38 paths, n=0..5)",
        "ok    DDD  = 2*UU + 2*UF - FD - FUU - FUF  (38 paths, n=0..5)",
        "ok    ^UD  = delta  (37 paths, n=1..5)",
        "ok    ^UU  = 1 - delta  (37 paths, n=1..5)",
    ]


def test_check_transport_nothing_claimed(capsys):
    # DUU is claimed only from n = 1: an empty range is bad input, not a pass
    assert main(["check-transport", "--rule", "DUU", "--max-n", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "dyckmotz: rule DUU is claimed only for n >= 1\n"
    assert main(["check-transport", "--all", "--max-n", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 15
    assert [line.split()[1] for line in lines if not line.startswith("ok ")] == [
        "DUU", "DUD", "^UD", "^UU"]
    assert lines[7] == ("skip  DUU  = UF+D + UD + delta - 1  (claimed only "
                        "for n >= 1; nothing to check up to n = 0)")


def test_check_transport_unknown_rule(capsys):
    assert main(["check-transport", "--rule", "FFF"]) == 2
    # a KeyError's message reaches the user without str()'s quotes
    assert capsys.readouterr().err.startswith(
        "dyckmotz: no transport rule named 'FFF'; known: ")


def test_gf_csv(capsys):
    assert main(["gf", "--pattern", "UD", "--max-n", "4",
                 "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,k,count"
    assert "2,2,1" in lines  # only UDUD has two UD factors at semilength 2
    assert "4,4,1" in lines  # only UDUDUDUD has four


def test_gf_all_methods_agree(capsys):
    assert main(["gf", "--pattern", "DDU", "--method", "all",
                 "--max-n", "7"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# routes agree: closed, brute, fixed")


def test_gf_all_methods_writes_bare_csv_and_json(capsys):
    argv = ["gf", "--pattern", "UD", "--method", "all", "--max-n", "3"]
    assert main(argv + ["--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert {"n": 3, "k": 3, "count": 1} in rows  # UDUDUD alone
    assert main(argv + ["--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "n,k,count"


def test_gf_all_methods_exit_1_when_routes_disagree(capsys, monkeypatch):
    # the brute route gives another pattern's series, valid on its own
    brute = genfun.distribution_brute_force
    monkeypatch.setattr(genfun, "distribution_brute_force",
                        lambda pattern, max_n: brute("UU", max_n))
    assert main(["gf", "--pattern", "UD", "--method", "all", "--max-n", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "routes disagree for UD\n" and captured.out == ""


def test_gf_fixed_unavailable(capsys):
    assert main(["gf", "--pattern", "UUD", "--method", "fixed"]) == 2
    assert "no fixed-point system" in capsys.readouterr().err


def test_gf_failed_route_check_exits_1(capsys, monkeypatch):
    # a wrong closed form is a failed check, not bad input
    monkeypatch.setitem(genfun._CLOSED_FORMS, "UD", (lambda x, y: 1 + x, None))
    assert main(["gf", "--pattern", "UD", "--method", "closed"]) == 1
    assert "row sum at x^2" in capsys.readouterr().err


def test_a_form_the_ring_refuses_fails_its_route_check(capsys, monkeypatch):
    # the ring refuses the square root of a radical whose constant term is 3:
    # UD's closed route fails its own check, and verify still reports in full
    names = [c["check"] for c in run_full_verification(max_n=6)["checks"]]
    monkeypatch.setitem(genfun._CLOSED_FORMS, "UD", (_ud_radical_of_3, None))
    assert main(["verify", "--max-n", "6", "--format", "json"]) == 1
    checks = {c["check"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert list(checks) == names
    cause = "UD/closed: square root requires constant term exactly 1"
    assert [checks["three-way:UD"][key] for key in ("status", "details")] == ["fail", cause]
    assert checks["golden:pop:pop2:UD"]["details"] == f"no closed series for UD: {cause}"
    assert main(["gf", "--pattern", "UD", "--max-n", "6"]) == 1
    assert capsys.readouterr().err == f"dyckmotz: {cause}\n"


def test_gf_announces_a_long_brute_force_walk(capsys, monkeypatch):
    # sum M_n over n <= 18 is 10,237,540, the first sum past 10^7; the walk
    # is replaced by the closed form, so only the announcement is timed
    monkeypatch.setattr(genfun, "distribution_brute_force", genfun.distribution_gf_closed)
    for method, max_n, err in (
            ("brute", 18, "dyckmotz: the brute-force route walks 10237540 family members "
                          "(n = 0..18)\n"),
            ("all", 18, "dyckmotz: the brute-force route walks 10237540 family members "
                        "(n = 0..18)\n"),
            ("brute", 17, ""), ("all", 17, ""), ("closed", 18, ""), ("fixed", 18, "")):
        assert main(["gf", "--pattern", "UU", "--method", method, "--max-n", str(max_n)]) == 0
        assert capsys.readouterr().err == err, (method, max_n)


def test_popularity_formats(capsys):
    assert main(["popularity", "--pattern", "UD", "--max-n", "5"]) == 0
    assert capsys.readouterr().out.strip() == "1, 3, 8, 22, 61"
    assert main(["popularity", "--pattern", "UD", "--max-n", "3",
                 "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines() == ["n,value", "1,1", "2,3", "3,8"]


def test_verify_text(capsys):
    assert main(["verify", "--max-n", "4"]) == 0
    out = capsys.readouterr().out
    assert "RESULT: OK" in out


def test_verify_json(capsys):
    assert main(["verify", "--max-n", "4", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] and report["max_n"] == 4


def test_verify_smallest_campaign(capsys):
    assert main(["verify", "--max-n", "0"]) == 0
    assert "RESULT: OK" in capsys.readouterr().out


def test_negative_max_n_exits_2(capsys):
    for argv in (["verify"], ["gf", "--pattern", "UD"],
                 ["popularity", "--pattern", "UD"], ["check-transport", "--all"]):
        assert main(argv + ["--max-n", "-1"]) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "dyckmotz: --max-n must be nonnegative, not -1\n"


def test_verify_failure_exit_code(tmp_path, capsys):
    seed = tmp_path / "seed.txt"
    seed.write_text("dist dist:UD UD 3 0 999\n")
    assert main(["verify", "--max-n", "4", "--seed-tables", str(seed)]) == 1
    assert "RESULT: FAILED" in capsys.readouterr().out


@pytest.fixture
def faulty_walker(monkeypatch):
    # a non-member from the walker is a defect in the program, not bad input
    real = family._members

    def walk_with_extra(n, *share):
        yield from real(n, *share)
        if n == 3:
            yield "UDUUDD"

    monkeypatch.setattr(family, "_members", walk_with_extra)


def test_verify_reports_a_walker_defect_as_a_failed_check(capsys, faulty_walker):
    assert main(["verify", "--max-n", "4", "--format", "json"]) == 1
    checks = {c["check"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks["bijectivity"]["status"] == "fail"
    assert checks["bijectivity"]["counterexample"] == {
        "n": 3, "error": "not in the constrained family: 'UDUUDD'"}


@pytest.fixture
def walker_defect_mid_semilength(monkeypatch):
    # the non-member comes second at n = 3, before three real members
    real = family._members

    def walk_with_extra(n, *share):
        members = real(n, *share)
        if n == 3:
            yield next(members)
            yield "UDUUDD"
        yield from members

    monkeypatch.setattr(family, "_members", walk_with_extra)


def test_verify_reports_a_walker_defect_mid_semilength(capsys, walker_defect_mid_semilength):
    # the pass skips the non-member and walks on: the report is complete
    assert main(["verify", "--max-n", "4", "--format", "json"]) == 1
    checks = {c["check"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks["bijectivity"]["status"] == "fail"
    assert checks["bijectivity"]["counterexample"] == {
        "n": 3, "error": "not in the constrained family: 'UDUUDD'"}
    assert checks["cardinality"]["counterexample"] == {
        "computed": [1, 1, 2, 5, 9], "expected": [1, 1, 2, 4, 9]}
    assert {name for name, c in checks.items() if c["status"] == "fail"} == {
        "cardinality", "bijectivity"}


@pytest.fixture
def walker_with_a_dip(monkeypatch):
    # DUUD, a word with a dip below the axis, comes second at n = 2
    real = family._members

    def walk_with_dip(n, *share):
        members = real(n, *share)
        if n == 2:
            yield next(members)
            yield "DUUD"
        yield from members

    monkeypatch.setattr(family, "_members", walk_with_dip)


def test_verify_reports_a_walker_dip_as_a_failed_check(capsys, walker_with_a_dip):
    # the dip is refused with phi's own error, not a crash in the pass
    assert main(["verify", "--max-n", "4", "--format", "json"]) == 1
    checks = {c["check"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks["bijectivity"]["counterexample"] == {
        "n": 2, "error": "not a Dyck path: first violation at position 0 in 'DUUD'"}
    assert checks["cardinality"]["counterexample"] == {
        "computed": [1, 1, 3, 4, 9], "expected": [1, 1, 2, 4, 9]}
    assert {name for name, c in checks.items() if c["status"] == "fail"} == {
        "cardinality", "bijectivity"}


@pytest.fixture
def shared_pass(monkeypatch):
    # semilengths 5 to 8 are shared, so with a second CPU a pass to n = 8
    # forks before it begins; a command that leaves it early must reap them
    monkeypatch.setattr(family, "_CHUNK", 16)


def test_check_transport_reports_a_walker_dip_as_a_failed_check(capsys, walker_with_a_dip,
                                                                 shared_pass):
    assert main(["check-transport", "--all", "--max-n", "8"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "FAIL  family at n=2: not a Dyck path: first violation at position 0 in 'DUUD'"]
    _no_child_left()


def test_verify_times_each_patterns_routes(capsys):
    assert main(["verify", "--max-n", "5", "--format", "json"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    timed = [c for c in checks if "elapsed_seconds" in c]
    assert [c["check"] for c in timed] == [f"three-way:{p}" for p in PATTERNS] + [
        "three-way:DU-from-UD", "popularity-closed-forms"]
    for c in timed:  # the printed popularity forms are checked through x^24
        assert c["truncation"] == (24 if c is timed[-1] else 5), c["check"]
        assert c["elapsed_seconds"] >= 0, c["check"]
    assert all("truncation" not in c for c in checks if c not in timed)


@pytest.fixture
def walker_dropping_a_member(monkeypatch):
    # the second member of n = 3 is never yielded
    real = family._members

    def walk_without(n, *share):
        members = real(n, *share)
        if n == 3:
            yield next(members)
            next(members)
        yield from members

    monkeypatch.setattr(family, "_members", walk_without)


def test_verify_reports_a_walker_that_drops_a_member(capsys, walker_dropping_a_member):
    # the short brute-force rows fail each three-way record; the report is complete
    assert main(["verify", "--max-n", "4", "--format", "json"]) == 1
    checks = {c["check"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    three_way = {f"three-way:{p}" for p in PATTERNS}
    assert {name for name, c in checks.items() if c["status"] == "fail"} == {
        "cardinality", "bijectivity", *three_way}
    for name in three_way:
        pattern = name.split(":")[1]
        assert checks[name]["details"] == f"{pattern}/brute: row sum at x^3 is 3, want M_3 = 4"
        assert checks[name]["truncation"] == 4  # a failed record is timed too
    assert checks["cardinality"]["counterexample"] == {
        "computed": [1, 1, 2, 3, 9], "expected": [1, 1, 2, 4, 9]}
    # the golden records compare the routes that exist: closed, and fixed for UDU
    assert checks["golden:dist:UDU"]["details"].endswith("against 2 routes")
    assert checks["golden:sum-row"]["status"] == "pass"


def test_check_transport_reports_a_walker_defect_as_a_failed_check(capsys, faulty_walker,
                                                                   shared_pass):
    assert main(["check-transport", "--all", "--max-n", "8"]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "FAIL  family at n=3: not in the constrained family: 'UDUUDD'"]
    assert captured.err == ""
    _no_child_left()


def test_check_transport_reports_a_wrong_rule(capsys, monkeypatch, shared_pass):
    # every rule has failed at n = 3, so the pass is left there
    monkeypatch.setattr("dyckmotz.cli.transport_rules",
                        lambda: [patterns._rule("UDU", "FF")])
    assert main(["check-transport", "--all", "--max-n", "8"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "FAIL  UDU  at UUDUDD -> FUD: 1 != 0"]
    _no_child_left()


def test_popularity_json(capsys):
    assert main(["popularity", "--pattern", "UD", "--max-n", "3",
                 "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == [
        {"n": 1, "value": 1}, {"n": 2, "value": 3}, {"n": 3, "value": 8}]


@pytest.mark.parametrize("argv, message", [
    (["check-transport", "--all", "--format", "json"],
     "check-transport writes --format text, not json"),
    (["--format", "csv", "check-transport", "--rule", "UD"],
     "check-transport writes --format text, not csv"),
    (["verify", "--format", "csv"], "verify writes --format text or json, not csv"),
    (["--format", "csv", "verify"], "verify writes --format text or json, not csv"),
    (["count", "--pattern", "UD", "--path", "UDUD", "--format", "csv"],
     "count writes --format text or json, not csv"),
])
def test_unwritable_format_exits_2(argv, message, capsys):
    assert main(argv + ["--max-n", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"dyckmotz: {message}\n"


@pytest.mark.parametrize("record, reason", [
    ("seq A000001 stated pop:UD 1", "a seq record has 6 fields, not 5"),
    ("seq A000001 maybe pop:UD 1 1,3", "status 'maybe' is not stated or conjectured"),
    ("seq A000001 stated pop:UD 1 1,,3", "invalid literal"),
    ("dist dist:UD UD 2", "a dist record has 6 fields, not 4"),
    ("dist dist:UD QQ 2 1 1", "unknown pattern 'QQ'"),
    ("pop pop2 UD x 3", "invalid literal"),
    ("pop pop2 UD,QQ 3 8", "unknown pattern 'QQ'"),
    ("pop pop2 UD 3 8 misprint:x", "invalid literal"),
    ("pop pop2 UD 3 5 mispint:6", "tag 'mispint:6' is not misprint:<computed>"),
    ("pop pop2 UD 3 5 misprint:6 misprint:7",
     "a pop record has 5 fields and at most one tag, not 7"),
    ("sum dist:UD 2 2 9", "a sum record has 4 fields, not 5"),
    ("seq A000001 stated pop:XX 1 1,3", "unknown pattern 'XX'"),
    ("seq A000001 stated avoid:UD,DU 1 1,3", "unknown pattern 'UD,DU'"),
    ("seq A000001 stated row:UD:x 1 1,3", "sequence target 'row:UD:x' is not"),
    ("seq A000001 stated diag:UD 1 1,3", "sequence target 'diag:UD' is not"),
    ("seq A000001 stated foo:UD 1 1,3", "sequence target 'foo:UD' is not"),
    ("seq A000001 stated UD 1 1,3", "sequence target 'UD' is not"),
])
def test_verify_rejects_a_malformed_seed_record(tmp_path, capsys, record, reason):
    seed = tmp_path / "seed.txt"
    seed.write_text(f"# one good record, then a bad one\ndist dist:UD UD 1 1 1\n{record}\n")
    assert main(["verify", "--max-n", "2", "--seed-tables", str(seed)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("dyckmotz: golden record on line 3: ")
    assert reason in captured.err and record in captured.err


def test_verify_unreadable_seed_tables_exits_2(tmp_path, capsys):
    # a file that cannot be read is bad input, not a failed check
    for seed in (tmp_path / "missing.txt", tmp_path):
        assert main(["verify", "--max-n", "2", "--seed-tables", str(seed)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("dyckmotz: ")
        assert captured.err.count("\n") == 1


def test_oeis_fetch_offline_embedded(capsys):
    assert main(["oeis-fetch", "A004148", "--offline"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "1 1"
    assert lines[4] == "5 8"
    # A025566 is listed for pop:UD and, shifted, for pop:UDU: the first row wins
    assert main(["oeis-fetch", "A025566", "--offline"]) == 0
    assert capsys.readouterr().out.splitlines()[:3] == ["1 1", "2 3", "3 8"]


def test_oeis_fetch_offline_miss(capsys):
    assert main(["oeis-fetch", "A000001", "--offline"]) == 1
    assert "no cached b-file" in capsys.readouterr().err


def test_oeis_fetch_refuses_an_id_with_a_trailing_newline(capsys, tmp_path):
    # bad input, not a cache miss: exit 2 before any cache is read
    assert main(["oeis-fetch", "A000001\n", "--offline", "--oeis-cache", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "dyckmotz: bad OEIS id 'A000001\\n'; expected like A025566\n"


def test_oeis_cache_env_var(capsys, monkeypatch, tmp_path):
    cache = tmp_path / "cachedir"
    os.makedirs(cache)
    (cache / "A000001.txt").write_text("0 5\n1 6\n")
    monkeypatch.setenv("DYCKMOTZ_OEIS_CACHE", str(cache))
    assert main(["oeis-fetch", "A000001", "--offline"]) == 0
    assert capsys.readouterr().out.splitlines() == ["0 5", "1 6"]


def test_verify_reads_no_cache_under_home(capsys, monkeypatch, tmp_path):
    # a wrong b-file where oeis-fetch would look by default
    cache = tmp_path / ".cache" / "dyckmotz" / "oeis"
    os.makedirs(cache)
    (cache / "A025566.txt").write_text("".join(f"{n} 7\n" for n in range(1, 13)))
    monkeypatch.setenv("HOME", str(tmp_path))
    monkeypatch.delenv("DYCKMOTZ_OEIS_CACHE", raising=False)
    assert main(["verify", "--max-n", "6", "--format", "json"]) == 0
    records = {c["check"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert "table terms" in records["oeis:A025566:pop:UD"]["details"]
    assert main(["oeis-fetch", "A025566", "--offline"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "1 7"


def test_bad_usage_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["enumerate"])  # --n is required
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_closed_pipe_exits_141_quietly():
    # `dyckmotz enumerate ... | head -n 1`: 15,511 lines overfill the pipe
    src = os.path.dirname(os.path.dirname(genfun.__file__))
    proc = subprocess.Popen(
        [sys.executable, "-m", "dyckmotz.cli", "enumerate", "--family", "motzkin",
         "--n", "12"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src))
    assert proc.stdout.readline().strip() == b"UUUUUUDDDDDD"
    proc.stdout.close()
    assert proc.wait(timeout=60) == 141
    assert proc.stderr.read() == b""
    proc.stderr.close()
