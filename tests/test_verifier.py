import json
import marshal
import os
import pathlib
import subprocess
import sys
import tracemalloc
from collections import Counter
from importlib import resources
from itertools import count

import pytest

import dyckmotz
from dyckmotz import family, golden
from dyckmotz import (
    RouteCheckError,
    SequenceRef,
    TransportRule,
    check_bijectivity,
    check_transport,
    compare_sequence,
    embedded_prefixes,
    enumerate_constrained,
    load_golden_tables,
    motzkin_number,
    parse_statistic,
    render_text,
    run_full_verification,
    transport_rule,
    transport_rules,
)
from dyckmotz.family import TransportSweep


def test_load_golden_tables_shape():
    golden = load_golden_tables()
    assert len(golden.tables) == 9
    assert set(golden.tables) == {
        "dist:UD", "dist:UUU", "dist:UUD", "dist:DUU", "dist:DUD",
        "dist:UDU", "dist:UDD", "dist:DDU", "dist:DDD"}
    assert golden.tables["dist:UD"].pattern == "UD"
    assert len(golden.sums) == 11
    assert len(golden.seq_refs) == 12
    flagged = [c for c in golden.popularity if c.misprint_computed is not None]
    assert len(flagged) == 1
    assert flagged[0].patterns == ("UU", "DD")
    assert flagged[0].n == 11
    assert flagged[0].printed == 31260
    assert flagged[0].misprint_computed == 31360


def test_embedded_prefixes_cover_all_refs():
    table = embedded_prefixes()
    assert len(table) == 11  # A025566 appears under two targets
    offset, terms = table["A004148"]
    assert offset == 1
    assert terms[:5] == [1, 1, 2, 4, 8]


def test_compare_sequence_exact():
    ref = SequenceRef("A000001", "stated", "pop:UD", 1, (1, 3, 8, 22, 61, 171))
    result = compare_sequence([1, 3, 8, 22, 61, 171], ref)
    assert result["matched"] and result["verdict"] == "MATCH"
    assert result["alignment"] == 0 and result["overlap"] == 6


def test_compare_sequence_shifted():
    ref = SequenceRef("A000002", "stated", "pop:UD", 0, (1, 1, 3, 8, 22, 61))
    result = compare_sequence([1, 3, 8, 22, 61], ref)
    assert result["matched"]
    assert result["alignment"] == 1


def test_compare_sequence_mismatch_and_conjecture():
    stated = SequenceRef("A000003", "stated", "pop:UD", 1, (1, 2, 3, 4, 5, 6))
    assert compare_sequence([1, 3, 8, 22, 61, 171], stated)["verdict"] == "MISMATCH"
    conj = SequenceRef("A000004", "conjectured", "pop:UD", 1, (1, 2, 3, 4, 5, 6))
    assert (compare_sequence([1, 3, 8, 22, 61, 171], conj)["verdict"]
            == "CONJECTURE-BROKEN")
    good = SequenceRef("A000005", "conjectured", "pop:UD", 1, (1, 3, 8, 22, 61, 171))
    assert (compare_sequence([1, 3, 8, 22, 61, 171], good)["verdict"]
            == "CONJECTURE-CONSISTENT")


def test_compare_sequence_short_overlap_floor():
    ref = SequenceRef("A000006", "stated", "pop:UD", 1, tuple(range(1, 11)))
    assert compare_sequence([1, 2], ref)["matched"]
    assert not compare_sequence([2, 3, 9], ref)["matched"]


def test_full_campaign_small():
    report = run_full_verification(max_n=6)
    assert report["ok"]
    statuses = {c["status"] for c in report["checks"]}
    assert "fail" not in statuses
    assert "conjecture-consistent" in statuses
    assert "info" in statuses
    # the misprint cell sits at n=11, outside this sweep
    assert "notice" not in statuses
    names = [c["check"] for c in report["checks"]]
    assert "cardinality" in names
    assert "transport:UD" in names
    assert "three-way:DDD" in names
    assert "oeis:A004148:avoid:UDU" in names


def test_campaign_walks_each_semilength_once(monkeypatch):
    # the family pass's walker seam, and the public walker wherever it is bound
    real, seam = dyckmotz.enumerate_constrained, dyckmotz.family._members
    walked = Counter()

    def counting(walk):
        def counted(n, *share):
            walked[n] += 1
            return walk(n, *share)
        return counted

    monkeypatch.setattr(dyckmotz.family, "_members", counting(seam))
    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "dyckmotz"
                and getattr(module, "enumerate_constrained", None) is real):
            monkeypatch.setattr(module, "enumerate_constrained", counting(real))
    assert run_full_verification(max_n=6)["ok"]
    assert walked == {n: 1 for n in range(7)}


def test_campaign_holds_no_semilength_in_memory():
    tracemalloc.start()
    try:
        assert run_full_verification(max_n=9)["ok"]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # bytes; the 835 pairs of n = 9 as a list take more


def _tuples(data):
    """Every tuple inside data, through dicts, lists and tuples."""
    if isinstance(data, dict):
        data = [*data.keys(), *data.values()]
    elif not isinstance(data, (list, tuple)):
        return set()
    found = {data} if isinstance(data, tuple) else set()
    for item in data:
        found |= _tuples(item)
    return found


def test_the_family_walk_marshals_as_it_is():
    # a forked share ships walker outputs with marshal, which refuses str subclasses
    members = list(family._members(9))
    assert len(members) == motzkin_number(9)
    assert marshal.loads(marshal.dumps(members)) == members


def test_a_reduction_keeps_and_ships_one_entry_per_raw_tuple():
    # the counts of the reduction's structures, not the allocator's peak
    sweep = TransportSweep(transport_rules(), map(dyckmotz.parse_pattern, dyckmotz.PATTERNS))
    ((n, reduction),) = family.family_reductions([11], sweep)
    assert reduction.keys() == {"counts", "fails", "order", "roundtrip", "refused"}
    assert len(reduction["counts"]) == 126 and not reduction["fails"]
    images = (str(dyckmotz.phi(p)) for p in enumerate_constrained(n))
    assert not {sweep.read_motzkin(m) for m in images} & _tuples(reduction)
    # one share of a two-way split, and the whole semilength as one share,
    # marshaled as family_reductions sends them
    for claim in (count(0, 2).__next__, None):
        share = family._judge_share(12, claim, sweep)
        size = len(marshal.dumps({**share, "counts": dict(share["counts"])}))
        assert size < (64 << 10 if claim else 16 << 10)


def test_campaign_finds_a_wrong_rule_where_check_transport_does(monkeypatch):
    # UUFFUU has no compiled counter; the UUU rule's terms all have one
    wrong = [TransportRule("U", parse_statistic("U", "dyck"),
                           parse_statistic("U + D + F + UUFFUU", "motzkin")),
             TransportRule("UUU", parse_statistic("UUU", "dyck"),
                           parse_statistic("UF+D + 2*UF+U + UU", "motzkin"))]
    monkeypatch.setattr(dyckmotz.verifier, "transport_rules",
                        lambda: wrong + [transport_rule("DUU")])
    report = run_full_verification(max_n=10)
    records = {c["check"]: c for c in report["checks"]}
    assert not report["ok"] and records["transport:DUU"]["status"] == "pass"
    for rule, first_n in zip(wrong, (10, 4)):
        record = records[f"transport:{rule.name}"]
        alone = check_transport(rule, first_n)
        assert record["counterexample"] == {"n": first_n, **alone["counterexample"]}
        checked = sum(map(motzkin_number, range(first_n))) + alone["checked"]
        assert record["details"] == (f"{rule.name} -> {rule.motzkin_side.text} "
                                     f"over {checked} paths, n=0..10")


def test_campaign_transport_records_at_10_are_frozen():
    records = [(c["check"], c["status"], c["details"])
               for c in run_full_verification(max_n=10)["checks"]
               if c["check"].startswith("transport:")]
    assert records == [
        ("transport:U", "pass", "U -> U + D + F over 3562 paths, n=0..10"),
        ("transport:D", "pass", "D -> U + D + F over 3562 paths, n=0..10"),
        ("transport:UD", "pass", "UD -> F + UD over 3562 paths, n=0..10"),
        ("transport:UU", "pass", "UU -> U + UU + UF over 3562 paths, n=0..10"),
        ("transport:DU", "pass", "DU -> FF + FU + DF + DU over 3562 paths, n=0..10"),
        ("transport:UUD", "pass", "UUD -> UF+D + UD over 3562 paths, n=0..10"),
        ("transport:UUU", "pass",
         "UUU -> UF+D + 2*UF+U + 2*UU over 3562 paths, n=0..10"),
        ("transport:DUU", "pass",
         "DUU -> UF+D + UD + delta - 1 over 3561 paths, n=1..10"),
        ("transport:DUD", "pass", "DUD -> F - UF+D - delta over 3561 paths, n=1..10"),
        ("transport:UDU", "pass", "UDU -> FF + FUD over 3562 paths, n=0..10"),
        ("transport:UDD", "pass", "UDD -> FD + UD + FUU + FUF over 3562 paths, n=0..10"),
        ("transport:DDU", "pass", "DDU -> DF + DU + FUU + FUF over 3562 paths, n=0..10"),
        ("transport:DDD", "pass",
         "DDD -> 2*UU + 2*UF - FD - FUU - FUF over 3562 paths, n=0..10"),
        ("transport:^UD", "pass", "^UD -> delta over 3561 paths, n=1..10"),
        ("transport:^UU", "pass", "^UU -> 1 - delta over 3561 paths, n=1..10"),
    ]


def test_campaign_reports_each_identity_on_its_own(monkeypatch):
    before = run_full_verification(max_n=4)["checks"]
    monkeypatch.setattr(dyckmotz.verifier, "DYCK_IDENTITIES",
                        dyckmotz.verifier.DYCK_IDENTITIES + (("UD", "DU", 0),))
    after = run_full_verification(max_n=4)["checks"]
    failed = [c for c in after if c["status"] == "fail"]
    assert failed == [{"check": "identity:dyck:UD = DU", "status": "fail",
                       "details": "all Dyck paths, n=0..4",
                       "counterexample": {"path": "UD", "lhs": 1, "rhs": 0}}]

    def untimed(checks):  # the three-way records' route timings vary run to run
        return [{k: v for k, v in c.items() if k != "elapsed_seconds"} for c in checks]
    assert untimed(c for c in after if c is not failed[0]) == untimed(before)


def test_small_campaigns_pass():
    for max_n in range(4):
        report = run_full_verification(max_n=max_n)
        assert report["ok"], [c for c in report["checks"] if c["status"] == "fail"]
    # the reference starts at n = 4: nothing to compare at n <= 3
    record = next(c for c in report["checks"]
                  if c["check"] == "oeis:A001793:row:UUD:2")
    assert record["status"] == "info"
    assert record["details"] == "no terms up to n = 3; not compared"


def test_campaign_records_unclaimed_rules_as_info():
    report = run_full_verification(max_n=0)
    records = {c["check"]: c for c in report["checks"]
               if c["check"].startswith("transport:")}
    assert len(records) == 15
    unclaimed = {name for name, c in records.items() if c["status"] != "pass"}
    assert unclaimed == {"transport:DUU", "transport:DUD",
                         "transport:^UD", "transport:^UU"}
    for name in unclaimed:
        assert records[name]["status"] == "info"
        assert records[name]["details"] == (
            "claimed only for n >= 1; nothing to check up to n = 0")


def test_a_check_that_compared_nothing_reads_info():
    records = {c["check"]: c for c in run_full_verification(max_n=0)["checks"]}
    empty = ["identity:dyck:DU = UD - 1", "golden:sum-row", "column:UUD-exactly-twice",
             *(name for name in records if name.startswith(("golden:dist:", "golden:pop:")))]
    assert len(empty) == 24
    for name in empty:
        assert records[name]["status"] == "info" and "counterexample" not in records[name]
    assert records["identity:dyck:DU = UD - 1"]["details"] == "all Dyck paths, n=1..0"
    assert records["golden:dist:UD"]["details"].startswith("0 transcribed cells")
    assert records["golden:sum-row"]["details"].startswith("0 column sums")
    assert records["golden:pop:pop2:UD"]["details"].startswith("0 transcribed terms")
    assert records["identity:dyck:UU = DD"]["status"] == "pass"
    for max_n in (3, 4):
        column = next(c for c in run_full_verification(max_n=max_n)["checks"]
                      if c["check"] == "column:UUD-exactly-twice")
        assert column["status"] == ("info" if max_n == 3 else "pass")
        assert column["details"] == ("n=4..3: " if max_n == 3 else "n=4..4: 1")


def test_wrong_printed_popularity_term_fails(tmp_path):
    seed = tmp_path / "seed.txt"
    seed.write_text("pop pop2 UD 3 9\n")
    report = run_full_verification(max_n=4, seed_tables=str(seed))
    failed = [c for c in report["checks"] if c["status"] == "fail"]
    assert not report["ok"] and [c["check"] for c in failed] == ["golden:pop:pop2:UD"]
    assert failed[0]["counterexample"] == [{"n": 3, "printed": 9, "computed": 8}]


def test_campaign_records_a_failed_du_from_ud_route(monkeypatch):
    def broken(max_n):
        raise RouteCheckError("DU-from-UD identity disagrees with the DU closed form")

    monkeypatch.setattr(dyckmotz.verifier, "du_from_ud", broken)
    report = run_full_verification(max_n=4)
    failed = [c for c in report["checks"] if c["status"] == "fail"]
    assert not report["ok"]
    # a failed record is timed too; every key but the time is compared
    assert [{k: v for k, v in c.items() if k != "elapsed_seconds"} for c in failed] == [
        {"check": "three-way:DU-from-UD", "status": "fail",
         "details": "DU-from-UD identity disagrees with the DU closed form", "truncation": 4}]
    assert failed[0]["elapsed_seconds"] >= 0


def test_campaign_times_the_du_route_and_the_printed_popularity_forms():
    # the printed popularity forms are checked through x^max(24, max_n)
    checks = {c["check"]: c for c in run_full_verification(max_n=4)["checks"]
              if c["check"] in ("three-way:DU-from-UD", "popularity-closed-forms")}
    assert [(c["status"], c["truncation"]) for c in checks.values()] == [
        ("pass", 4), ("pass", 24)]
    assert all(c["elapsed_seconds"] >= 0 for c in checks.values())


def test_campaign_records_a_broken_round_trip(monkeypatch):
    real = dyckmotz.family._phi_inverse
    monkeypatch.setattr(dyckmotz.family, "_phi_inverse",
                        lambda m: "" if m == "FF" else real(m))
    report = run_full_verification(max_n=4)
    failed = [c for c in report["checks"] if c["status"] == "fail"]
    assert not report["ok"] and [c["check"] for c in failed] == ["bijectivity"]
    counterexample = failed[0]["counterexample"]
    assert counterexample["n"] == 2 and counterexample["roundtrip_failures"] >= 1
    assert not counterexample["ok"] and counterexample["roundtrip_examples"] == ["UDUD"]


def test_campaign_catches_a_walker_that_repeats_a_member(monkeypatch):
    # member 2 of n = 3 stands in for member 3: the size stays M_3
    real = dyckmotz.family._members

    def repeating(n, *share):
        members = list(real(n, *share))
        if n == 3:
            members[2] = members[1]
        return iter(members)

    monkeypatch.setattr(dyckmotz.family, "_members", repeating)
    report = run_full_verification(max_n=4)
    checks = {c["check"]: c for c in report["checks"]}
    assert checks["cardinality"]["status"] == "pass"
    bijectivity = checks["bijectivity"]
    assert bijectivity["status"] == "fail" and not report["ok"]
    assert bijectivity["counterexample"]["out_of_order_examples"] == ["UUDUDD"]


def test_campaign_catches_two_members_on_one_image(monkeypatch):
    real = dyckmotz.family._phi
    monkeypatch.setattr(dyckmotz.family, "_phi",
                        lambda p: "UD" if p == "UDUD" else real(p))
    report = run_full_verification(max_n=4)
    (bijectivity,) = [c for c in report["checks"] if c["check"] == "bijectivity"]
    assert bijectivity["status"] == "fail" and not report["ok"]
    assert bijectivity["counterexample"]["roundtrip_examples"] == ["UDUD"]


@pytest.mark.parametrize("image", ["FU", "FUFF"])
def test_campaign_fails_a_malformed_image_instead_of_raising(monkeypatch, image):
    # the family pass leaves the image's validation to the round trip;
    # "FUFF" leaves an arch open, yet its letters decode to UDUD
    real = dyckmotz.family._phi
    monkeypatch.setattr(dyckmotz.family, "_phi",
                        lambda p: image if p == "UDUD" else real(p))
    report = run_full_verification(max_n=4)
    (bijectivity,) = [c for c in report["checks"] if c["check"] == "bijectivity"]
    assert bijectivity["status"] == "fail" and not report["ok"]
    assert bijectivity["counterexample"]["n"] == 2
    assert bijectivity["counterexample"]["roundtrip_examples"] == ["UDUD"]


def test_campaign_records_a_wrong_printed_popularity_form(monkeypatch):
    # a printed form that disagrees is the record's fail, not an exception
    printed = dyckmotz.genfun._pop_closed_length2
    du = printed["DU"]
    monkeypatch.setitem(printed, "DU", lambda x, r: du(x, r) + 1)
    report = run_full_verification(max_n=4)
    assert not report["ok"]
    failed = [c for c in report["checks"] if c["status"] == "fail"]
    assert [c["check"] for c in failed] == ["popularity-closed-forms"]
    assert "DU" in failed[0]["details"]


def test_campaign_reads_cached_bfiles(tmp_path):
    offset, terms = embedded_prefixes()["A004148"]
    (tmp_path / "A004148.txt").write_text(
        "".join(f"{offset + i} {t}\n" for i, t in enumerate(terms)))
    (tmp_path / "A026418.txt").write_text("1 1\n2 two\n")
    report = run_full_verification(max_n=6, oeis_cache_dir=str(tmp_path))
    assert report["ok"]
    records = {c["check"]: c for c in report["checks"]}
    read = records["oeis:A004148:avoid:UDU"]
    assert read["status"] == "pass"
    assert "b-file terms" in read["details"]
    fallback = records["oeis:A026418:avoid:DDD"]
    assert fallback["status"] == "pass"
    assert "table terms" in fallback["details"]


def test_negative_max_n_rejected():
    with pytest.raises(ValueError):
        run_full_verification(max_n=-1)


def test_misprint_annotation_produces_notice(tmp_path):
    seed = tmp_path / "seed.txt"
    seed.write_text("pop pop2 UU 6 130 misprint:135\n")
    report = run_full_verification(max_n=6, seed_tables=str(seed))
    assert report["ok"]
    notices = [c for c in report["checks"] if c["status"] == "notice"]
    assert len(notices) == 1
    assert "printed 130" in notices[0]["details"]
    assert "computed 135" in notices[0]["details"]


def test_wrong_misprint_annotation_fails(tmp_path):
    seed = tmp_path / "seed.txt"
    seed.write_text("pop pop2 UU 6 130 misprint:134\n")
    report = run_full_verification(max_n=6, seed_tables=str(seed))
    assert not report["ok"]
    failing = [c for c in report["checks"] if c["status"] == "fail"]
    assert failing and failing[0]["check"] == "golden:pop:pop2:UU"


def test_stale_misprint_annotation_fails(tmp_path):
    seed = tmp_path / "seed.txt"
    # the printed value actually matches, so the tag must be reported stale
    seed.write_text("pop pop2 UU 6 135 misprint:135\n")
    report = run_full_verification(max_n=6, seed_tables=str(seed))
    assert not report["ok"]
    failing = [c for c in report["checks"] if c["status"] == "fail"]
    assert any("stale" in str(c.get("counterexample")) for c in failing)


def test_broken_conjecture_never_fails_the_run(tmp_path):
    seed = tmp_path / "seed.txt"
    seed.write_text("seq A000045 conjectured pop:UD 1 9,9,9,9,9,9\n")
    report = run_full_verification(max_n=6, seed_tables=str(seed))
    assert report["ok"]
    broken = [c for c in report["checks"] if c["status"] == "conjecture-broken"]
    assert len(broken) == 1
    assert broken[0]["check"] == "oeis:A000045:pop:UD"


def test_plain_golden_mismatch_fails(tmp_path):
    seed = tmp_path / "seed.txt"
    seed.write_text("dist dist:UD UD 3 0 999\n")
    report = run_full_verification(max_n=6, seed_tables=str(seed))
    assert not report["ok"]
    failing = [c for c in report["checks"] if c["status"] == "fail"]
    assert failing[0]["check"] == "golden:dist:UD"
    assert failing[0]["counterexample"]["printed"] == 999


def test_failed_golden_record_counts_all_its_cells(tmp_path):
    # one wrong cell in a record of 29 and one wrong sum of 9, both early
    wrong = {"dist dist:UUD UUD 2 1 1": "dist dist:UUD UUD 2 1 7",
             "sum dist:UD 2 2": "sum dist:UD 2 3"}
    lines = (resources.files("dyckmotz") / "data/golden_tables.txt").read_text().splitlines()
    assert sum(line in wrong for line in lines) == 2
    seed = tmp_path / "seed.txt"
    seed.write_text("\n".join(wrong.get(line, line) for line in lines) + "\n")
    report = run_full_verification(max_n=9, seed_tables=str(seed))
    checks = {c["check"]: c for c in report["checks"]}
    assert checks["golden:dist:UUD"]["details"].startswith(
        "29 transcribed cells (of 29)")
    assert checks["golden:dist:UUD"]["counterexample"] == {
        "n": 2, "k": 1, "printed": 7, "computed": 1, "route": "closed"}
    assert checks["golden:sum-row"]["details"].startswith("9 column sums")
    assert checks["golden:sum-row"]["counterexample"] == {
        "label": "dist:UD", "n": 2, "printed": 3, "computed": 2}


def test_unknown_golden_record_kind_rejected(tmp_path):
    seed = tmp_path / "seed.txt"
    seed.write_text("blob x y z\n")
    with pytest.raises(ValueError):
        load_golden_tables(str(seed))


def test_the_golden_header_states_what_the_reader_takes(tmp_path):
    # the header's grammar lines: '#   <kind> <field> ...', a bracketed tag last
    lines = (resources.files("dyckmotz") / "data/golden_tables.txt").read_text().splitlines()
    grammar = {words[0]: words for words in (line[1:].split() for line in lines[:8])
               if words and words[0] in golden._FIELDS}
    assert grammar.keys() == golden._FIELDS.keys()
    good = {"dist": "dist dist:UD UD 1 1 1", "sum": "sum dist:UD 1 1",
            "pop": "pop pop2 UD 1 1", "seq": "seq A000001 stated pop:UD 1 1,3"}
    seed = tmp_path / "seed.txt"

    def loads(record):
        seed.write_text(record + "\n")
        try:
            load_golden_tables(str(seed))
        except ValueError:
            return False
        return True

    for kind, words in grammar.items():
        tagged = words[-1].startswith("[")
        assert len(words) - tagged == golden._FIELDS[kind], kind
        assert loads(good[kind])
        assert loads(good[kind] + " misprint:2") == tagged, kind
        assert not loads(good[kind] + " misprint:2 misprint:2"), kind
        if "<pattern>" in " ".join(words):  # the records that name a pattern
            joined = good[kind].replace(" UD ", " UU,DD ", 1)
            assert loads(joined) == ("<pattern>[,<pattern>]" in words), kind
    assert [kind for kind, words in grammar.items() if words[-1].startswith("[")] == ["pop"]


def test_render_text():
    report = run_full_verification(max_n=4)
    text = render_text(report)
    assert text.splitlines()[0].startswith("verification up to n = 4")
    assert "RESULT: OK" in text
    fake = {"max_n": 4, "ok": False, "elapsed_seconds": 0.1,
            "checks": [{"check": "demo", "status": "fail", "details": "d",
                        "counterexample": {"path": "UD"}}]}
    rendered = render_text(fake)
    assert "RESULT: FAILED" in rendered
    assert "counterexample" in rendered


def test_report_times_each_stage_and_the_text_names_the_two_slowest():
    report = run_full_verification(max_n=4)
    stages = report["stages"]
    assert list(stages) == ["family", "identities", "routes", "golden",
                            "popularity", "sequences"]
    assert all(seconds >= 0 for seconds in stages.values())
    assert sum(stages.values()) <= report["elapsed_seconds"] + 0.01
    assert render_text(report).splitlines()[-1].startswith("slowest stages: ")
    fake = {"max_n": 4, "ok": True, "elapsed_seconds": 1.0,
            "stages": {"family": 0.2, "identities": 0.5, "routes": 0.1},
            "checks": [{"check": "demo", "status": "pass", "details": "d"}]}
    assert render_text(fake).splitlines()[-2:] == [
        "RESULT: OK", "slowest stages: identities 0.5s, family 0.2s"]


def _forks() -> bool:
    return hasattr(os, "fork") and len(os.sched_getaffinity(0)) > 1


needs_two_cpus = pytest.mark.skipif(not _forks(),
                                    reason="the family pass forks only with a second CPU")

# runs the CLI on the CPUs named in argv[1] and writes how often it forked to stderr
_PINNED = """import json, os, sys
os.sched_setaffinity(0, json.loads(sys.argv[1]))
forks, fork = [], os.fork
os.fork = lambda: forks.append(1) or fork()
from dyckmotz import cli
code = cli.main(sys.argv[2:])
print(len(forks), file=sys.stderr)
raise SystemExit(code)"""


def _untimed(report: dict) -> dict:
    del report["elapsed_seconds"], report["stages"]
    for check in report["checks"]:
        check.pop("elapsed_seconds", None)
    return report


@needs_two_cpus
@pytest.mark.parametrize("argv", [["verify", "--max-n", "10", "--format", "json"],
                                  ["check-transport", "--all", "--max-n", "10"]],
                         ids=["verify", "check-transport"])
def test_one_cpu_and_two_give_the_same_output(argv):
    src = pathlib.Path(dyckmotz.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    env.pop("DYCKMOTZ_OEIS_CACHE", None)
    cpus = sorted(os.sched_getaffinity(0))[:2]
    runs = [subprocess.run([sys.executable, "-c", _PINNED, json.dumps(pinned), *argv],
                           env=env, capture_output=True, text=True, check=True)
            for pinned in (cpus[:1], cpus)]
    assert [run.stderr for run in runs] == ["0\n", "1\n"]  # one child on two CPUs
    one, two = (run.stdout for run in runs)
    if argv[0] == "verify":
        one, two = (_untimed(json.loads(out)) for out in (one, two))
    assert one == two


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_two_cpus
def test_a_campaign_leaves_no_process_behind():
    assert run_full_verification(max_n=10)["ok"]
    _no_child_left()


@needs_two_cpus
def test_an_error_in_the_campaigns_own_share_propagates(monkeypatch):
    real, calls = dyckmotz.family._phi_inverse, []

    def failing(m):
        calls.append(m)
        if len(calls) == 40:
            raise RuntimeError("the 40th round trip")
        return real(m)

    monkeypatch.setattr(family, "_CHUNK", 16)  # semilengths 5 to 8 are shared
    monkeypatch.setattr(dyckmotz.family, "_phi_inverse", failing)
    with pytest.raises(RuntimeError, match="the 40th round trip"):
        run_full_verification(max_n=8)
    _no_child_left()


@needs_two_cpus
def test_a_child_that_sends_nothing_leaves_the_report_as_it_was(monkeypatch):
    monkeypatch.setattr(family, "_CHUNK", 16)
    whole = _untimed(run_full_verification(max_n=8))
    parent, judge = os.getpid(), family._judge_share

    def dying(*args):
        if os.getpid() != parent:
            os._exit(1)
        return judge(*args)

    monkeypatch.setattr(family, "_judge_share", dying)
    assert _untimed(run_full_verification(max_n=8)) == whole
    _no_child_left()


@needs_two_cpus
def test_a_healthy_forked_pass_judges_only_its_own_share(monkeypatch):
    # every child's share comes, so this process never judges a semilength again
    monkeypatch.setattr(family, "_CHUNK", 16)
    parent, judge, judged = os.getpid(), family._judge_share, []

    def recording(n, claim, *readers):
        if os.getpid() == parent:
            judged.append((n, claim is not None))
        return judge(n, claim, *readers)

    monkeypatch.setattr(family, "_judge_share", recording)
    assert run_full_verification(max_n=10)["ok"]
    parts = len(os.sched_getaffinity(0))
    # one call per semilength: its claims when shared, never the whole walk again
    assert judged == [(n, motzkin_number(n) > (parts - 1) * 16) for n in range(11)]
    _no_child_left()


def test_a_fork_that_fails_leaves_every_share_to_this_process(monkeypatch):
    # os.fork raising OSError (no memory or no process left): no child, so
    # this process claims every subtree, and closes every pipe it made
    def reductions():
        sweep = TransportSweep(transport_rules())
        return dict(family.family_reductions(range(10), sweep)), sweep.results

    monkeypatch.setattr(family, "_CHUNK", 16)  # semilengths 5 to 9 are shared
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    whole = reductions()
    pipes, forks, pipe = [], [], os.pipe

    def failing():
        forks.append(1)
        raise OSError("fork refused")

    monkeypatch.setattr(os, "pipe", lambda: pipes.append(pipe()) or pipes[-1])
    monkeypatch.setattr(os, "fork", failing, raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert reductions() == whole
    assert forks == [1] and len(pipes) == 6  # a pipe of tokens per shared semilength, and one
    for fd in (fd for fds in pipes for fd in fds):
        with pytest.raises(OSError):
            os.fstat(fd)


@pytest.mark.parametrize("parts", [2, 3])
def test_the_shares_cover_the_walk_once_in_subtree_order(parts):
    # share part claims subtrees part, part + parts, ...
    for n in range(13):
        subtrees = {}
        for part in range(parts):
            for p in family._members(n, count(part, parts).__next__):
                if type(p) is int:  # a subtree's number, then its members
                    assert p not in subtrees and p % parts == part, (n, p)
                    members = subtrees[p] = []
                else:
                    members.append(p)
        assert sorted(subtrees) == list(range(len(subtrees)))
        assert [p for k in sorted(subtrees) for p in subtrees[k]] == list(
            enumerate_constrained(n)), n


@pytest.mark.parametrize("parts", [2, 3])
def test_the_merged_shares_are_the_one_process_reduction(parts):
    # one wrong rule fails on every pair, the other on the last pair of the
    # walk alone (UD...UD, whose image is the all-flat word)
    wrong = [TransportRule(name, parse_statistic(name, "dyck"), parse_statistic(rhs, "motzkin"))
             for name, rhs in (("U", "U + D + F + 1"), ("UD", "F + UD + delta"))]
    sweep = TransportSweep(transport_rules() + wrong)
    for n in range(12):
        whole = family._judge_share(n, None, sweep)
        family._close(whole)
        last = sum(whole["counts"].values()) - 1
        firsts = {k: fail[0] for k, fail in whole["fails"].items()}
        # at n = 0 the empty pair also fails the rules claimed from n = 1 (DUD, ^UD)
        assert firsts == {**({8: 0, 13: 0} if n == 0 else {}), 15: 0, 16: last}, n
        merged = family._judge_share(n, count(parts - 1, parts).__next__, sweep)
        for part in range(parts - 1):
            family._merge(merged, family._judge_share(n, count(part, parts).__next__, sweep))
        family._close(merged)
        assert merged == whole, n


def test_a_member_repeated_across_a_subtree_boundary_is_caught_in_any_share(monkeypatch):
    # the last member of subtree 4 comes again first in subtree 5, which
    # the other process may claim when the walk is shared
    n, real = 10, family._members
    # the walk split in one share: every subtree's number before its members
    walk = list(real(n, count().__next__))
    last, first = walk[walk.index(5) - 1], walk[walk.index(5) + 1]

    def repeating(m, *share):
        for p in real(m, *share):
            if m == n and p == first:
                yield last
            yield p

    monkeypatch.setattr(family, "_members", repeating)
    reports, reductions = [], []
    for parts in (1, 2, 3):  # one process, or forked children where os.fork exists
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, parts=parts: set(range(parts)),
                            raising=False)
        reports.append(check_bijectivity(n))
        reductions.append(dict(family.family_reductions([n], TransportSweep([]))))
    assert reports[0]["out_of_order_examples"] == [last] and reports[0]["out_of_order"] == 1
    assert reports[1] == reports[0] == reports[2]
    assert reductions[1] == reductions[0] == reductions[2]
    _no_child_left()
