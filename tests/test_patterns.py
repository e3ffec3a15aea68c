import os
import subprocess
import sys
import time
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyckmotz import (
    DIRAC,
    PATTERNS,
    EmptyPatternError,
    LatticePath,
    PathProfile,
    PathSyntaxError,
    PatternSyntaxError,
    TransportRule,
    check_transport,
    count_occurrences,
    enumerate_constrained,
    enumerate_dyck,
    enumerate_motzkin,
    evaluate_statistic,
    motzkin_number,
    parse_pattern,
    parse_statistic,
    phi,
    phi_inverse,
    transport_rule,
    transport_rules,
)
from dyckmotz import patterns
from dyckmotz.family import TransportSweep, family_reductions
from dyckmotz.patterns import PatternExpr


def test_parse_pattern_basic_forms():
    p = parse_pattern("UUD")
    assert p.atoms == (("U", False), ("U", False), ("D", False))
    assert not p.start_anchor and not p.end_anchor and not p.dirac
    assert parse_pattern("^UU").start_anchor
    assert parse_pattern("UD$").end_anchor
    assert parse_pattern("UF+D").atoms == (("U", False), ("F", True), ("D", False))
    assert parse_pattern("delta") is DIRAC


def test_parse_pattern_rejections():
    with pytest.raises(EmptyPatternError):
        parse_pattern("")
    with pytest.raises(PatternSyntaxError):
        parse_pattern("^UD$")
    with pytest.raises(PatternSyntaxError):
        parse_pattern("UXD")
    with pytest.raises(PatternSyntaxError):
        parse_pattern("+U")
    with pytest.raises(PatternSyntaxError):
        parse_pattern("U D")


def test_count_plain_patterns():
    assert count_occurrences("UDUD", parse_pattern("UD")) == 2
    assert count_occurrences("UDUD", parse_pattern("DU")) == 1
    assert count_occurrences("UUDD", parse_pattern("UD")) == 1
    assert count_occurrences("UUUDDD", parse_pattern("UUU")) == 1
    assert count_occurrences("", parse_pattern("UD")) == 0


def test_count_anchored_patterns_are_indicators():
    assert count_occurrences("UUDD", parse_pattern("^UU")) == 1
    assert count_occurrences("UDUD", parse_pattern("^UU")) == 0
    assert count_occurrences("UDUD", parse_pattern("UD$")) == 1
    assert count_occurrences("UUDD", parse_pattern("DD$")) == 1
    assert count_occurrences("", parse_pattern("^UD")) == 0


def test_count_dirac():
    assert count_occurrences("", DIRAC) == 1
    assert count_occurrences("FFF", DIRAC) == 1
    assert count_occurrences("UFD", DIRAC) == 0


def test_count_repeated_atoms():
    # X+ sums the matches of X, XX, XXX, ...
    assert count_occurrences("UUU", parse_pattern("U+")) == 6
    assert count_occurrences("UFFD", parse_pattern("UF+D")) == 1
    assert count_occurrences("UFDUFFD", parse_pattern("UF+D")) == 2
    assert count_occurrences("UFFU", parse_pattern("UF+U")) == 1
    assert count_occurrences("UFFD", parse_pattern("F+")) == 3


WORDS = st.text(alphabet="UDF", max_size=10)
ATOMS = st.lists(
    st.tuples(st.sampled_from("UDF"), st.booleans()), min_size=1, max_size=3)


def _oracle(word, atoms, start_anchor, end_anchor):
    # expand every repeated atom to explicit lengths and count slices
    def expansions(i):
        if i == len(atoms):
            yield ""
            return
        letter, repeated = atoms[i]
        top = len(word) if repeated else 1
        for k in range(1, max(top, 1) + 1):
            for rest in expansions(i + 1):
                yield letter * k + rest

    total = 0
    for concrete in expansions(0):
        if start_anchor:
            total += word.startswith(concrete)
        elif end_anchor:
            total += word.endswith(concrete)
        else:
            total += sum(word[i:i + len(concrete)] == concrete
                         for i in range(len(word) - len(concrete) + 1))
    if start_anchor or end_anchor:
        return min(total, 1)
    return total


@settings(max_examples=300, deadline=None)
@given(WORDS, ATOMS, st.sampled_from(["", "^", "$"]))
def test_count_matches_expansion_oracle(word, atoms, anchor):
    text = "".join(a + ("+" if r else "") for a, r in atoms)
    if anchor == "^":
        text = "^" + text
    elif anchor == "$":
        text = text + "$"
    expr = parse_pattern(text)
    expected = _oracle(word, atoms, anchor == "^", anchor == "$")
    assert count_occurrences(word, expr) == expected
    assert PathProfile(word).count(expr) == expected


def test_count_is_one_linear_pass():
    # one pass over the word: the all-F word has n(n+1)/2 runs, and an
    # end anchor is decided from the last step backwards
    n = 20000
    start = time.perf_counter()
    assert count_occurrences("F" * n, parse_pattern("F+")) == n * (n + 1) // 2
    assert time.perf_counter() - start < 1.0
    start = time.perf_counter()
    assert count_occurrences("F" * n + "U", parse_pattern("F+U$")) == 1
    assert time.perf_counter() - start < 1.0


def test_profile_count_agrees_with_direct_count():
    texts = ["U", "D", "F", "UD", "UU", "DD", "DU", "UF", "FD", "FF",
             "UUU", "UUD", "DUU", "DUD", "UDU", "UDD", "DDU", "DDD",
             "FUU", "FUD", "FUF", "UF+D", "UF+U", "^UU", "^UD", "DD$",
             "UD$", "F$", "FUD$", "delta",
             # shapes that get no compiled counter
             "UU+D", "FF+D", "F+D", "U+", "UUUU", "^U+"]
    exprs = [parse_pattern(t) for t in texts]
    assert [e.text for e in exprs if e.counter is None] == [
        "UU+D", "FF+D", "F+D", "U+", "UUUU", "^U+"]
    # built by hand, without text: the generic counter answers it
    exprs.append(PatternExpr((("U", False), ("D", False))))
    paths = [p for n in range(6) for p in enumerate_motzkin(n)]
    paths += [p for n in range(6) for p in enumerate_dyck(n)]
    # lattice words on which runs and bordered words overlap themselves,
    # a prefix, and the two shortest paths
    paths += ["UDUDU", "DUDUD", "UFUFU", "FUFUF", "UUUU", "DDDD", "FFFF",
              "UF", "F", ""]
    # keys keep the patterns' order: the seven the generic counter answers
    # come last here
    keys, read, values, _ = patterns._reader(exprs)
    by_text = {e.text: e for e in exprs}
    order = [by_text[t] for t in keys]
    assert len(order) == len(exprs) and order[-7:] == exprs[-7:]
    for p in paths:
        prof = PathProfile(p)
        for e in exprs:
            assert prof.count(e) == count_occurrences(p, e), (str(p), e.text)
        assert values(read(str(p))) == tuple(count_occurrences(p, e) for e in order)
    # where a count without overlaps would be wrong
    for word, text, expected in (("UUUDDD", "UU", 2), ("UDUDUD", "UDU", 2),
                                 ("UFUFU", "UF+U", 2), ("", "delta", 1)):
        assert PathProfile(word).count(parse_pattern(text)) == expected


def _campaign_readers():
    """The campaign's two readers, built as run_full_verification builds
    them: every rule's Dyck side plus PATTERNS, and every Motzkin side
    (read_motzkin of the same sweep comes from this _reader call)."""
    rules = transport_rules()
    sweep = TransportSweep(rules, map(parse_pattern, PATTERNS))
    motzkin = patterns._reader((), [r.motzkin_side for r in rules])
    return [(sweep.dyck_keys, sweep.read_dyck, sweep.dyck_values), motzkin[:3]]


def _assert_reads_exactly(words):
    for keys, read, values in _campaign_readers():
        exprs = [parse_pattern(t) for t in keys]
        for word in words:
            assert values(read(word)) == tuple(count_occurrences(word, e)
                                               for e in exprs), word


def test_campaign_readers_are_exact():
    (dyck_keys, *_), (motzkin_keys, *_) = _campaign_readers()
    assert set(PATTERNS) <= set(dyck_keys) and "DD" in dyck_keys
    assert {"UF+D", "UF+U", "delta"} <= set(motzkin_keys)
    paths = [str(p) for n in range(9) for p in enumerate_dyck(n)]
    paths += [str(p) for n in range(9) for p in enumerate_motzkin(n)]
    # the empty text, all-flat words, and flanked runs sharing a flank
    edges = ["", "F", "FF", "FFFFF", "UFFUFD", "DUFUD", "UFUFU", "UFUFD"]
    _assert_reads_exactly(paths + edges)
    (_, read_dyck, dyck_values), (_, read_motzkin, motzkin_values) = _campaign_readers()
    motzkin_counts = lambda text: dict(zip(motzkin_keys, motzkin_values(read_motzkin(text))))
    counts = motzkin_counts("UFFUFD")
    assert (counts["UF+U"], counts["UF+D"], counts["FUF"]) == (1, 1, 1)
    counts = motzkin_counts("DUFUD")
    assert (counts["UF+U"], counts["FUD"], counts["delta"]) == (1, 1, 0)
    assert motzkin_counts("")["delta"] == 1
    assert motzkin_counts("FFFF")["FF"] == 3
    assert dict(zip(dyck_keys, dyck_values(read_dyck("UUUDDD"))))["DD"] == 2


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="UDF", max_size=30))
def test_campaign_readers_match_the_generic_counter(word):
    _assert_reads_exactly([word])


# every shape parse_pattern compiles a counter for: 39 plain words, each
# anchored at either end, the 12 flanked runs XY+Z with X != Y != Z, delta
_WORDS = ["".join(w) for k in (1, 2, 3) for w in product("UDF", repeat=k)]
_COMPILED = [*_WORDS, *("^" + w for w in _WORDS), *(w + "$" for w in _WORDS),
             *(f"{x}{y}+{z}" for y in "UDF" for x in "UDF" for z in "UDF"
               if y not in (x, z)),
             "delta"]


def _assert_compiled_counters_exact(texts):
    exprs = [parse_pattern(t) for t in _COMPILED]
    keys, read, values, _ = patterns._reader(exprs)
    assert keys == tuple(_COMPILED)
    for text in texts:
        path = LatticePath(text)  # validated once for the generic counter
        expected = tuple(count_occurrences(path, e) for e in exprs)
        profile = PathProfile(path)
        assert tuple(map(profile.count, exprs)) == expected, text
        assert values(read(text)) == expected, text


def test_compiled_counters_are_exact_on_every_short_word():
    assert (len(_WORDS), len(_COMPILED)) == (39, 130)
    assert all(parse_pattern(t).counter is not None for t in _COMPILED)
    words = ["".join(w) for k in range(9) for w in product("UDF", repeat=k)]
    assert len(words) == 9841
    _assert_compiled_counters_exact(words)


def test_compiled_counters_are_exact_on_a_long_member_and_its_image():
    image = ("UFUFFDDFUUFDUDDFF" "UFFFDUD") * 50
    member = str(phi_inverse(image))
    assert (len(member), str(phi(member))) == (2400, image)
    _assert_compiled_counters_exact([member, image])


def test_compiled_counters_are_exact_across_int_digit_boundaries():
    # a plane is one int, one bit per step: runs of every length up to 200
    # cross CPython's 30-bit digits, so a window or a carry spans two digits
    words = {w for k in range(201) for w in ("U" + "F" * k + "D", "U" * k, "UD" * k, "F" * k)
             if 1 <= len(w) <= 200}
    assert len(words) == 698  # UD is both U F^0 D and (UD)^1
    _assert_compiled_counters_exact(sorted(words, key=len))


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet="UDF", max_size=300))
def test_compiled_counters_are_exact_on_long_words(word):
    _assert_compiled_counters_exact([word])


@pytest.mark.parametrize("text", ["UXD", "U1D", "U0D", "U_D", " UD", "UD\n", "U١D", "UéD"])
def test_a_plane_reader_refuses_a_letter_that_is_no_step(text):
    # int(, 2) would take a digit, an underscore or a space; each must raise,
    # never be counted
    readers = [patterns._side_reader(side)[0] for side in ("dyck", "motzkin")]
    readers.append(patterns._reader([parse_pattern(t) for t in _COMPILED])[1])
    for read in readers:
        with pytest.raises(ValueError):
            read(text)
    for f, arg in ((patterns._windows, "U"), (patterns._flanked, "UFD")):
        with pytest.raises(ValueError):
            f(text, arg)


def test_reader_source_holds_no_read_argument():
    # built by hand, bypassing parse_pattern: the words carry quotes, a
    # backslash and text that would run if it were spliced into source
    def occurrences(text, word):
        return text.count(word)

    hostile = "'), __import__('os').getcwd(), ('"
    counter = (((str.count, "U'\"\\"), 2), ((str.startswith, "\\'"), -1),
               ((str.endswith, '"D'), 3), ((occurrences, hostile), 5))
    pat = PatternExpr((("U", False),), text="quoted", counter=counter)
    stat = patterns.StatisticExpr(((4, pat), (-2, patterns.ONE), (3, patterns.N)), "dyck")
    keys, read, values, sides = patterns._reader([pat], [stat])
    assert keys == ("quoted",)
    for f in (read, values, sides):
        assert not any(isinstance(c, str) for c in f.__code__.co_consts)
    for text in ("", "UD", "U'\"\\U'\"\\", "\\'x\"D", hostile * 2 + '"D'):
        count = sum(c * f(text, arg) for (f, arg), c in counter)
        raw = read(text)
        assert values(raw) == (count,), text
        assert sides(raw, len(text)) == (4 * count - 2 + 3 * (len(text) // 2),), text


def test_profile_validates_plain_strings():
    with pytest.raises(PathSyntaxError) as info:
        PathProfile("UXD")
    assert info.value.position == 1
    e = parse_statistic("UD", "dyck")
    with pytest.raises(PathSyntaxError):
        evaluate_statistic("UXD", e)
    # a LatticePath is taken as it is
    p = LatticePath("UFD")
    assert PathProfile(p).path is p
    assert evaluate_statistic("UD", e, PathProfile("UD")) == 1


def test_parse_statistic_and_evaluate():
    e = parse_statistic("UU + UD", "dyck")
    assert evaluate_statistic("UUDD", e) == 2
    n_expr = parse_statistic("n", "dyck")
    assert evaluate_statistic("UUDD", n_expr) == 2
    n_motz = parse_statistic("n", "motzkin")
    assert evaluate_statistic("UFD", n_motz) == 3
    combo = parse_statistic("2*UU - 1 + delta", "dyck")
    assert evaluate_statistic("UUDD", combo) == 2 * 1 - 1 + 0
    neg = parse_statistic("-UU + n", "dyck")
    assert evaluate_statistic("UUDD", neg) == 1


def test_parse_statistic_rejects_garbage():
    with pytest.raises(ValueError):
        parse_statistic("UU +", "dyck")
    with pytest.raises(ValueError):
        parse_statistic("", "dyck")
    with pytest.raises(ValueError):
        parse_statistic("UU", "sideways")


@pytest.mark.parametrize("text, position", [
    ("UD + 2*UD + 2*", 12), ("UD - -", 5), ("  UD + -", 7), ("2* + UD", 0)])
def test_empty_statistic_term_is_reported_where_it_starts(text, position):
    with pytest.raises(PatternSyntaxError) as info:
        parse_statistic(text, "dyck")
    assert info.value.position == position
    assert str(info.value) == f"empty term at position {position} in {text!r}"


@pytest.mark.parametrize("text, position, reason", [
    ("UD + UX", 6, "invalid character"), ("UU - 3", 5, "invalid character"),
    ("  2*UD - -3*UX", 13, "invalid character"), ("UD + ^UD$", 8, "both anchors on one pattern"),
    ("-UX", 2, "invalid character")])
def test_pattern_error_in_a_statistic_is_placed_in_the_whole_text(text, position, reason):
    with pytest.raises(PatternSyntaxError) as info:
        parse_statistic(text, "dyck")
    assert info.value.position == position
    assert str(info.value) == f"{reason} at position {position} in {text!r}"


def test_evaluate_statistic_refuses_another_paths_profile():
    e = parse_statistic("UU", "dyck")
    with pytest.raises(ValueError, match="another path"):
        evaluate_statistic("UD", e, PathProfile("UUDD"))
    # the same text, or the profile's own path object, is its path
    profile = PathProfile("UUDD")
    assert evaluate_statistic("UUDD", e, profile) == 1
    assert evaluate_statistic(profile.path, e, profile) == 1
    assert evaluate_statistic(LatticePath("UUDD"), e, profile) == 1


# generic patterns: no compiled counter, one read of count_occurrences each
_GENERIC = ["UUUU", "UU+D", "^U+", "F+D$"]
_TERMS = st.lists(st.tuples(st.sampled_from("+-"), st.integers(0, 4),
                            st.sampled_from([*_COMPILED, *_GENERIC, "1", "n"])),
                  min_size=1, max_size=5)


def _statistic(terms, side):
    """The statistic text of terms [(sign, coefficient, body), ...] and the
    value it must have on a word, straight from count_occurrences."""
    text = " ".join(f"{sign} {c}*{body}" for sign, c, body in terms)[2:]
    if terms[0][0] == "-":
        text = "-" + text

    def value(word):
        n = len(word) // 2 if side == "dyck" else len(word)
        return sum((1 if sign == "+" else -1) * c
                   * (1 if body == "1" else n if body == "n"
                      else count_occurrences(word, parse_pattern(body)))
                   for sign, c, body in terms)
    return parse_statistic(text, side), value


@settings(max_examples=200, deadline=None)
@given(st.lists(_TERMS, min_size=1, max_size=4), st.sampled_from(["dyck", "motzkin"]),
       st.text(alphabet="UDF", max_size=40), st.randoms(use_true_random=False))
def test_one_form_serves_every_caller(terms, side, word, rng):
    stats, oracles = zip(*(_statistic(t, side) for t in terms))
    expected = [value(word) for value in oracles]
    assert [evaluate_statistic(word, s) for s in stats] == expected
    assert [evaluate_statistic(word, s, PathProfile(word)) for s in stats] == expected
    shared, order = PathProfile(word), list(range(len(stats)))
    rng.shuffle(order)
    assert {k: evaluate_statistic(word, stats[k], shared) for k in order} == dict(
        enumerate(expected))
    _, read, _, sides = patterns._reader((), stats)
    assert list(sides(read(word), len(word))) == expected


def test_a_shared_profile_makes_each_read_once():
    calls = Counter()

    def spy(f):
        def read(text, arg):
            calls[read, arg] += 1
            return f(text, arg)
        return read

    spies = {}

    def spied(pat):
        counter = tuple(((spies.setdefault(f, spy(f)), arg), c) for (f, arg), c in patterns._reads(pat))
        return PatternExpr(pat.atoms, pat.start_anchor, pat.end_anchor, pat.dirac, pat.text, counter)

    def rebuilt(s):
        terms = tuple((c, spied(t) if isinstance(t, PatternExpr) else t) for c, t in s.terms)
        return patterns.StatisticExpr(terms, s.side, s.text)

    generic = parse_statistic("UUUU - 2*UU+D + n", "dyck")
    sides = [(rebuilt(r.dyck_side), rebuilt(r.motzkin_side)) for r in transport_rules()]
    sides.append((rebuilt(generic), rebuilt(generic)))
    member = "UUUDUDDUDD" * 3
    image = str(phi(member))
    for text, k in ((member, 0), (image, 1)):
        profile = PathProfile(text)
        calls.clear()
        values = [evaluate_statistic(text, s[k], profile) for s in sides]
        values += [evaluate_statistic(text, s[k], profile) for s in reversed(sides)]
        assert values[:len(sides)] == values[len(sides):][::-1]
        reads = {read for s in sides for read, _ in s[k].form}
        assert set(calls) == reads and set(calls.values()) == {1}, text
    assert [evaluate_statistic(member, s, PathProfile(member)) for s, _ in sides[:-1]] == [
        evaluate_statistic(image, s, PathProfile(image)) for _, s in sides[:-1]]


def _sides(side):
    return [getattr(r, f"{side}_side") for r in transport_rules()]


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="UDF", max_size=40))
def test_a_rule_side_values_as_its_unregistered_twin(word):
    for side in ("dyck", "motzkin"):
        for e in _sides(side):
            twin = parse_statistic(e.text, e.side)
            assert twin == e and e.slot is not None and twin.slot is None
            got = evaluate_statistic(word, e, PathProfile(word))
            assert got == evaluate_statistic(word, twin, PathProfile(word)), (e.text, word)
            assert type(got) is int and type(evaluate_statistic(word, twin)) is int


def test_a_profile_reads_a_side_once_for_all_its_rules(monkeypatch):
    reads = Counter()

    def spied(side, real=patterns._side_reader):
        read, sides = real(side)

        def spy(text):
            reads[side, text] += 1
            return read(text)
        return spy, sides

    monkeypatch.setattr(patterns, "_side_reader", spied)
    member = "UUUDUDDUDD" * 3
    for text, side in ((member, "dyck"), (str(phi(member)), "motzkin")):
        profile = PathProfile(text)
        values = [evaluate_statistic(text, e, profile) for e in _sides(side)]
        values += [evaluate_statistic(text, e, profile) for e in _sides(side)]
        assert reads == {(side, text): 1} and profile.reads == {}, side
        assert len(profile.sides[side]) == 15 and values[:15] == values[15:]
        reads.clear()


def test_side_readers_compile_on_first_use_and_stay_two():
    # a fresh interpreter, so no other test has compiled them yet
    code = ("from dyckmotz import patterns as p\n"
            "assert p._side_reader.cache_info().currsize == 0\n"
            "for r in p.transport_rules():\n"
            "    p.evaluate_statistic('UD', r.dyck_side)\n"
            "    p.evaluate_statistic('F', r.motzkin_side)\n"
            "info = p._side_reader.cache_info()\n"
            "assert (info.currsize, info.maxsize, info.misses) == (2, 2, 2), info\n")
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, env={**os.environ, "PYTHONPATH": path})
    assert result.returncode == 0, result.stderr


def test_compiled_forms_give_ints():
    # a lone anchored or delta read is a bool; its form values it as an int
    sweep = TransportSweep(transport_rules())
    _, read, values, _ = patterns._reader(map(parse_pattern, ("^UD", "UD$", "UD")))
    for got, tail in ((sweep.dyck_sides(sweep.read_dyck("UDUUDD"), 6), (1, 0)),
                      (values(read("UDUD")), (1, 1, 2))):
        assert got[-len(tail):] == tail and {type(v) for v in got} == {int}, got
    wrong = TransportRule("^UD", parse_statistic("^UD", "dyck"),
                          parse_statistic("1 - delta", "motzkin"), 1)
    counterexample = check_transport(wrong, 3)["counterexample"]
    assert (counterexample["lhs"], counterexample["rhs"]) == (0, 1)
    assert type(counterexample["lhs"]) is int


def test_transport_rule_lookup():
    rules = transport_rules()
    assert len(rules) == 15
    names = [r.name for r in rules]
    assert names.count("UD") == 1 and "^UU" in names
    # DD shares the UU rule
    assert transport_rule("DD") is transport_rule("UU")
    with pytest.raises(KeyError):
        transport_rule("FFF")


def test_check_transport_passes_small_sizes():
    for rule in transport_rules():
        for n in range(rule.min_n, 7):
            result = check_transport(rule, n)
            assert result["ok"], (rule.name, n, result["counterexample"])
            assert result["checked"] > 0 or n == 0


def test_check_transport_respects_min_n():
    rule = transport_rule("DUU")
    assert rule.min_n == 1
    with pytest.raises(ValueError):
        check_transport(rule, 0)


def test_check_transport_counts_up_to_the_counterexample():
    wrong = TransportRule("UDU", parse_statistic("UDU", "dyck"),
                          parse_statistic("FF", "motzkin"))
    result = check_transport(wrong, 3)
    assert result == {"rule": "UDU", "n": 3, "checked": 2, "ok": False,
                      "counterexample": {"path": "UUDUDD", "image": "FUD",
                                         "lhs": 1, "rhs": 0}}


def test_check_transport_rejects_a_negative_semilength():
    for rule in ("UD", "DUU"):
        with pytest.raises(ValueError, match="^semilength must be nonnegative$"):
            check_transport(rule, -1)


def _pairs(n):
    """(member, image) texts of semilength n, in walk order, each built when reached."""
    return ((str(p), str(phi(p))) for p in enumerate_constrained(n))


def test_transport_sweep_reads_a_one_shot_iterator_once():
    pairs = list(_pairs(5))
    sweep = TransportSweep(transport_rules())
    sweep.add(5, iter(pairs))
    assert [r["checked"] for r in sweep.results] == [len(pairs)] * 15
    assert all(r["counterexample"] is None for r in sweep.results)


def test_transport_sweep_stops_at_first_counterexample():
    wrong = TransportRule("UDU", parse_statistic("UDU", "dyck"),
                          parse_statistic("FF", "motzkin"))
    sweep = TransportSweep([transport_rule("DUU"), wrong])
    for n in range(7):
        sweep.add(n, _pairs(n))
    right, broken = sweep.results
    assert right["counterexample"] is None
    assert right["checked"] == sum(motzkin_number(n) for n in range(1, 7))
    assert broken["counterexample"] == {"n": 3, "path": "UUDUDD", "image": "FUD",
                                        "lhs": 1, "rhs": 0}
    assert broken["checked"] == 1 + 1 + 2 + 2  # stops at the failing path


def _wrong_rule(name, motzkin_text):
    return TransportRule(name, parse_statistic(name, "dyck"),
                         parse_statistic(motzkin_text, "motzkin"))


def test_transport_sweep_is_done_once_every_rule_failed():
    wrong = _wrong_rule("UDU", "FF")
    sweep = TransportSweep([wrong])
    sweep.add(11, _pairs(11))
    (result,) = sweep.results
    assert result["counterexample"] is not None and result["checked"] == 2
    assert sweep.done
    sweep = TransportSweep([wrong])
    assert not sweep.done
    sweep.add(3, _pairs(3))
    assert sweep.done


def test_memoised_sweep_matches_a_naive_per_pair_loop():
    rules = transport_rules() + [
        _wrong_rule("UDU", "FF"),
        _wrong_rule("UUU", "UF+D + 2*UF+U + UU"),
        _wrong_rule("UD", "F + UD + UUUU"),  # UUUU: a generic-counter term
        TransportRule("UDU", parse_statistic("UDU", "dyck"),  # claimed inside a gap
                      parse_statistic("FF", "motzkin"), min_n=4),
    ]
    # every pair of n <= 9 with each rule's two values on it
    stream = []
    for n in range(10):
        for dyck, motz in _pairs(n):
            d, m = PathProfile(dyck), PathProfile(motz)
            stream.append((n, dyck, motz, [(evaluate_statistic(dyck, r.dyck_side, d),
                                            evaluate_statistic(motz, r.motzkin_side, m))
                                           for r in rules]))

    def naive(pairs):
        results = []
        for k, rule in enumerate(rules):
            checked, counterexample = 0, None
            for n, dyck, motz, values in pairs:
                if n < rule.min_n:
                    continue
                checked += 1
                lhs, rhs = values[k]
                if lhs != rhs:
                    counterexample = {"n": n, "path": dyck, "image": motz,
                                      "lhs": lhs, "rhs": rhs}
                    break
            results.append((checked, counterexample))
        return results

    def read(sweep):
        return [(r["checked"], r["counterexample"]) for r in sweep.results]

    sweep = TransportSweep(rules)
    for n in range(10):
        sweep.add(n, ((dyck, motz) for k, dyck, motz, _ in stream if k == n))
    whole = naive(stream)
    assert read(sweep) == whole
    assert whole[17][0] == 217 and whole[17][1]["n"] == 8
    assert [c is None for _, c in whole] == [True] * 15 + [False] * 4
    # semilengths with gaps, and results read within a semilength: after
    # each of the first 17 pairs and on each side of every failing pair
    gaps = [pair for pair in stream if pair[0] in (0, 1, 2, 5, 6, 9)]
    for pairs in (stream, gaps):
        failing = {(c["n"], c["path"]) for _, c in naive(pairs) if c}
        fails = [t for t, (n, dyck, *_) in enumerate(pairs, 1) if (n, dyck) in failing]
        reads = set(range(1, 18)) | {t + d for t in fails for d in (-1, 0, 1)}
        sweep = TransportSweep(rules)
        for t, (n, dyck, motz, _) in enumerate(pairs, 1):
            sweep.add(n, [(dyck, motz)])  # results read within a semilength
            if t in reads:
                assert read(sweep) == naive(pairs[:t]), t
        assert read(sweep) == naive(pairs)


def test_sweep_memo_keys_on_each_pairs_own_size():
    # no pattern term: only the path lengths tell the two pairs apart
    rule = TransportRule("n", parse_statistic("n", "dyck"),
                         parse_statistic("1", "motzkin"))
    pairs = [("UD", "F"), ("UDUD", "FF")]
    sweep = TransportSweep([rule])
    sweep.add(1, pairs)
    (result,) = sweep.results
    assert result["checked"] == 2
    assert result["counterexample"] == {"n": 1, "path": "UDUD", "image": "FF",
                                        "lhs": 2, "rhs": 1}


def test_family_reductions_judges_each_semilength_as_it_yields():
    rules = transport_rules()
    sweep = TransportSweep(rules)
    for n, _ in family_reductions(range(6), sweep):
        assert [r["checked"] for r in sweep.results] == [
            sum(map(motzkin_number, range(rule.min_n, n + 1))) for rule in rules]
    assert all(r["counterexample"] is None for r in sweep.results)


def test_sweep_values_dyck_sides_per_raw_tuple_and_motzkin_sides_per_pair(monkeypatch):
    rules = transport_rules()
    families = [list(_pairs(n)) for n in range(10)]
    sweep = TransportSweep(rules)
    raws = sum(len({sweep.read_dyck(dyck) for dyck, _ in pairs}) for pairs in families)
    assert (raws, sum(map(len, families))) == (210, 1374)

    def refuse(*args):
        raise AssertionError("the sweep judges with its compiled forms alone")

    monkeypatch.setattr(patterns, "PathProfile", refuse)
    monkeypatch.setattr(patterns, "evaluate_statistic", refuse)
    # one process, so that every call is counted here
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    calls = Counter()
    for side in ("dyck_sides", "motzkin_sides"):
        def counting(raw, size, side=side, real=getattr(sweep, side)):
            calls[side] += 1
            return real(raw, size)
        setattr(sweep, side, counting)
    assert [n for n, _ in family_reductions(range(10), sweep)] == list(range(10))
    assert all(r["counterexample"] is None for r in sweep.results)
    # the Dyck sides once per raw tuple of a semilength, the Motzkin sides
    # once per pair, each call valuing every rule
    assert calls == {"dyck_sides": raws, "motzkin_sides": 1374}


def test_sweep_sizes_n_by_each_statistics_own_side():
    # an identity system puts a Dyck statistic in the Motzkin slot: its n
    # is the semilength of the text it reads, not that text's length
    def sweep_dyck_paths(rhs_side):
        sweep = TransportSweep([TransportRule(
            "UU + UD = n", parse_statistic("UU + UD", "dyck"),
            parse_statistic("n", rhs_side))])
        for n in range(7):
            sweep.add(n, ((t, t) for t in map(str, enumerate_dyck(n))))
        (result,) = sweep.results
        return result["checked"], result["counterexample"]

    assert sweep_dyck_paths("dyck") == (1 + 1 + 2 + 5 + 14 + 42 + 132, None)
    assert sweep_dyck_paths("motzkin") == (1 + 1, {"n": 1, "path": "UD", "image": "UD",
                                                   "lhs": 1, "rhs": 2})


def test_dyck_statistic_systems():
    dyck_identities = [
        ("UU", "UUU + UUD"),
        ("UU", "UUU + DUU + ^UU"),
        ("UD", "UUD + DUD + ^UD"),
        ("DU", "DUU + DUD"),
        ("DD", "DDD + UDD"),
        ("DD", "DDD + DDU + DD$"),
        ("UD", "UDD + UDU + UD$"),
        ("DU", "DDU + UDU"),
    ]
    parsed = [(parse_statistic(a, "dyck"), parse_statistic(b, "dyck"))
              for a, b in dyck_identities]
    for n in range(7):
        for p in enumerate_dyck(n):
            prof = PathProfile(p)
            for lhs, rhs in parsed:
                assert (evaluate_statistic(p, lhs, prof)
                        == evaluate_statistic(p, rhs, prof))


def test_motzkin_flat_classification():
    lhs = parse_statistic("F", "motzkin")
    rhs = parse_statistic("F$ + FF + FD + FUU + FUD + FUF", "motzkin")
    for n in range(8):
        for p in enumerate_motzkin(n):
            prof = PathProfile(p)
            assert (evaluate_statistic(p, lhs, prof)
                    == evaluate_statistic(p, rhs, prof))
