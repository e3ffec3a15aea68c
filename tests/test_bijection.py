import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyckmotz import (
    DyckPath,
    MotzkinPath,
    NotADyckPathError,
    NotAMotzkinPathError,
    NotConstrainedError,
    PathSyntaxError,
    check_bijectivity,
    enumerate_constrained,
    enumerate_dyck,
    enumerate_motzkin,
    is_constrained,
    motzkin_number,
    phi,
    phi_inverse,
)
from dyckmotz import patterns
from dyckmotz.bijection import _phi_inverse

GOLDEN = {
    "UDUDUD": "FFF",
    "UUDDUD": "UDF",
    "UUDUDD": "FUD",
    "UUUDDD": "UFD",
    "UUUUDDDDUUUDDUDD": "UUDDFUFD",
}


def test_golden_images():
    for dyck, motzkin in GOLDEN.items():
        assert str(phi(dyck)) == motzkin


def test_empty_path_maps_to_empty_path():
    assert phi("") == ""
    assert phi_inverse("") == ""


def test_staircase_maps_to_all_flat():
    for n in range(8):
        assert str(phi("UD" * n)) == "F" * n


def test_phi_rejects_paths_outside_the_family():
    with pytest.raises(NotConstrainedError):
        phi("UDUUDD")
    with pytest.raises(NotAMotzkinPathError):
        phi("DU")


def _phi_by_definition(p):
    """phi read off its definition on the arch closed by the last step:
    phi(alpha UD) = phi(alpha) F and
    phi(alpha U UbetaD gamma D) = phi(alpha) phi(gamma) U phi(beta) D."""
    if not p:
        return ""
    level = 0
    for a in range(len(p) - 1, -1, -1):  # back to the last arch's U
        level += 1 if p[a] == "D" else -1
        if not level:
            break
    alpha, inner = p[:a], p[a + 1:-1]
    if not inner:
        return _phi_by_definition(alpha) + "F"
    for j in range(len(inner)):  # inner = U beta D gamma, split at its first return
        level += 1 if inner[j] == "U" else -1
        if not level:
            break
    beta, gamma = inner[1:j], inner[j + 1:]
    return (_phi_by_definition(alpha) + _phi_by_definition(gamma)
            + "U" + _phi_by_definition(beta) + "D")


def test_phi_matches_its_recursive_definition():
    for n in range(10):
        for p in enumerate_constrained(n):
            assert str(phi(p)) == _phi_by_definition(str(p))


def test_phi_rejects_exactly_the_non_members():
    # the walker generates the family on its own, so it is the oracle
    for n in range(10):
        members = set(map(str, enumerate_constrained(n)))
        for p in enumerate_dyck(n):
            if str(p) in members:
                phi(p)
            else:
                with pytest.raises(NotConstrainedError):
                    phi(p)


def test_image_length_is_semilength():
    for n in range(7):
        for p in enumerate_constrained(n):
            m = phi(p)
            assert isinstance(m, MotzkinPath)
            assert len(m) == n


def test_round_trip_both_ways():
    for n in range(9):
        seen = set()
        for p in enumerate_constrained(n):
            m = phi(p)
            assert str(m) not in seen
            seen.add(str(m))
            assert phi_inverse(m) == p
        assert len(seen) == motzkin_number(n)
    for length in range(11):
        for m in enumerate_motzkin(length):
            assert phi(phi_inverse(m)) == m


def _random_motzkin(length, rng):
    # uniform choice among the steps that can still return to the axis
    out, level = [], 0
    for remaining in range(length, 0, -1):
        steps = (("U" if level + 1 < remaining else "")
                 + ("D" if level else "")
                 + ("F" if level < remaining else ""))
        c = rng.choice(steps)
        level += {"U": 1, "D": -1, "F": 0}[c]
        out.append(c)
    return "".join(out)


@settings(max_examples=25, deadline=None)
@given(st.integers(2000, 3000), st.integers(0, 2 ** 32))
def test_long_motzkin_words_round_trip(length, seed):
    m = _random_motzkin(length, random.Random(seed))
    # the maps type their outputs without a scan: the constructors agree
    back = phi_inverse(m)
    assert DyckPath(back) == back
    image = phi(back)
    assert MotzkinPath(image) == image == m


def test_long_extreme_shapes_round_trip():
    for p in ("UD" * 5000, "U" * 5000 + "D" * 5000):
        assert phi_inverse(phi(p)) == p


def test_inverse_rejects_bad_input():
    with pytest.raises(NotAMotzkinPathError):
        phi_inverse("UDU")


@pytest.mark.parametrize("word", ["FX", "D", "U", "UF", "FUDD", "DU", "UDX"])
def test_inverse_raises_the_motzkin_path_error(word):
    # the core's pass validates; MotzkinPath only words the refusal
    with pytest.raises(ValueError) as expected:
        MotzkinPath(word)
    with pytest.raises(ValueError) as caught:
        phi_inverse(word)
    assert type(caught.value) is type(expected.value)
    assert str(caught.value) == str(expected.value)
    assert caught.value.position == expected.value.position


def test_inverse_reports_a_core_that_refuses_a_motzkin_path(monkeypatch):
    monkeypatch.setattr("dyckmotz.bijection._phi_inverse", lambda m: None)
    with pytest.raises(RuntimeError, match="refused the Motzkin path 'FUD'"):
        phi_inverse("FUD")


def test_inverse_round_trips_every_image_to_12_and_a_long_pyramid():
    # the maps type their outputs without a scan: the constructors agree
    assert phi_inverse("") == "" and isinstance(phi_inverse(""), DyckPath)
    images = 0
    for n in range(13):
        for p in enumerate_constrained(n):
            m = phi(p)
            back = phi_inverse(m)
            assert MotzkinPath(m) == m and DyckPath(back) == back == p
            assert type(m) is MotzkinPath and type(back) is DyckPath
            images += 1
    assert images == 24871 == sum(map(motzkin_number, range(13)))
    for p in ("U" * 5000 + "D" * 5000, "UD" * 5000):
        m = phi(p)
        back = phi_inverse(str(m))
        assert MotzkinPath(m) == m and DyckPath(back) == back == p


def test_inverse_core_gives_no_member_for_a_non_motzkin_word():
    # a stray letter, a D with no open arch, an arch left open: "FUFF"
    # would decode to "UDUD" if the end closed the arch
    for word in ("FU", "FUFF", "D", "UX", "DU", "UUD", "FFD"):
        assert _phi_inverse(word) is None, word
    for m in ("", "F", "UD", "UFD", "UUDDFUFD"):
        assert _phi_inverse(m) == phi_inverse(m)


# a block taller than its left sibling comes before each later fault at 6
MIXED_FAULTS = (
    ("UDUUDDDU", NotAMotzkinPathError, "first violation at position 6 in 'UDUUDDDU'"),
    ("UDUUDDD", NotAMotzkinPathError, "first violation at position 6 in 'UDUUDDD'"),
    ("UUDUDDU", NotAMotzkinPathError, "first violation at position 6 in 'UUDUDDU'"),
    ("UDUUDDF", NotADyckPathError, "flat step at position 6 in 'UDUUDDF'"),
    ("UDUUDDX", PathSyntaxError, "invalid step 'X' at position 6 in 'UDUUDDX'"))


def test_public_map_errors_are_unchanged():
    for apply, text, error, message in (
            (phi_inverse, "FU", NotAMotzkinPathError, "first violation at position 1 in 'FU'"),
            (phi_inverse, "FUFF", NotAMotzkinPathError, "first violation at position 3 in 'FUFF'"),
            (phi_inverse, "D", NotAMotzkinPathError, "first violation at position 0 in 'D'"),
            (phi_inverse, "UX", PathSyntaxError, "invalid step 'X' at position 1 in 'UX'"),
            (phi, "UX", PathSyntaxError, "invalid step 'X' at position 1 in 'UX'"),
            (phi, "DU", NotAMotzkinPathError, "first violation at position 0 in 'DU'"),
            (phi, "UFD", NotADyckPathError, "flat step at position 1 in 'UFD'"),
            (phi, "UDUUDD", NotConstrainedError, "not in the constrained family: 'UDUUDD'"),
            *((apply, *fault) for apply in (phi, is_constrained) for fault in MIXED_FAULTS)):
        with pytest.raises(error) as caught:
            apply(text)
        assert type(caught.value) is error, (text, caught.value)
        assert str(caught.value).endswith(message), (text, str(caught.value))
        if hasattr(caught.value, "position"):
            assert f"position {caught.value.position} in" in str(caught.value)


def test_check_bijectivity_report():
    report = check_bijectivity(8)
    assert report["ok"]
    assert report["n"] == 8
    assert report["domain"] == report["expected"] == motzkin_number(8)
    assert report["out_of_order"] == 0
    assert report["roundtrip_failures"] == 0


def _walker_adding(monkeypatch, n, extra):
    # the walker yields extra second at semilength n, a defect in the program
    real = patterns.enumerate_constrained

    def walk_with_extra(k):
        members = real(k)
        if k == n:
            yield next(members)
            yield extra
        yield from members

    monkeypatch.setattr(patterns, "enumerate_constrained", walk_with_extra)


@pytest.mark.parametrize("n, extra, message", [
    (2, "DUUD", "not a Dyck path: first violation at position 0 in 'DUUD'"),
    (3, "UDUUDD", "not in the constrained family: 'UDUUDD'")], ids=["dip", "non-member"])
def test_check_bijectivity_reports_a_walker_output_phi_refuses(monkeypatch, n, extra, message):
    _walker_adding(monkeypatch, n, extra)
    with pytest.raises(ValueError) as refusal:
        phi(extra)
    assert str(refusal.value) == message
    # the refused path is skipped: the members alone pass every other step
    assert check_bijectivity(n) == {
        "n": n, "domain": motzkin_number(n), "expected": motzkin_number(n),
        "out_of_order": 0, "roundtrip_failures": 0, "ok": False,
        "rejected_examples": [message]}
    # a passing report keeps its keys, with no rejected_examples
    assert check_bijectivity(n + 1) == {
        "n": n + 1, "domain": motzkin_number(n + 1), "expected": motzkin_number(n + 1),
        "out_of_order": 0, "roundtrip_failures": 0, "ok": True}


def test_check_bijectivity_keeps_at_most_three_refusals(monkeypatch):
    real = patterns.enumerate_constrained
    monkeypatch.setattr(patterns, "enumerate_constrained",
                        lambda k: [*real(k), *(["DU" * k] * 5)])
    report = check_bijectivity(2)
    assert not report["ok"]
    assert report["rejected_examples"] == [
        "not a Dyck path: first violation at position 0 in 'DUDU'"] * 3


def _tally(monkeypatch, n, pairs):
    """check_bijectivity(n)'s report with the walker yielding the members
    of pairs and _phi mapping each to its image there."""
    monkeypatch.setattr(patterns, "enumerate_constrained", lambda k: iter([p for p, _ in pairs]))
    monkeypatch.setattr(patterns, "_phi", dict(pairs).__getitem__)
    return check_bijectivity(n)


def test_bijectivity_tally_reports_collisions_and_broken_round_trips(monkeypatch):
    # a second member on UUDD's image
    assert _tally(monkeypatch, 2, [("UUDD", "UD"), ("UDUD", "UD")]) == {
        "n": 2, "domain": 2, "expected": 2, "out_of_order": 0,
        "roundtrip_failures": 1, "ok": False,
        "roundtrip_examples": ["UDUD"]}
    # injective and onto, but the images swapped
    assert _tally(monkeypatch, 2, [("UUDD", "FF"), ("UDUD", "UD")]) == {
        "n": 2, "domain": 2, "expected": 2, "out_of_order": 0,
        "roundtrip_failures": 2, "ok": False,
        "roundtrip_examples": ["UUDD", "UDUD"]}


def test_bijectivity_tally_rejects_an_image_that_is_no_motzkin_word(monkeypatch):
    # "FUFF" leaves an arch open and has length 4, yet its letters decode
    # to the member: only a strict inverse keeps it from round-tripping
    for image in ("FUFF", "FU", "FFX"):
        report = _tally(monkeypatch, 2, [("UUDD", "UD"), ("UDUD", image)])
        assert not report["ok"] and report["roundtrip_examples"] == ["UDUD"], image


def test_bijectivity_tally_reports_members_out_of_order(monkeypatch):
    # both round trips hold
    assert _tally(monkeypatch, 2, [("UUDD", "UD"), ("UUDD", "UD")]) == {
        "n": 2, "domain": 2, "expected": 2, "out_of_order": 1,
        "roundtrip_failures": 0, "ok": False,
        "out_of_order_examples": ["UUDD"]}


def test_bijectivity_tally_keeps_at_most_three_examples(monkeypatch):
    report = _tally(monkeypatch, 3, [("UUUDDD", "FF")] * 5)
    assert (report["out_of_order"], report["roundtrip_failures"]) == (4, 5)
    assert report["out_of_order_examples"] == report["roundtrip_examples"] == ["UUUDDD"] * 3


def test_bijectivity_tally_holds_no_image_set(monkeypatch):
    # the pass holds one chunk of pairs at a time, so a small chunk shows
    # that nothing grows with the semilength
    monkeypatch.setattr(patterns, "_CHUNK", 16)
    tracemalloc.start()
    try:
        report = check_bijectivity(10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report["ok"]
    assert peak < 32 << 10  # bytes; the 2,188 images of n = 10 as a set take more
