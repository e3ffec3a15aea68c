import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyckmotz import (
    DyckPath,
    LatticePath,
    MotzkinPath,
    NotADyckPathError,
    NotAMotzkinPathError,
    PathSyntaxError,
    check_bijectivity,
    check_transport,
    count_constrained_by_height,
    enumerate_constrained,
    enumerate_dyck,
    enumerate_motzkin,
    height,
    is_constrained,
    run_full_verification,
    verifier,
)

# every public entry point that takes a size, by the name its errors give the size
SIZED = {
    "enumerate_motzkin": ("length", enumerate_motzkin),
    "enumerate_dyck": ("semilength", enumerate_dyck),
    "enumerate_constrained": ("semilength", enumerate_constrained),
    "count_constrained_by_height-n": ("arguments", lambda n: count_constrained_by_height(n, 1)),
    "count_constrained_by_height-h": ("arguments", lambda h: count_constrained_by_height(1, h)),
    "check_bijectivity": ("semilength", check_bijectivity),
    "check_transport-UD": ("semilength", lambda n: check_transport("UD", n)),
    "check_transport-DUU": ("semilength", lambda n: check_transport("DUU", n)),
    "run_full_verification": ("max_n", run_full_verification),
}


def test_lattice_path_accepts_step_letters_only():
    p = LatticePath("UFDUD")
    assert str(p) == "UFDUD"
    assert LatticePath("") == ""
    with pytest.raises(PathSyntaxError) as exc:
        LatticePath("UXD")
    assert exc.value.position == 1


def test_heights_are_prefix_sums():
    assert LatticePath("UUFDD").heights() == [1, 2, 2, 1, 0]
    assert LatticePath("").heights() == []


def test_motzkin_path_validation():
    assert MotzkinPath("UFDFF") == "UFDFF"
    assert MotzkinPath("") == ""
    with pytest.raises(NotAMotzkinPathError) as exc:
        MotzkinPath("UDD")
    assert exc.value.position == 2
    with pytest.raises(NotAMotzkinPathError):
        MotzkinPath("UUD")  # ends above the axis


def test_dyck_path_validation():
    p = DyckPath("UUDD")
    assert p.semilength == 2
    assert DyckPath("").semilength == 0
    with pytest.raises(NotADyckPathError):
        DyckPath("UFD")
    with pytest.raises(NotAMotzkinPathError):
        DyckPath("DU")


def test_height():
    assert height("") == 0
    assert height("UDUD") == 1
    assert height("UUDUDD") == 2
    assert height(DyckPath("UUUDDD")) == 3
    with pytest.raises(PathSyntaxError) as exc:
        height("UXD")
    assert exc.value.position == 1


def test_is_constrained():
    # first block must rise at least as high as everything after it
    assert is_constrained("")
    assert is_constrained("UD")
    assert is_constrained("UUDDUD")
    assert is_constrained("UDUDUD")
    assert not is_constrained("UDUUDD")
    assert not is_constrained("UUDDUUUDDD")
    # the condition applies inside blocks too
    assert not is_constrained("UUDUUDDD")
    assert is_constrained("UUUDDDUUDD")
    assert is_constrained("U" * 3000 + "D" * 3000)
    # input is validated as a Dyck path, naming the first bad position
    with pytest.raises(NotAMotzkinPathError) as exc:
        is_constrained("DU")
    assert exc.value.position == 0
    with pytest.raises(PathSyntaxError) as exc:
        is_constrained("UXD")
    assert exc.value.position == 1


_STEP = {"U": 1, "D": -1, "F": 0}


def _reference(word):
    """What each path check must give on word, from a plain scan of one
    character at a time: {check: value, or (exception class, position)}."""
    heights, h, dip = [], 0, None
    for i, c in enumerate(word):
        if c not in _STEP:
            bad = (PathSyntaxError, i)
            return dict.fromkeys(("lattice", "heights", "height", "motzkin",
                                  "dyck", "constrained"), bad)
        h += _STEP[c]
        heights.append(h)
        if h < 0 and dip is None:
            dip = i
    out = {"lattice": word, "heights": heights, "height": _top(word)}
    if dip is not None or h != 0:
        out["motzkin"] = (NotAMotzkinPathError,
                          dip if dip is not None else len(word) - 1)
        out["dyck"] = out["constrained"] = out["motzkin"]
        return out
    out["motzkin"] = word
    if "F" in word:
        out["dyck"] = out["constrained"] = (NotADyckPathError, None)
        return out
    out["dyck"] = word
    out["constrained"] = _reference_constrained(word)
    return out


def _top(word):
    top = h = 0
    for c in word:
        h += _STEP[c]
        top = max(top, h)
    return top


def _reference_constrained(word):
    # U alpha D beta at the first return, h(U alpha D) >= h(beta), recursively
    if not word:
        return True
    h = 0
    for i, c in enumerate(word):
        h += _STEP[c]
        if h == 0:
            break
    beta = word[i + 1:]
    return (_top(word[:i + 1]) >= _top(beta) and _reference_constrained(word[1:i])
            and _reference_constrained(beta))


def _outcome(check, word):
    try:
        value = check(word)
    except (PathSyntaxError, NotAMotzkinPathError, NotADyckPathError) as exc:
        return type(exc), getattr(exc, "position", None)
    return str(value) if isinstance(value, str) else value


@settings(max_examples=400, deadline=None)
@given(st.text("UDFX", max_size=12) | st.text("UD", max_size=12))
def test_path_checks_match_a_per_character_scan(word):
    checks = {"lattice": LatticePath,
              "heights": lambda w: LatticePath(w).heights(),
              "height": height,
              "motzkin": MotzkinPath,
              "dyck": DyckPath,
              "constrained": is_constrained}
    expected = _reference(word)
    for name, check in checks.items():
        assert _outcome(check, word) == expected[name], name


@pytest.mark.parametrize("size", [True, 2.0, -1], ids=repr)
@pytest.mark.parametrize("entry", SIZED)
def test_every_entry_point_checks_its_size_at_the_call(monkeypatch, entry, size):
    def read(*args):
        raise AssertionError("the golden tables were read before the size was checked")

    monkeypatch.setattr(verifier, "load_golden_tables", read)
    what, call = SIZED[entry]
    if type(size) is int:
        error, message = ValueError, f"^{what} must be nonnegative$"
    else:  # True is an int too, but no size
        error, message = TypeError, f"^{what} must be an int, not {re.escape(repr(size))}$"
    with pytest.raises(error, match=message):
        call(size)  # the enumerators too raise here, before any next
