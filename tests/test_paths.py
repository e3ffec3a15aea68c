import pytest

from dyckmotz import (
    DyckPath,
    EmptyPathError,
    LatticePath,
    MotzkinPath,
    NotADyckPathError,
    NotAMotzkinPathError,
    PathSyntaxError,
    first_return_decompose,
    height,
    is_constrained,
    validate_motzkin,
)


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


def test_sort_key_orders_u_before_d_before_f():
    words = ["FUD", "DU", "UD", "UF", "UU"]
    ordered = sorted(words, key=lambda w: LatticePath(w).sort_key())
    assert ordered == ["UU", "UD", "UF", "DU", "FUD"]


def test_motzkin_path_validation():
    assert MotzkinPath("UFDFF") == "UFDFF"
    assert MotzkinPath("") == ""
    with pytest.raises(NotAMotzkinPathError) as exc:
        MotzkinPath("UDD")
    assert exc.value.position == 2
    with pytest.raises(NotAMotzkinPathError):
        MotzkinPath("UUD")  # ends above the axis
    assert validate_motzkin("FUDF") == "FUDF"


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


def test_first_return_decompose():
    assert first_return_decompose("UD") == ("", "")
    assert first_return_decompose("UUDDUD") == ("UD", "UD")
    assert first_return_decompose("UDUUDD") == ("", "UUDD")
    with pytest.raises(EmptyPathError):
        first_return_decompose("")
    with pytest.raises(NotADyckPathError):
        first_return_decompose("UU")
    with pytest.raises(NotADyckPathError):
        first_return_decompose("DU")
    with pytest.raises(PathSyntaxError) as exc:
        first_return_decompose("UXD")
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
