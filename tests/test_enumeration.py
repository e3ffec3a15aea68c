import inspect
import os
import random
import subprocess
import sys
from itertools import count, product
from math import comb

import pytest

from dyckmotz import (
    DyckPath,
    MotzkinPath,
    catalan_number,
    count_constrained_by_height,
    enumerate_constrained,
    enumerate_dyck,
    enumerate_motzkin,
    is_constrained,
    motzkin_number,
)
from dyckmotz import enumeration
from dyckmotz.enumeration import motzkin_numbers

MOTZKIN = [1, 1, 2, 4, 9, 21, 51, 127, 323, 835, 2188, 5798, 15511, 41835, 113634]
CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862]


def _brute_motzkin(n):
    out = []
    for word in product("UDF", repeat=n):
        h = 0
        for c in word:
            h += {"U": 1, "D": -1, "F": 0}[c]
            if h < 0:
                break
        else:
            if h == 0:
                out.append("".join(word))
    return out


def test_number_helpers():
    assert [motzkin_number(n) for n in range(15)] == MOTZKIN
    assert [catalan_number(n) for n in range(10)] == CATALAN


def test_negative_sizes_raise_at_the_call():
    # the enumerators refuse before the first next, not lazily
    for enumerate_family, message in ((enumerate_motzkin, "length must be nonnegative"),
                                      (enumerate_dyck, "semilength must be nonnegative"),
                                      (enumerate_constrained, "semilength must be nonnegative")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            enumerate_family(-1)
    for n, h in ((-1, 0), (0, -1), (-1, -1)):
        with pytest.raises(ValueError, match="^arguments must be nonnegative$"):
            count_constrained_by_height(n, h)


def _motzkin_by_binomial_sum(n):
    # the independent oracle: a sum over the number of paired steps
    return sum(comb(n, 2 * k) * catalan_number(k) for k in range(n // 2 + 1))


def test_motzkin_table_equals_the_binomial_sum():
    assert motzkin_numbers(0) == [1]
    assert motzkin_numbers(300) == [_motzkin_by_binomial_sum(n) for n in range(301)]
    assert [motzkin_number(n) for n in range(301)] == motzkin_numbers(300)


def test_motzkin_enumeration_matches_brute_force():
    for n in range(9):
        got = list(enumerate_motzkin(n))
        assert len(got) == motzkin_number(n)
        assert set(map(str, got)) == set(_brute_motzkin(n))
        keys = [p.translate(str.maketrans("UDF", "012")) for p in got]
        assert keys == sorted(keys)


def test_dyck_enumeration():
    for n in range(9):
        got = list(enumerate_dyck(n))
        assert len(got) == catalan_number(n)
        assert all("F" not in p for p in got)
        keys = [p.translate(str.maketrans("UDF", "012")) for p in got]
        assert keys == sorted(keys)


def test_constrained_is_the_filtered_family():
    for n in range(9):
        direct = list(map(str, enumerate_constrained(n)))
        filtered = [str(p) for p in enumerate_dyck(n) if is_constrained(p)]
        assert direct == filtered


def test_constrained_counts_are_motzkin_numbers():
    for n in range(13):
        assert sum(1 for _ in enumerate_constrained(n)) == motzkin_number(n)


def test_constrained_lex_order_small_case():
    assert list(map(str, enumerate_constrained(3))) == [
        "UUUDDD",
        "UUDUDD",
        "UUDDUD",
        "UDUDUD",
    ]
    assert list(map(str, enumerate_constrained(0))) == [""]


def test_walked_paths_survive_the_validating_constructor():
    # the walker builds its leaves without validating them
    for n in range(9):
        for walk, kind in ((enumerate_motzkin, MotzkinPath), (enumerate_dyck, DyckPath),
                           (enumerate_constrained, DyckPath)):
            for p in walk(n):
                rebuilt = kind(str(p))
                assert type(p) is type(rebuilt) is kind
                assert str(p) == str(rebuilt)


def test_the_walker_yields_plain_text_in_every_mode():
    # the family pass and the checks read the walk as it is; only the
    # public enumerators type it
    for n in range(8):
        for total, flat, capped in ((n, True, False), (2 * n, False, False),
                                    (2 * n, False, True)):
            walked = list(enumeration._walk(total, flat, capped))
            assert walked and {type(p) for p in walked} == {str}
    # split: each claimed subtree's number, then its outputs, as text
    split = list(enumeration._walk(18, False, True, 9, count().__next__))
    assert {type(p) for p in split} == {int, str}
    assert [p for p in split if type(p) is str] == list(enumeration._walk(18, False, True))


def test_enumerators_have_no_depth_limit():
    # the first member in U < D < F order is the pyramid (plus F)
    for k in (600, 5000):
        pyramid = "U" * k + "D" * k
        assert next(enumerate_constrained(k)) == pyramid
        assert next(enumerate_dyck(k)) == pyramid
        assert next(enumerate_motzkin(2 * k + 1)) == pyramid + "F"


def test_height_refined_counts():
    from dyckmotz import height

    for n in range(11):
        by_height = {}
        for p in enumerate_constrained(n):
            h = height(p)
            by_height[h] = by_height.get(h, 0) + 1
        for h in range(n + 2):
            assert count_constrained_by_height(n, h) == by_height.get(h, 0)


def test_height_refined_row_sums_reach_motzkin():
    for n in range(15):
        assert sum(count_constrained_by_height(n, h)
                   for h in range(n + 1)) == motzkin_number(n)


def test_height_counts_follow_the_block_grammar_through_x40():
    # Y_h counts the members of height at most h by the block grammar: a
    # block of height h >= 2 is U (U beta D) gamma D, beta of height h - 2
    # and gamma of height at most h - 1, and the blocks' heights never rise,
    # so Y_h = Y_(h-1) / (1 - x^2 X_(h-2) Y_(h-1)) with X_j = Y_j - Y_(j-1)
    top = 40

    def times(a, b):
        return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(top + 1)]

    def over(a, b):  # b[0] == 1
        q = []
        for k in range(top + 1):
            q.append(a[k] - sum(b[i] * q[k - i] for i in range(1, k + 1)))
        return q

    ys = [[1] + [0] * top, [1] * (top + 1)]
    xs = [ys[0], [0] + [1] * top]
    for h in range(2, top + 1):
        block = times(xs[h - 2], ys[h - 1])
        ys.append(over(ys[h - 1], [1, 0, *(-c for c in block[:top - 1])]))
        xs.append([a - b for a, b in zip(ys[h], ys[h - 1])])
    for n in range(top + 1):
        assert [count_constrained_by_height(n, h) for h in range(top + 1)] == [
            x[n] for x in xs], n


def test_a_convergent_recursion_with_x_cubed_fails_the_height_tests(monkeypatch):
    # the mutant divides by (1 - x) q - x^3 p instead of (1 - x) q - x^2 p
    keys = [(n, h) for n in range(40) for h in range(n + 2)]
    before = {key: count_constrained_by_height(*key) for key in keys}
    source = inspect.getsource(enumeration._at_most)
    assert source.count("[0, 0, *p,") == 1
    namespace = dict(vars(enumeration))
    exec(source.replace("[0, 0, *p,", "[0, 0, 0, *p,"), namespace)
    monkeypatch.setattr(enumeration, "_at_most", namespace["_at_most"])
    # (the row sums telescope to the count at height n, which is M_n either way)
    for test in (test_height_refined_counts,
                 test_height_counts_follow_the_block_grammar_through_x40):
        with pytest.raises(AssertionError):
            test()
    # the mutant ran in a copy of the module's globals, which shares its
    # objects: the real counts must not have changed through any of them
    # (read from the top, so that a memo the mutant left is read before a
    # small h would rebuild it)
    monkeypatch.undo()
    assert {key: count_constrained_by_height(*key) for key in keys[::-1]} == before


def test_height_refined_counts_cold_and_deep():
    # a fresh interpreter, so nothing computed by another test is warm
    code = ("from dyckmotz import count_constrained_by_height as c, motzkin_number\n"
            "c(300, 5)\n"
            "assert sum(c(300, h) for h in range(301)) == motzkin_number(300)\n")
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, env={**os.environ, "PYTHONPATH": path})
    assert result.returncode == 0, result.stderr


def test_height_counts_do_not_depend_on_the_order_of_calls():
    # each count extends the last convergent of its parity, so sweep down,
    # up and at random over n and h and compare
    keys = [(n, h) for n in range(40) for h in range(n + 2)]
    upward = {key: count_constrained_by_height(*key) for key in keys}
    shuffled = random.Random(7).sample(keys, len(keys))
    for order in (keys[::-1], sorted(keys, key=lambda key: (-key[1], key[0])), shuffled):
        assert {key: count_constrained_by_height(*key) for key in order} == upward
    assert all(sum(upward[n, h] for h in range(n + 1)) == motzkin_numbers(n)[-1]
               for n in range(40))
