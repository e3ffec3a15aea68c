"""Exhaustive generation of Motzkin paths, Dyck paths, and the constrained
family, plus count-only fast paths.

All streams are restartable generators emitting paths in strictly
increasing lexicographic step order, with U < D < F. Counts are exact
arbitrary-precision integers.

The constrained family is generated without filtering the full Catalan
set. The defining grammar, unfolded along first-return blocks, says that
at every nesting level the heights of consecutive blocks are
non-increasing. That local form drives a depth-first walk over step
prefixes: a prefix dies as soon as some open block is forced to exceed
the height ceiling set by its closed left sibling, and every surviving
prefix can be completed (close all open blocks, then pad with UD pairs),
so the walk touches only viable prefixes. Memory is proportional to the
path length, never to the family size.
"""
from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import Iterator

from .paths import DyckPath, MotzkinPath

_NO_CAP = float("inf")


def catalan_number(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def motzkin_number(n: int) -> int:
    # binomial sum over the number of paired steps; exact and division-free
    return sum(comb(n, 2 * k) * catalan_number(k) for k in range(n // 2 + 1))


def enumerate_motzkin(n: int) -> Iterator[MotzkinPath]:
    """All Motzkin paths of length n, lexicographically (U < D < F)."""
    if n < 0:
        raise ValueError("length must be nonnegative")
    steps = [""] * n

    def walk(i: int, level: int) -> Iterator[MotzkinPath]:
        if i == n:
            yield MotzkinPath("".join(steps))
            return
        remaining = n - i
        if level + 1 <= remaining - 1:
            steps[i] = "U"
            yield from walk(i + 1, level + 1)
        if level >= 1:
            steps[i] = "D"
            yield from walk(i + 1, level - 1)
        if level <= remaining - 1:
            steps[i] = "F"
            yield from walk(i + 1, level)

    return walk(0, 0)


def enumerate_dyck(n: int) -> Iterator[DyckPath]:
    """All Dyck paths of semilength n, lexicographically (U < D)."""
    if n < 0:
        raise ValueError("semilength must be nonnegative")
    total = 2 * n
    steps = [""] * total

    def walk(i: int, level: int) -> Iterator[DyckPath]:
        if i == total:
            yield DyckPath("".join(steps))
            return
        remaining = total - i
        if level + 1 <= remaining - 1:
            steps[i] = "U"
            yield from walk(i + 1, level + 1)
        if level >= 1:
            steps[i] = "D"
            yield from walk(i + 1, level - 1)

    return walk(0, 0)


def enumerate_constrained(n: int) -> Iterator[DyckPath]:
    """All members of the constrained family of semilength n, lexicographically.

    One frame per open block tracks [base level, max level seen inside,
    height of the last inner block closed directly inside, ceiling in
    force before this block opened]. A sentinel frame carries the
    top-level state. The running ceiling is the lowest absolute level
    any open block may not exceed, given the heights of closed left
    siblings. The current level always equals the number of open blocks,
    so every D closes the deepest one.
    """
    if n < 0:
        raise ValueError("semilength must be nonnegative")
    total = 2 * n
    steps = [""] * total
    stack = [[-1, 0, _NO_CAP, _NO_CAP]]

    def walk(i: int, level: int, ceiling) -> Iterator[DyckPath]:
        if i == total:
            yield DyckPath("".join(steps))
            return
        remaining = total - i
        if level + 1 <= remaining - 1:
            # new block may not outgrow its closed left sibling
            cap = stack[-1][2]
            new_ceiling = min(ceiling, level + cap)
            if level + 1 <= new_ceiling:
                steps[i] = "U"
                stack.append([level, level + 1, _NO_CAP, ceiling])
                yield from walk(i + 1, level + 1, new_ceiling)
                stack.pop()
        if level >= 1:
            steps[i] = "D"
            frame = stack.pop()
            base, hmax, _inner, saved_ceiling = frame
            parent = stack[-1]
            old_inner, old_hmax = parent[2], parent[1]
            parent[2] = hmax - base
            if hmax > parent[1]:
                parent[1] = hmax
            yield from walk(i + 1, level - 1, saved_ceiling)
            parent[2], parent[1] = old_inner, old_hmax
            stack.append(frame)

    return walk(0, 0, _NO_CAP)


def count_constrained_by_height(n: int, h: int) -> int:
    """Number of family members of semilength n with height exactly h.

    Kernel of the grammar: the first block U alpha D has height exactly h
    (so alpha has height h - 1) and the tail beta has height at most h.
    Summing over h recovers the Motzkin number M_n. Filled bottom-up over
    heights 0..h; the tables of the last few semilengths asked for are
    kept and grown, so a sweep over h costs one fill.
    """
    if n < 0 or h < 0:
        raise ValueError("arguments must be nonnegative")
    if h > n:
        return 0
    table = _at_most_table(n)
    while len(table) <= h:
        _add_height(table)
    return table[h][n] - (table[h - 1][n] if h else 0)


@lru_cache(maxsize=4)
def _at_most_table(n: int) -> list:
    # table[h][k] = members of semilength k <= n with height at most h,
    # one column per height, grown on demand by _add_height
    return [[1] + [0] * n]


def _add_height(table: list) -> None:
    # column h from columns h - 1 and h - 2, bottom-up over semilength k:
    # first block of height exactly h, then a tail of height at most h
    h = len(table)
    below = table[-1]
    exact = [a - b for a, b in zip(below, table[-2])] if h > 1 else below
    col = below[:]
    for k in range(h, len(col)):
        # exact[k - 1 - b] is 0 unless k - 1 - b >= h - 1
        col[k] += sum(exact[k - 1 - b] * col[b] for b in range(k - h + 1))
    table.append(col)
