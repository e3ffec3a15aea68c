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
so the walk touches only viable prefixes. The walk is iterative: one
explicit stack of pending prefixes, shared by all three families, so it
has no depth limit. Memory is proportional to the path length, never to
the family size.
"""
from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import Iterator

from .paths import DyckPath, MotzkinPath

_NO_CAP = float("inf")


def catalan_number(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def motzkin_numbers(n: int) -> list:
    """M_0, ..., M_n from (k + 2) M_k = (2k + 1) M_(k-1) + 3(k - 1) M_(k-2)."""
    m = [1, 1][:n + 1]
    for k in range(2, n + 1):
        m.append(((2 * k + 1) * m[-1] + 3 * (k - 1) * m[-2]) // (k + 2))
    return m


def motzkin_number(n: int) -> int:
    """M_n, the last entry of motzkin_numbers(n); 0 for a negative n."""
    return motzkin_numbers(n)[-1] if n >= 0 else 0


def enumerate_motzkin(n: int) -> Iterator[MotzkinPath]:
    """All Motzkin paths of length n, lexicographically (U < D < F)."""
    if n < 0:
        raise ValueError("length must be nonnegative")
    return _walk(n, flat=True, capped=False)


def enumerate_dyck(n: int) -> Iterator[DyckPath]:
    """All Dyck paths of semilength n, lexicographically (U < D)."""
    if n < 0:
        raise ValueError("semilength must be nonnegative")
    return _walk(2 * n, flat=False, capped=False)


def enumerate_constrained(n: int) -> Iterator[DyckPath]:
    """All members of the constrained family of semilength n, lexicographically."""
    if n < 0:
        raise ValueError("semilength must be nonnegative")
    return _walk(2 * n, flat=False, capped=True)


def _walk(total: int, flat: bool, capped: bool) -> Iterator[MotzkinPath]:
    """Every path of total steps, depth first in U < D < F order, with F
    steps only when flat and under the family's ceiling rule when capped.

    A pending node (i, step, level, ceiling, blocks) places step as step
    i and carries the state after it. The ceiling is the lowest level no
    open block may exceed, given the heights of closed left siblings.
    blocks is an immutable chain of the open blocks, innermost first:
    (max level seen inside, height of the last inner block closed,
    ceiling in force before it opened, enclosing block), ending in a
    sentinel for the top level. The level equals the number of open
    blocks, so every D closes the innermost one, of height top - level + 1.
    """
    make = MotzkinPath if flat else DyckPath
    steps = [""] * (total + 1)  # steps[0] stays empty: the root's slot
    todo = [(0, "", 0, _NO_CAP, (0, _NO_CAP, _NO_CAP, None))]
    while todo:
        i, step, level, ceiling, blocks = todo.pop()
        steps[i] = step
        if i == total:
            # valid by construction, so the validating constructor is skipped
            yield str.__new__(make, "".join(steps))
            continue
        room = total - i - 1  # steps left after the next one
        # pushed in reverse order, so U is taken first
        if flat and level <= room:
            todo.append((i + 1, "F", level, ceiling, blocks))
        if level:
            top, _, saved, (ptop, _, psaved, outer) = blocks
            todo.append((i + 1, "D", level - 1, saved,
                         (max(top, ptop), top - level + 1, psaved, outer)))
        if level < room:
            # a new block may not outgrow its closed left sibling
            cap = min(ceiling, level + blocks[1]) if capped else ceiling
            if level < cap:
                todo.append((i + 1, "U", level + 1, cap,
                             (level + 1, _NO_CAP, ceiling, blocks)))


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
