"""Exhaustive generation of Motzkin paths, Dyck paths, and the constrained
family, plus count-only fast paths.

The enumerators return iterators of typed paths in strictly increasing
lexicographic step order, with U < D < F; the walker under them, _walk,
yields the plain text that the family pass and the checks read. Counts
are exact arbitrary-precision integers.

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

from functools import lru_cache, partial
from math import comb
from operator import mul, sub
from typing import Iterator

from .paths import DyckPath, MotzkinPath, _require_size

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
    """All Motzkin paths of length n, a size (see paths), lexicographically (U < D < F)."""
    _require_size(n, "length")
    return map(partial(str.__new__, MotzkinPath), _walk(n, flat=True, capped=False))


def enumerate_dyck(n: int) -> Iterator[DyckPath]:
    """All Dyck paths of semilength n, a size (see paths), lexicographically (U < D)."""
    _require_size(n, "semilength")
    return map(partial(str.__new__, DyckPath), _walk(2 * n, flat=False, capped=False))


def enumerate_constrained(n: int) -> Iterator[DyckPath]:
    """The constrained family's members of semilength n, a size (see paths), lexicographically."""
    _require_size(n, "semilength")
    return map(partial(str.__new__, DyckPath), _walk(2 * n, flat=False, capped=True))


def _walk(total: int, flat: bool, capped: bool,
          depth: int = -1, claim=None) -> Iterator[str]:
    """Every path of total steps as plain text, depth first in U < D < F
    order, with F steps only when flat and under the family's ceiling rule
    when capped; valid by construction, the enumerators type it unscanned.

    A pending node (i, step, level, ceiling, blocks) places step as step
    i and carries the state after it. The ceiling is the lowest level no
    open block may exceed, given the heights of closed left siblings.
    blocks is an immutable chain of the open blocks, innermost first:
    (max level seen inside, height of the last inner block closed,
    ceiling in force before it opened, enclosing block), ending in a
    sentinel for the top level. The level equals the number of open
    blocks, so every D closes the innermost one, of height top - level + 1.
    Once i + level == total the path's only completion is level D steps.
    A split (depth <= total // 2) numbers the nodes at that depth in walk
    order and descends only below those whose number k claim() hands out
    (in increasing order, once the last is passed), yielding k first.
    """
    steps = [""] * (total + 1)  # steps[0] stays empty: the root's slot
    todo = [(0, "", 0, _NO_CAP, (0, _NO_CAP, _NO_CAP, None))]
    k = held = -1
    while todo:
        i, step, level, ceiling, blocks = todo.pop()
        steps[i] = step
        if i == depth:
            k += 1
            if k > held:
                held = claim()
            if k != held:
                continue
            yield k
        if i + level == total:
            yield "".join(steps[:i + 1]) + "D" * level
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
    """Number of family members of semilength n with height exactly h, both sizes (see paths).

    phi halves the height: it maps the members of height at most h onto
    the Motzkin paths of height at most h // 2 with F steps on the top
    level only when h is odd, counted by the convergent Y_h of the Motzkin
    continued fraction (Flajolet 1980): Y_0 = 1, Y_1 = 1/(1 - x) and
    Y_h = 1/(1 - x - x^2 Y_(h-2)). The count is [x^n](Y_h - Y_(h-1)).
    """
    for size in (n, h):
        _require_size(size, "arguments")
    if h > n:
        return 0
    return -(_at_most(n, h - 1) if h else 0) + _at_most(n, h)


# parity of h -> (h, p, q) of the last convergent Y_h = p/q built; rebound, never changed
_convergents = {0: (0, [1], [1]), 1: (1, [1], [1, -1])}


@lru_cache(maxsize=2)  # a sweep over h reads each value twice, h - 1 first
def _at_most(n: int, h: int) -> int:
    """[x^n] Y_h, the members of semilength n and height at most h <= n.
    Y_h = p/q over integer coefficient lists, extended from the last Y of
    h's parity, agrees with the Motzkin series through x^h; past that,
    q(0) = 1 and deg p <= h give the recurrence y_k = -sum q_i y_(k-i)."""
    global _convergents
    k, p, q = _convergents[h % 2]
    if k > h:
        k, p, q = h % 2, [1], [1, -1][:1 + h % 2]
    for _ in range(k, h, 2):
        # 1/(1 - x - x^2 p/q) = q / ((1 - x) q - x^2 p), and len(p) <= len(q)
        p, q = q, list(map(sub, map(sub, [*q, 0, 0], [0, *q, 0]),
                           [0, 0, *p, *[0] * (len(q) - len(p))]))
        while not q[-1]:
            q.pop()
    _convergents = {**_convergents, h % 2: (h, p, q)}
    y, tail = motzkin_numbers(h), q[:0:-1]  # q_deg, ..., q_1
    for _ in range(h, n):
        y.append(-sum(map(mul, tail, y[-len(tail):])))
    return y[n]
