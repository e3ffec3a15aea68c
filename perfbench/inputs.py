"""Seeded inputs and independent references for the benchmark.

Nothing here imports dyckmotz: the path generator, the Motzkin numbers
and the reference bijection are written from the definitions, so the
correctness gate does not trust the code it measures.
"""
from __future__ import annotations

import math
import random

# The stream: semilengths log-uniform in [MIN_N, MAX_N], and one path in
# EXTREME_EVERY is an extreme shape (staircase (UD)^n or pyramid U^n D^n).
# These bounds keep today's known defects in the stream: phi recurses once
# per nesting level and once per staircase step, and phi_inverse refuses
# lengths above 14.
MIN_N = 4
MAX_N = 1200
EXTREME_EVERY = 10


def random_dyck(n: int, rng: random.Random) -> str:
    """Uniform random Dyck path of semilength n, by the cycle lemma.

    Of the 2n+1 rotations of a shuffled word with n up steps and n+1
    down steps, exactly one starts after the first minimum of its prefix
    sums; that rotation is a Dyck path followed by one extra down step.
    """
    steps = ["U"] * n + ["D"] * (n + 1)
    rng.shuffle(steps)
    low, cut, level = 0, 0, 0
    for i, c in enumerate(steps):
        level += 1 if c == "U" else -1
        if level < low:
            low, cut = level, i + 1
    word = steps[cut:] + steps[:cut]
    return "".join(word[:-1])


def sort_blocks(p: str) -> str:
    """Reorder the blocks under every node by height, tallest first.

    Sorting is stable and leaves each block's own height unchanged, so
    block heights never increase along a level: the result belongs to
    the constrained family and has the same semilength. Iterative, so
    path length is not limited by the recursion limit.
    """
    # each open frame: list of (height, text) for the blocks closed inside
    stack = [[]]
    for c in p:
        if c == "U":
            stack.append([])
        else:
            children = stack.pop()
            children.sort(key=lambda b: -b[0])
            inner = "".join(text for _, text in children)
            h = 1 + max((b[0] for b in children), default=0)
            stack[-1].append((h, "U" + inner + "D"))
    top = stack[0]
    top.sort(key=lambda b: -b[0])
    return "".join(text for _, text in top)


def family_member(n: int, rng: random.Random) -> str:
    return sort_blocks(random_dyck(n, rng))


def path_stream(seed: int, count: int) -> list:
    """`count` family members, the same for the same seed.

    Sizes are stratified: path i draws its semilength from the i-th of
    `count` equal slices of the log-uniform range, so every seed covers
    the whole range, small sizes included. Extreme shapes take every
    EXTREME_EVERY-th slice from a seeded offset, alternating staircase
    and pyramid. The stream is then shuffled, so long paths do not all
    meet a cache warmed by their shorter neighbours.
    """
    rng = random.Random(seed)
    lo, hi = math.log(MIN_N), math.log(MAX_N + 1)
    offset = rng.randrange(EXTREME_EVERY)
    out = []
    for i in range(count):
        u = (i + rng.random()) / count
        n = min(MAX_N, int(math.exp(lo + u * (hi - lo))))
        if i % EXTREME_EVERY == offset:
            stair = (i // EXTREME_EVERY) % 2 == 0
            out.append("UD" * n if stair else "U" * n + "D" * n)
        else:
            out.append(family_member(n, rng))
    rng.shuffle(out)
    return out


def motzkin_numbers(count: int) -> list:
    """M_0 .. M_{count-1} from M_n = M_{n-1} + sum_k M_k M_{n-2-k}."""
    m = [1, 1][:count]
    while len(m) < count:
        n = len(m)
        m.append(m[n - 1] + sum(m[k] * m[n - 2 - k] for k in range(n - 1)))
    return m


def is_motzkin_word(m: str, length: int) -> bool:
    if len(m) != length:
        return False
    level = 0
    for c in m:
        if c not in "UDF":
            return False
        level += {"U": 1, "D": -1, "F": 0}[c]
        if level < 0:
            return False
    return level == 0


def reference_phi(p: str) -> str:
    """The bijection straight from its definition, without recursion:

        phi(empty)                  = empty
        phi(alpha UD)               = phi(alpha) F
        phi(alpha U UbetaD gamma D) = phi(alpha) phi(gamma) U phi(beta) D

    Sub-paths are index ranges; a work stack holds ranges still to map
    and literal letters, popped in output order.
    """
    match = [0] * len(p)
    opened = []
    for i, c in enumerate(p):
        if c == "U":
            opened.append(i)
        else:
            j = opened.pop()
            match[i], match[j] = j, i
    out = []
    work = [(0, len(p))]
    while work:
        item = work.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        a, b = item
        if a == b:
            continue
        i = match[b - 1]
        if i == b - 2:
            work += ["F", (a, i)]
            continue
        j = match[i + 1]
        # alpha = [a, i), beta = [i + 2, j), gamma = [j + 1, b - 1)
        work += ["D", (i + 2, j), "U", (j + 1, b - 1), (a, i)]
    return "".join(out)
