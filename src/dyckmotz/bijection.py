"""Structure-preserving map from the constrained Dyck family onto Motzkin
paths, with its inverse and an exhaustive bijectivity checker.

The forward map phi sends a constrained path of semilength n to a
Motzkin path of length n by recursion on the arch closed by the final
down step:

    phi(empty)                 = empty
    phi(alpha UD)              = phi(alpha) F
    phi(alpha U UbetaD gamma D) = phi(alpha) phi(gamma) U phi(beta) D

Unfolded, phi maps the top-level blocks one by one: a block UD becomes
F, and a block U UbetaD gamma D becomes phi(gamma) U phi(beta) D. Both
directions are single stack passes, so path length is limited only by
memory. The inverse reads a Motzkin word as top-level atoms, each F or
an arch U Y D, and weighs each atom by the height of the block it closes:
1 for F, 2 plus the largest weight among Y's atoms for an arch. Block
heights never increase along a level, while the atoms of gamma are all
lower than the arch after them, so each atom closes one block and takes
as its gamma the longest run of lower atoms just before it.
"""
from __future__ import annotations

from typing import Union

from .enumeration import enumerate_constrained, motzkin_number
from .paths import DyckPath, MotzkinPath, constrained_matching


class NotConstrainedError(ValueError):
    """phi was applied to a Dyck path outside the constrained family."""


def phi(p: Union[str, DyckPath]) -> MotzkinPath:
    """Image of a constrained Dyck path. Raises NotConstrainedError when
    the precondition fails; the map is only bijective on the family."""
    p = p if isinstance(p, DyckPath) else DyckPath(p)
    match = constrained_matching(p)
    if match is None:
        raise NotConstrainedError(f"not in the constrained family: {str(p)!r}")
    out = []
    # popped in output order: a range [a, b) of whole blocks, or a step
    work = [(0, len(p))]
    while work:
        item = work.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        a, b = item
        if a == b:
            continue
        e = match[a]
        if e == a + 1:
            work += [(e + 1, b), "F"]
        else:
            # the block is U UbetaD gamma D with UbetaD = p[a+1..j]
            j = match[a + 1]
            work += [(e + 1, b), "D", (a + 2, j), "U", (j + 1, e)]
    return MotzkinPath("".join(out))


def phi_inverse(m: Union[str, MotzkinPath]) -> DyckPath:
    """The unique family member mapping to m under phi."""
    m = m if isinstance(m, MotzkinPath) else MotzkinPath(m)
    return DyckPath(_phi_inverse(str(m)))


def _phi_inverse(m: str) -> str:
    """phi_inverse on the text of a Motzkin path, unchecked."""
    # per open arch, the blocks decoded on its level as (height, text);
    # heights never increase along a level
    levels = [[]]
    for c in m:
        if c == "U":
            levels.append([])
        elif c == "F":
            levels[-1].append((1, "UD"))
        else:
            inner = levels.pop()
            h = 2 + (inner[0][0] if inner else 0)
            blocks = levels[-1]
            k = len(blocks)
            while k and blocks[k - 1][0] < h:
                k -= 1
            beta = "".join(text for _, text in inner)
            gamma = "".join(text for _, text in blocks[k:])
            blocks[k:] = [(h, "UU" + beta + "D" + gamma + "D")]
    return "".join(text for _, text in levels[0])


def check_bijectivity(n: int) -> dict:
    """Exhaustively verify that phi is a bijection at semilength n.

    Walks the whole family, checking injectivity, image size against the
    Motzkin count, and the round trip phi_inverse(phi(p)) == p on the
    texts. Failures are report contents, not raises.
    """
    if n < 0:
        raise ValueError("semilength must be nonnegative")
    tally = _BijectivityTally(n)
    for p in enumerate_constrained(n):
        tally.add(str(p), str(phi(p)))
    return tally.report()


class _BijectivityTally:
    """check_bijectivity's report for semilength n, tallied one (member,
    image) pair of the family at a time as plain texts, the image already
    computed by phi. Of the pairs it keeps only the image set and the
    failures."""

    def __init__(self, n: int):
        self.n, self.domain, self.images = n, 0, {}  # image -> first member
        self.collisions, self.roundtrip_failures = [], []

    def add(self, p: str, m: str) -> None:
        self.domain += 1
        prev = self.images.setdefault(m, p)
        if prev != p:
            self.collisions.append((prev, p, m))
        if _phi_inverse(m) != p:
            self.roundtrip_failures.append(p)

    def report(self) -> dict:
        expected, image = motzkin_number(self.n), len(self.images)
        collisions, roundtrip_failures = self.collisions, self.roundtrip_failures
        report = {
            "n": self.n,
            "domain": self.domain,
            "image": image,
            "collisions": len(collisions),
            "missing": expected - image,
            "roundtrip_failures": len(roundtrip_failures),
            "ok": (not collisions and not roundtrip_failures
                   and image == expected and self.domain == expected),
        }
        if collisions:
            report["collision_examples"] = collisions[:3]
        if roundtrip_failures:
            report["roundtrip_examples"] = roundtrip_failures[:3]
        return report
