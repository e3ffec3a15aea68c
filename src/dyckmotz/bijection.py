"""Structure-preserving map from the constrained Dyck family onto Motzkin
paths, with its inverse, family membership and an exhaustive
bijectivity checker.

The forward map phi sends a constrained path of semilength n to a
Motzkin path of length n by recursion on the arch closed by the final
down step:

    phi(empty)                 = empty
    phi(alpha UD)              = phi(alpha) F
    phi(alpha U UbetaD gamma D) = phi(alpha) phi(gamma) U phi(beta) D

Unfolded, phi maps the top-level blocks one by one: a block UD becomes
F, and a block U UbetaD gamma D becomes phi(gamma) U phi(beta) D. Both
directions are single left-to-right stack passes, so path length is
limited only by memory. The forward pass keeps one frame per open block
and hands each closed block's image to its parent's frame; it checks
membership as it goes, stopping at the first block taller than its
closed left sibling, so is_constrained is phi's pass. The inverse
reads a Motzkin word as top-level atoms, each F or an arch U Y D, and
weighs each atom by the height of the block it closes: 1 for F, 2 plus
the largest weight among Y's atoms for an arch. Block heights never
increase along a level, while the atoms of gamma are all lower than the
arch after them, so each atom closes one block and takes as its gamma
the longest run of lower atoms just before it.

Each public map validates its path once, in the pass that maps it. phi
and is_constrained count the letters first (only U and D, as many of
each), and then _phi's pass finds a dip as a D with no open block. The
inverse's strict core _phi_inverse gives no member for a word that is
not a Motzkin word. The validating constructors run only on a refusal,
to word it. The outputs are valid by construction and typed without a
second scan: _phi writes F or phi(gamma) U phi(beta) D per block, a
Motzkin word of half the path's length, and _phi_inverse writes UD per
F and UU...D...D per arch, a Dyck word of twice the word's length. The
family pass calls the cores on plain texts and leaves each image's
validation to the round trip (see _bijectivity_report).
"""
from __future__ import annotations

from typing import Optional, Union

from .enumeration import motzkin_number
from .paths import DyckPath, MotzkinPath


class NotConstrainedError(ValueError):
    """phi was applied to a Dyck path outside the constrained family."""


def phi(p: Union[str, DyckPath]) -> MotzkinPath:
    """Image of a constrained Dyck path, validated in phi's own pass.
    Raises NotConstrainedError when the precondition fails; the map is
    only bijective on the family."""
    return str.__new__(MotzkinPath, _member_image(p))


def _member_image(p: Union[str, DyckPath]) -> str:
    """_phi on p's text, which this call validates as a Dyck path: only
    U and D, as many of each, and no D that closes no block (a pop from
    _phi's empty stack). A refusal is worded by DyckPath, whose fault
    wins over a NotConstrainedError found before it."""
    t, refusal = str(p), None
    if len(t) == 2 * t.count("U") == 2 * t.count("D"):
        try:
            return _phi(t)
        except IndexError:  # a dip below the axis
            pass
        except NotConstrainedError as exc:
            refusal = exc
    DyckPath(t)  # raises the error that names a fault of the Dyck path
    raise refusal or RuntimeError(f"_phi refused the Dyck path {t!r}")


def _phi(p: str) -> str:
    """phi on the text of a Dyck path, with no path validation; a
    non-member still raises NotConstrainedError. It writes F or
    phi(gamma) U phi(beta) D per block, one letter per U/D pair, so the
    image of a Dyck path is a Motzkin word of half its length."""
    # the open block's frame: the heights of its first and latest inner
    # blocks, the first one's image and content image, the later images
    # joined; the frames of the enclosing blocks wait on the stack
    first_h = last_h = 0
    first = content = later = ""
    stack = []
    for c in p:
        if c == "U":
            stack.append((first_h, last_h, first, content, later))
            first_h = last_h = 0
            first = content = later = ""
            continue
        if first_h:  # the block is U UbetaD gamma D, with phi(beta) = content
            image, content = later + "U" + content + "D", first + later
        else:  # the block is UD, and its content image is empty
            image = "F"
        h = first_h + 1
        first_h, last_h, first, parent_content, later = stack.pop()
        if not first_h:  # the parent's first inner block: keep its content image
            first_h, first = h, image
        elif h > last_h:
            raise NotConstrainedError(f"not in the constrained family: {str(p)!r}")
        else:
            later += image
            content = parent_content
        last_h = h
    return first + later


def is_constrained(p: Union[str, DyckPath]) -> bool:
    """Membership in the constrained family, by phi's own pass. Input that
    is not a Dyck path raises the DyckPath validation error."""
    try:
        _member_image(p)
    except NotConstrainedError:
        return False
    return True


def phi_inverse(m: Union[str, MotzkinPath]) -> DyckPath:
    """The unique family member mapping to m under phi, validated by the
    strict core's pass and, as that core writes only Dyck words, not
    scanned again."""
    back = _phi_inverse(str(m))
    if back is None:
        MotzkinPath(m)  # raises the error that names the fault
        raise RuntimeError(f"_phi_inverse refused the Motzkin path {str(m)!r}")
    return str.__new__(DyckPath, back)


def _phi_inverse(m: str) -> Optional[str]:
    """phi_inverse on a text, unvalidated but strict: None unless m is a
    Motzkin word. It writes UD per F and UU...D...D per arch, two letters
    per letter read, so a member it gives is a Dyck word of twice m's
    length."""
    # the open arch's level as parallel lists of decoded block heights and
    # texts; heights never increase along a level
    heights, texts, stack = [], [], []
    for c in m:
        if c == "U":
            stack.append((heights, texts))
            heights, texts = [], []
        elif c == "F":
            heights.append(1)
            texts.append("UD")
        elif c != "D" or not stack:
            return None
        else:
            h = 2 + (heights[0] if heights else 0)
            arch = "".join(["UU", *texts, "D"])  # U U beta D, then gamma D
            heights, texts = stack.pop()
            k = len(heights)
            while k and heights[k - 1] < h:
                k -= 1
            if k < len(heights):  # the lower atoms just before the arch are its gamma
                arch += "".join(texts[k:])
                del texts[k:], heights[k:]
            texts.append(arch + "D")
            heights.append(h)
    return None if stack else "".join(texts)


def _refusal(p: str) -> str:
    """The error phi gives a walker output that _phi refuses, worded."""
    try:
        _member_image(p)
    except ValueError as exc:
        return str(exc)


def check_bijectivity(n: int) -> dict:
    """Exhaustively verify that phi is a bijection at semilength n on its
    family reduction (see _bijectivity_report). Failures are report
    contents, not raises: a walker output that phi refuses fails the
    report, with phi's first three refusals under rejected_examples."""
    from .patterns import family_reductions  # patterns imports this module
    ((_, reduction),) = family_reductions([n])  # raises on a negative n
    return _bijectivity_report(n, reduction)


def _bijectivity_report(n: int, reduction: dict) -> dict:
    """check_bijectivity's report for semilength n from its reduction,
    whose images _phi made unvalidated: counts, and the first three
    members of each kind of failure. The proof needs no image set:

    - Distinct members: the pairs come in the walker's order, strictly
      increasing with U < D (see enumeration), which on words of one
      length is strictly decreasing str order, as 'D' < 'U'. So each
      member below the one before it is the whole check; a change in the
      walker's order would give a false alarm, never a false proof.
    - Injective, into Motzkin words of length n: _phi_inverse gives a
      member only for a Motzkin word (None for a stray letter, a D with
      no open arch or an arch left open), and it writes two letters per
      letter read (F is UD, an arch's U...D is UU...D...D). So a round
      trip _phi_inverse(m) == p proves m a Motzkin word of length n, the
      image's only validation, and makes phi injective on the members.
    - Onto: domain == M_n distinct images of length n are all of them.
    An image set would catch nothing more: two members on one image break
    the later one's round trip, and a repeated member breaks the order.
    """
    domain, expected = sum(reduction["counts"].values()), motzkin_number(n)
    order, roundtrip, refused = (reduction[key] for key in ("order", "roundtrip", "refused"))
    report = {"n": n, "domain": domain, "expected": expected, "out_of_order": len(order),
              "roundtrip_failures": len(roundtrip),
              "ok": not (order or roundtrip or refused) and domain == expected}
    report.update((key, [p for _, p in found[:3]]) for key, found in (
        ("out_of_order_examples", order), ("roundtrip_examples", roundtrip)) if found)
    if refused:
        report["rejected_examples"] = [_refusal(p) for _, p in refused[:3]]
    return report
