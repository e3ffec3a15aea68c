"""Structure-preserving map from the constrained Dyck family onto Motzkin
paths, with its inverse and family membership.

The forward map phi sends a constrained path of semilength n to a
Motzkin path of length n by recursion on the arch closed by the final
down step:

    phi(empty)                 = empty
    phi(alpha UD)              = phi(alpha) F
    phi(alpha U UbetaD gamma D) = phi(alpha) phi(gamma) U phi(beta) D

Unfolded, phi maps the top-level blocks one by one: a block UD becomes
F, and a block U UbetaD gamma D becomes phi(gamma) U phi(beta) D. Both
directions are single left-to-right stack passes, so path length is
limited only by memory. The forward pass reads each peak UD as one
block F, keeps a frame per open taller block and hands each closed
block's image to its parent's frame; it checks membership as it goes,
stopping at the first block taller than its closed left sibling, so
is_constrained is phi's pass. The inverse
reads a Motzkin word as top-level atoms, each F or an arch U Y D, and
weighs each atom by the height of the block it closes: 1 for F, 2 plus
the largest weight among Y's atoms for an arch. Block heights never
increase along a level, while the atoms of gamma are all lower than the
arch after them, so each atom closes one block and takes as its gamma
the longest run of lower atoms just before it.

Each public map validates its path once, in the pass that maps it. phi
and is_constrained count the letters first (only U and D, as many of
each), and then _phi's pass finds a dip as a D with no open block. Both
cores refuse by returning None: _phi a dip or a block taller than its
closed left sibling, _phi_inverse a word that is not a Motzkin word.
The validating constructors run only on a refusal, to word it. The
outputs are valid by construction and typed without a second scan: _phi
writes F or phi(gamma) U phi(beta) D per block, a Motzkin word of half
the path's length, and _phi_inverse writes UD per F and UU...D...D per
arch, a Dyck word of twice the word's length. The family pass
(family.family_reductions) calls the cores on plain texts and leaves
each image's validation to the round trip.
"""
from __future__ import annotations

from typing import Optional, Union

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
    U and D, as many of each, and no D that closes no block. On _phi's
    None, DyckPath names a fault of the Dyck path, which wins over a
    taller block found before it; else the path is a non-member."""
    t = str(p)
    image = _phi(t) if len(t) == 2 * t.count("U") == 2 * t.count("D") else None
    if image is None:
        DyckPath(t)  # raises the error that names a fault of the Dyck path
        raise NotConstrainedError(f"not in the constrained family: {t!r}")
    return image


def _phi(p: str) -> Optional[str]:
    """phi on a text, unvalidated but refusing: None where a D closes no
    block or a block is taller than its closed left sibling. It writes F or
    phi(gamma) U phi(beta) D per block, one letter per U/D pair, so the
    image of a Dyck path is a Motzkin word of half its length."""
    # the open block's frame: the heights of its first and latest inner
    # blocks, the first one's image and content image, the later images
    # joined; outer links the frames of the enclosing blocks, None at the top
    first_h = last_h = 0
    first = content = later = ""
    outer = None
    for c in p.replace("UD", "F"):  # each peak is a block UD, of height 1 and image F
        if c == "F":  # no frame of its own; a first block's content image stays empty
            if first_h:
                later += "F"
            else:
                first_h, first = 1, "F"
            last_h = 1
            continue
        if c == "U":
            outer = first_h, last_h, first, content, later, outer
            first_h = last_h = 0
            first = content = later = ""
            continue
        if outer is None:  # a D that closes no block: a dip below the axis
            return None
        # the block is U UbetaD gamma D, with phi(beta) = content
        image, content = later + "U" + content + "D", first + later
        h = first_h + 1
        first_h, last_h, first, parent_content, later, outer = outer
        if not first_h:  # the parent's first inner block: keep its content image
            first_h, first = h, image
        elif h > last_h:
            return None
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
    return str.__new__(DyckPath, back)


def _phi_inverse(m: str) -> Optional[str]:
    """phi_inverse on a text, unvalidated but strict: None unless m is a
    Motzkin word. It writes UD per F and UU...D...D per arch, two letters
    per letter read, so a member it gives is a Dyck word of twice m's
    length."""
    # the open arch's level as parallel lists of decoded block heights and
    # texts, heights never increasing along a level; outer links the
    # enclosing levels, None at the top
    heights, texts, outer = [], [], None
    for c in m:
        if c == "U":
            outer = heights, texts, outer
            heights, texts = [], []
        elif c == "F":
            heights.append(1)
            texts.append("UD")
        elif c != "D" or outer is None:
            return None
        else:
            h = 2 + (heights[0] if heights else 0)
            beta = "".join(texts)
            heights, texts, outer = outer
            k = len(heights)
            while k and heights[k - 1] < h:
                k -= 1
            if k < len(heights):  # the lower atoms just before the arch are its gamma
                texts[k:] = [f"UU{beta}D{''.join(texts[k:])}D"]
                heights[k:] = [h]
            else:
                texts.append(f"UU{beta}DD")
                heights.append(h)
    return "".join(texts) if outer is None else None


def _refusal(p: str) -> str:
    """The error phi gives a walker output that _phi refuses, worded."""
    try:
        _member_image(p)
    except ValueError as exc:
        return str(exc)
