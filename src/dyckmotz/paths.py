"""Lattice paths over the step alphabet {U, D, F}.

Paths are immutable strings of step letters: U goes up (+1), D goes down
(-1), F is flat (0). The canonical text form of a path is the bare letter
string, with the empty path written as the empty string. Step order for
all canonical path orderings is U < D < F, which is not ASCII order.
Membership in the constrained family is checked by phi's own pass
(bijection.is_constrained).

The constructors validate; code that hands out a path valid by
construction (the public enumerators, phi and phi_inverse) types it with
str.__new__(cls, text) and skips the scan, and the walker under the
enumerators yields plain text. The maps call a constructor only on a
refusal, to word the error. Every public entry point checks a size it
takes with _require_size: TypeError unless a non-bool int, ValueError if < 0.
"""
from __future__ import annotations

from itertools import accumulate
from typing import Union

U, D, F = "U", "D", "F"
STEP_HEIGHT = {U: 1, D: -1, F: 0}
_DROP_STEPS = str.maketrans("", "", "UDF")


def _require_size(n, what: str) -> None:
    if type(n) is bool or not isinstance(n, int):  # True is an int, but prints as True
        raise TypeError(f"{what} must be an int, not {n!r}")
    if n < 0:
        raise ValueError(f"{what} must be nonnegative")


class PathSyntaxError(ValueError):
    """A character outside {U, D, F} was found while parsing a path."""

    def __init__(self, text: str, position: int):
        self.position = position
        super().__init__(
            f"invalid step {text[position]!r} at position {position} in {text!r}")


class NotAMotzkinPathError(ValueError):
    """The step sequence dips below the axis or does not end on it; kind
    names the path class that refused it (Motzkin, or Dyck for a DyckPath)."""

    def __init__(self, steps: str, position: int, kind: str = "Motzkin"):
        self.position = position
        super().__init__(
            f"not a {kind} path: first violation at position {position} in {steps!r}")


class NotADyckPathError(ValueError):
    pass


class LatticePath(str):
    """A raw step sequence. No axis condition is imposed at this level."""

    def __new__(cls, steps: object = ""):
        s = str(steps)
        bad = s.translate(_DROP_STEPS)
        if bad:
            raise PathSyntaxError(s, s.index(bad[0]))
        return super().__new__(cls, s)

    def heights(self) -> list:
        """Prefix sums of step heights, one entry per step: the only height scan."""
        return list(accumulate(map(STEP_HEIGHT.__getitem__, self)))


class MotzkinPath(LatticePath):
    """A lattice path that never goes below the x-axis and ends on it."""
    _kind = "Motzkin"  # the path a refusal names

    def __new__(cls, steps: object = ""):
        p = super().__new__(cls, steps)
        hs = p.heights()
        if -1 in hs or hs and hs[-1]:  # steps move by one: a first dip is to -1
            raise NotAMotzkinPathError(str(p), hs.index(-1) if -1 in hs else len(p) - 1,
                                       cls._kind)
        return p


class DyckPath(MotzkinPath):
    """A Motzkin path with no flat steps; its semilength is length / 2."""
    _kind = "Dyck"

    def __new__(cls, steps: object = ""):
        p = super().__new__(cls, steps)
        if F in p:
            raise NotADyckPathError(f"flat step at position {p.index(F)} in {str(p)!r}")
        # even length is implied by F-freeness plus ending on the axis
        return p

    @property
    def semilength(self) -> int:
        return len(self) // 2


def height(p: Union[str, LatticePath]) -> int:
    """Maximal level reached by the path, counting the start at level 0."""
    return max([0, *LatticePath(p).heights()])

