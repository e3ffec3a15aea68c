"""Exact truncated formal power series in x, with polynomial coefficients
in y, over the rationals.

A series keeps every x-degree up to trunc_x; each x-degree holds a dense
y-polynomial with int or Fraction entries, always in lowest terms. There
is no floating point anywhere in this module. Mixed-truncation operands
reduce to the smaller truncation, and dividing by something with
positive x-valuation lowers the truncation by that valuation, so a lost
order is visible in the result rather than silently wrong.

Operator overloading covers +, -, *, /, ** and mixing with ints and
Fractions, so algebraic formulas can be transcribed directly. / is the
one division; its divisor's lowest x-degree slice must be one monomial
c*y^m, which a unit (m = 0) and a monomial such as x^2*y both are. Square roots
require constant term exactly 1 and solve s*s = f one x-order at a time:
s_n = (f_n - sum_{0<i<n} s_i s_{n-i}) / 2, with no series division.

The private _OnlineSeries computes a series one x-order at a time from
the same kernels; the fixed-point route builds its equations from it,
with +, -, * and ** only; a node read for the order it is computing
raises NoConvergenceError. Both rings derive from the private base
_Ring, which writes reflected +, both -'s and ** once from the four
methods a ring supplies: _lift, __add__, __neg__ and __mul__.
"""
from __future__ import annotations

from fractions import Fraction
from typing import List, Union

Scalar = Union[int, Fraction]


class NonUnitDivisorError(ZeroDivisionError):
    """Divisor lacks the invertible shape the operation requires."""


class InexactDivisionError(ArithmeticError):
    """Monomial division hit a term the divisor does not divide."""


class NonSquareConstantTermError(ValueError):
    """sqrt_unit needs constant term exactly 1."""


class NoConvergenceError(ArithmeticError):
    """A fixed-point system does not determine its solution order by order."""


def _norm(c: Scalar) -> Scalar:
    if type(c) is not int and isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


def _trim(poly: List[Scalar]) -> List[Scalar]:
    while poly and poly[-1] == 0:
        poly.pop()
    return poly


def _padd(a: List[Scalar], b: List[Scalar]) -> List[Scalar]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = _norm(out[i] + c)
    return _trim(out)


def _mac(acc: List[Scalar], pairs, w: Scalar = 1) -> List[Scalar]:
    """acc + w * sum(a * b for a, b in pairs), for y-polynomials: one
    accumulator, normalised and trimmed once."""
    total: List[Scalar] = []
    for a, b in pairs:
        if a and b:
            total.extend([0] * (len(a) + len(b) - 1 - len(total)))
            for i, ca in enumerate(a):
                if ca:
                    for k, cb in enumerate(b, i):
                        total[k] += ca * cb
    if not total:  # acc is a ring slice, already in lowest terms
        return list(acc)
    out = list(acc) + [0] * (len(total) - len(acc))
    for k, c in enumerate(total):
        out[k] += w * c
    return _trim([_norm(c) for c in out])


def _pdiv(a: List[Scalar], d: Scalar) -> List[Scalar]:
    """a / d for a nonzero d: an int that an int d divides stays an int,
    and a Fraction is built only for any other coefficient."""
    return [c // d if type(c) is int and type(d) is int and not c % d
            else _norm(Fraction(c, d)) for c in a]


def _require_exact(value, what: str) -> None:
    # bool is an int subclass, but True as a coefficient prints as True
    if type(value) is bool or not isinstance(value, (int, Fraction)):
        raise TypeError(f"{what} must be an int or a Fraction, not {value!r}")


class _Ring:
    """The operators both rings share, written once over the four methods
    a ring supplies: _lift (an int, Fraction or series operand as one of
    the ring's own series, or NotImplemented), __add__, __neg__ and
    __mul__."""
    __slots__ = ()

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __pow__(self, k: int):
        """self ** k as k - 1 products (exponents here are small)."""
        if not isinstance(k, int) or k < 0:
            raise ValueError("only nonnegative integer powers")
        result = self if k else self._lift(1)
        for _ in range(k - 1):
            result = result * self
        return result


class _OnlineSeries(_Ring):
    """A series known one x-order at a time, for solving fixed points.
    It supports +, -, * and ** only: no division.

    row(k) builds the y-polynomial of x^k once, from rows of the operands,
    and keeps it. val is a lower bound on the x-valuation, taken from the
    constant operands: a product reads rows val(a)..k-val(b) of a and the
    matching rows of b, so in x^2*M row k asks M for orders below k only.
    A TruncatedSeries or scalar operand becomes a constant node; its rows
    past its truncation read as zero (the solver's eager confirmation
    rejects a right-hand side truncated below the solve). An unknown is
    made with no order function; its solver sets one once the unknown's
    equation is built. row holds the order function aside while it runs,
    so a read of the order being computed raises NoConvergenceError.
    """
    __slots__ = ("val", "order", "rows")

    def __init__(self, val: int, order=None):
        self.val = val
        self.order = order  # k -> row k, called for k = 0, 1, 2, ... in turn
        self.rows: List[List[Scalar]] = []

    def row(self, k: int) -> List[Scalar]:
        rows, order = self.rows, self.order
        if len(rows) <= k:
            if order is None:  # held aside: this order is being computed
                raise NoConvergenceError(f"x^{len(rows)} of a series depends on itself")
            self.order = None
            try:
                while len(rows) <= k:
                    rows.append(order(len(rows)))
            finally:
                self.order = order
        return rows[k]

    @classmethod
    def _lift(cls, other):
        if isinstance(other, cls):
            return other
        if isinstance(other, (int, Fraction)):
            other = TruncatedSeries.constant(other, 0)
        elif not isinstance(other, TruncatedSeries):
            return NotImplemented
        rows = other.coeffs
        return cls(next((k for k, p in enumerate(rows) if p), len(rows)),
                   lambda k: rows[k] if k < len(rows) else [])

    def __add__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return _OnlineSeries(min(self.val, other.val),
                             lambda k: _padd(self.row(k), other.row(k)))

    def __neg__(self):
        return _OnlineSeries(self.val, lambda k: [-c for c in self.row(k)])

    def __mul__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        va, vb = self.val, other.val

        def order(k):
            if k < va + vb:
                return []
            self.row(k - vb)  # fills the rows of both factors that row k reads
            other.row(k - va)
            a, b = self.rows, other.rows
            return _mac([], ((a[i], b[k - i]) for i in range(va, k - vb + 1)))
        return _OnlineSeries(va + vb, order)

    def __rmul__(self, other):
        # a constant's short rows as the outer loop of _mac
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self


class TruncatedSeries(_Ring):
    __slots__ = ("trunc_x", "coeffs")

    def __init__(self, trunc_x: int, coeffs=None):
        if trunc_x < 0:
            raise ValueError("truncation order must be nonnegative")
        self.trunc_x = trunc_x
        if coeffs is None:
            coeffs = [[] for _ in range(trunc_x + 1)]
        self.coeffs = coeffs

    # construction -----------------------------------------------------
    @classmethod
    def zero(cls, trunc_x: int) -> "TruncatedSeries":
        return cls(trunc_x)

    @classmethod
    def constant(cls, value: Scalar, trunc_x: int) -> "TruncatedSeries":
        _require_exact(value, "constant")
        s = cls(trunc_x)
        if value != 0:
            s.coeffs[0] = [_norm(value)]
        return s

    @classmethod
    def one(cls, trunc_x: int) -> "TruncatedSeries":
        return cls.constant(1, trunc_x)

    @classmethod
    def x_var(cls, trunc_x: int) -> "TruncatedSeries":
        s = cls(trunc_x)
        if trunc_x >= 1:
            s.coeffs[1] = [1]
        return s

    @classmethod
    def y_var(cls, trunc_x: int) -> "TruncatedSeries":
        s = cls(trunc_x)
        s.coeffs[0] = [0, 1]
        return s

    def _lift(self, other) -> "TruncatedSeries":
        if isinstance(other, TruncatedSeries):
            return other
        if isinstance(other, (int, Fraction)):
            return TruncatedSeries.constant(other, self.trunc_x)
        return NotImplemented  # type: ignore[return-value]

    # inspection -------------------------------------------------------
    def coefficient(self, n: int, k: int = 0) -> Scalar:
        """Exact coefficient of x^n y^k."""
        poly = self.y_poly(n)
        return poly[k] if 0 <= k < len(poly) else 0

    def y_poly(self, n: int) -> List[Scalar]:
        if not 0 <= n <= self.trunc_x:
            raise ValueError(f"x-degree {n} outside 0..{self.trunc_x}")
        return list(self.coeffs[n])

    def truncate(self, trunc_x: int) -> "TruncatedSeries":
        """Copy restricted to a lower (or equal) truncation order."""
        if trunc_x > self.trunc_x:
            raise ValueError(
                f"cannot extend truncation {self.trunc_x} to {trunc_x}")
        return TruncatedSeries(trunc_x, [list(p) for p in self.coeffs[:trunc_x + 1]])

    def __eq__(self, other) -> bool:
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return self.trunc_x == other.trunc_x and self.coeffs == other.coeffs

    def dump(self) -> str:
        """One line per x-degree: `n: c0 c1 c2` with rationals as p/q."""
        return "\n".join(f"{n}: {' '.join(map(str, poly)) if poly else '0'}"
                         for n, poly in enumerate(self.coeffs))

    def __repr__(self):
        return f"TruncatedSeries(trunc_x={self.trunc_x})"

    # ring operations ----------------------------------------------------
    def __add__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        n = min(self.trunc_x, other.trunc_x)
        return TruncatedSeries(
            n, [_padd(self.coeffs[i], other.coeffs[i]) for i in range(n + 1)])

    def __neg__(self):
        return TruncatedSeries(self.trunc_x, [[-c for c in p] for p in self.coeffs])

    def __mul__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        n = min(self.trunc_x, other.trunc_x)
        a = [(i, p) for i, p in enumerate(self.coeffs[:n + 1]) if p]  # often sparse
        b = other.coeffs
        return TruncatedSeries(n, [_mac([], ((p, b[k - i]) for i, p in a if i <= k))
                                   for k in range(n + 1)])

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return _div(self, other)

    def __rtruediv__(self, other):
        lifted = self._lift(other)
        if lifted is NotImplemented:
            return NotImplemented
        return _div(lifted, self)

    # calculus and substitution ----------------------------------------
    def d_dy(self) -> "TruncatedSeries":
        return TruncatedSeries(self.trunc_x, [
            _trim([_norm(k * c) for k, c in enumerate(poly)][1:]) for poly in self.coeffs])

    def eval_y(self, value: Scalar) -> "TruncatedSeries":
        _require_exact(value, "y")
        out = []
        for poly in self.coeffs:
            acc: Scalar = 0
            for c in reversed(poly):
                acc = _norm(acc * value + c)
            out.append([acc] if acc != 0 else [])
        return TruncatedSeries(self.trunc_x, out)

    # square root ------------------------------------------------------
    def sqrt_unit(self) -> "TruncatedSeries":
        """Square root, one x-order at a time: s_0 = 1 and
        2 s_n = f_n - sum_{0<i<n} s_i s_{n-i}. Needs constant term 1."""
        if self.coeffs[0] != [1]:
            raise NonSquareConstantTermError(
                "square root requires constant term exactly 1")
        s = [[1]]
        for n in range(1, self.trunc_x + 1):
            # terms i and n - i at once, then the middle term of an even n
            acc = _mac(self.coeffs[n],
                       ((s[i], s[n - i]) for i in range(1, (n + 1) // 2)), -2)
            if n % 2 == 0:
                acc = _mac(acc, [(s[n // 2], s[n // 2])], -1)
            s.append(_pdiv(acc, 2))
        return TruncatedSeries(self.trunc_x, s)


def _div(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Quotient a/b where b's lowest x-slice is a monomial c*y^m.

    The truncation drops by b's x-valuation. Exactness of every y-shift
    is enforced; anything the divisor cannot divide raises.
    """
    val = next((n for n in range(b.trunc_x + 1) if b.coeffs[n]), None)
    if val is None:
        raise NonUnitDivisorError("division by the zero series")
    lead = b.coeffs[val]
    m = next(k for k, c in enumerate(lead) if c)
    if len(lead) != m + 1:
        raise NonUnitDivisorError(
            "divisor's lowest x-slice must be a single y-monomial")
    for n in range(min(val, a.trunc_x + 1)):
        if a.coeffs[n]:
            raise InexactDivisionError(
                f"numerator has x-degree {n} below divisor valuation {val}")
    n_out = min(a.trunc_x, b.trunc_x) - val
    if n_out < 0:
        raise InexactDivisionError("divisor valuation exceeds truncation")
    den = b.coeffs[val:val + n_out + 1]
    c = lead[m]
    quot: List[List[Scalar]] = []
    for n in range(n_out + 1):
        acc = _mac(a.coeffs[n + val],
                   ((den[i], quot[n - i]) for i in range(1, min(n + 1, len(den)))), -1)
        if any(acc[:m]):
            k = next(k for k, cc in enumerate(acc[:m]) if cc)
            raise InexactDivisionError(
                f"term x^{n} y^{k} not divisible by divisor lead y^{m}")
        quot.append(_pdiv(acc[m:], c))
    return TruncatedSeries(n_out, quot)
