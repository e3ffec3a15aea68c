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
require constant term exactly 1 and follow 2 f s' = f' s: order m is one
packed sum over f's nonzero rows j, 2m s_m = sum_j (3j - 2m) f_j s_{m-j}.

Products of y-polynomials are Kronecker substitutions: rows pack once to
their values at y = 2^W, big-integer products are summed, and the signed
W-bit digits of a sum are its coefficients (_Packed.fit proves W wide
enough). solve_fixed_point solves U = system(*U) through x^N in the
private _OnlineSeries, one x-order at a time, each row one int at y = 2^w
decoded only for the unknowns, and confirms it in the eager ring; a node
read for the order it is computing raises NoConvergenceError. Both rings
derive from _Ring, which writes reflected +, both -'s and ** once from
_lift, __add__, __neg__, __mul__; _lifted lifts every binary operand.

The work follows the nonzero coefficients. An eager product with a monomial
factor c*x^e*y^m (one nonzero row, holding one entry) skips the kernel: row k
is the other factor's nonzero row k - e shifted m places up and scaled by c
(_scale); an online product reads a constant factor at its nonzero rows.
_padd returns at once on an empty row. A square f * f, in both rings, sums
each pair i < j once, doubled, plus the middle term (_sym). A divisor of a
lead monomial and at most one other term is divided row by row with _scale
and _padd; a longer tail stays packed, as a scale per tail term and row
costs more than one packed sum. Every other product and quotient is packed.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import List, Union

from .paths import _require_size

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
    if not (a and b):
        return a + b
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = _norm(out[i] + c)
    return _trim(out)


def _sym(r: List[int], lo: int, hi: int, k: int) -> int:
    """sum r[i]*r[k - i] over lo <= i, k - i <= hi: each pair i < k - i once, doubled."""
    total = 2 * sum(r[i] * r[k - i] for i in range(max(lo, k - hi), (k + 1) // 2))
    return total + r[k // 2] ** 2 if k % 2 == 0 and lo <= k // 2 <= hi else total


class _Packed:
    """A series' rows for the kernel: ints[i] is row i at y = 2^width with
    each c as the integer c*den, den the lcm of the denominators seen; bits
    bounds every |c*den|, length every row's length. Appended rows are packed
    once; a new den or a new width (64 or more) repacks them."""
    __slots__ = ("rows", "ints", "seen", "width", "den", "bits", "length")

    def __init__(self, rows: List[List[Scalar]]):
        self.rows, self.ints, self.seen = rows, [], 0
        self.width, self.den, self.bits, self.length = 0, 1, 0, 0

    def fit(self, other: "_Packed", k: int, k_other: int, p: int) -> int:
        """Pack rows 0..k of self and 0..k_other of other at one width W
        that holds any sum of p products of them; return W. This bound is the
        kernel's correctness argument, as a narrower W corrupts coefficients
        silently: a coefficient of the sum adds at most p*L products, L =
        min(self.length, other.length), each below 2^(self.bits + other.bits),
        so it is below 2^(W - 1), and _unpack exact, when W >= self.bits +
        other.bits + (p*L).bit_length() + 1; a root's doubled half-sum has p terms."""
        for s, top in ((self, k), (other, k_other)):
            if top < s.seen:
                continue
            rows = s.rows[s.seen:top + 1]
            coeffs = [c for row in rows for c in row]
            if coeffs:
                den = (s.den if {int}.issuperset(map(type, coeffs)) else
                       lcm(s.den, *(c.denominator for c in coeffs)))
                if den != s.den:  # repacked below, on the new denominator
                    s.ints, s.bits, s.den = [], s.bits + (den // s.den).bit_length(), den
                s.bits = max(s.bits, (max(map(abs, coeffs)) * den).numerator.bit_length())
                s.length = max(s.length, *map(len, rows))
            s.seen = top + 1
        need = self.bits + other.bits + (p * min(self.length, other.length)).bit_length() + 1
        width = max(self.width, other.width)
        if need > width:
            width = max(64, (need + (32 if width else 0) + 7) & -8)
        for s in (self, other):
            if width != s.width:
                s.width, s.ints = width, []
            for row in s.rows[len(s.ints):s.seen]:
                v = 0
                for c in reversed(row if s.den == 1 else
                                  [c.numerator * (s.den // c.denominator) for c in row]):
                    v = (v << width) + c
                s.ints.append(v)
        return width


def _unpack(total: int, width: int, den: int) -> List[Scalar]:
    """The y-polynomial sum_i d_i y^i / den, trimmed and in lowest terms, of
    total = sum_i d_i 2^(width*i), every |d_i| < 2^(width - 1): d_i is chunk
    i of total's two's complement read signed, plus chunk i - 1's borrow."""
    step, poly, borrow = width // 8, [], 0
    raw = total.to_bytes((total.bit_length() // width + 1) * step, "little", signed=True)
    for i in range(0, len(raw), step):
        d = int.from_bytes(raw[i:i + step], "little", signed=True)
        poly.append(d + borrow)
        borrow = d < 0
    return _trim(poly) if den == 1 else _pdiv(_trim(poly), den)


def _monomial(rows: List[List[Scalar]], nonzero: List[int]):
    """(e, c, m) when the only nonzero row of rows, at x^e, is c*y^m;
    nonzero lists the indices of the nonzero rows. Otherwise None."""
    if len(nonzero) == 1:
        row = rows[nonzero[0]]
        if not any(row[:-1]):
            return nonzero[0], row[-1], len(row) - 1
    return None


def _scale(row: List[Scalar], c: Scalar, m: int) -> List[Scalar]:
    """c*y^m*row for a nonzero c, trimmed and in lowest terms as row is."""
    out = [c * v for v in row]
    if not {int}.issuperset(map(type, out)):  # a Fraction among them
        out = list(map(_norm, out))
    return [0] * m + out if out else []


def _pdiv(a: List[Scalar], d: Scalar) -> List[Scalar]:
    """a / d for a nonzero d: an int that an int d divides stays an int,
    and a Fraction is built only for any other coefficient."""
    return [c // d if type(c) is int and type(d) is int and not c % d
            else _norm(Fraction(c, d)) for c in a]


def _require_exact(value, what: str) -> None:
    # bool is an int subclass, but True as a coefficient prints as True
    if type(value) is bool or not isinstance(value, (int, Fraction)):
        raise TypeError(f"{what} must be an int or a Fraction, not {value!r}")


def _lifted(op):
    """The binary operator op(self, other) on other lifted into self's ring
    (_lift), or NotImplemented for an operand the ring does not take."""
    def method(self, other):
        other = self._lift(other)
        return NotImplemented if other is NotImplemented else op(self, other)
    return method


class _Ring:
    """The operators both rings share, written once over the four methods
    a ring supplies: _lift (an int, Fraction or series operand as one of
    the ring's own series, or NotImplemented), __add__, __neg__ and
    __mul__."""
    __slots__ = ()

    def __radd__(self, other):
        return self.__add__(other)

    @_lifted
    def __sub__(self, other):
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

    Row k is one int, x^k's y-polynomial at y = 2^w; for w None it is the sum
    of the coefficients' sizes, a majorant in which - is the identity. row(k)
    builds row k once, from rows of the operands, and keeps it. val is a lower
    bound on the x-valuation, taken from the constant operands: a product reads
    rows val(a)..k-val(b) of a and the matching rows of b, so in x^2*M row k
    asks M for orders below k only. A TruncatedSeries or scalar operand with
    int coefficients becomes a constant node, read by products at its nonzero
    rows only and as zero past its truncation (the solver's eager confirmation
    rejects a right-hand side truncated below the solve). An unknown is made
    with no order function; its solver sets one once the unknown's equation is
    built. row holds the order function aside while it runs, so a read of the
    order being computed raises NoConvergenceError.
    """
    __slots__ = ("val", "w", "order", "rows", "nonzero")

    def __init__(self, val: int, w, order=None, rows=None, nonzero=None):
        self.val, self.w, self.order = val, w, order  # order: k -> row k, for k = 0, 1, ...
        self.rows, self.nonzero = rows or [], nonzero  # nonzero: a constant's nonzero rows

    def row(self, k: int) -> int:
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

    def _lift(self, other):
        """other as a node at self's point: a constant unless it is a node."""
        if isinstance(other, _OnlineSeries):
            return other
        if isinstance(other, (int, Fraction)):
            other = TruncatedSeries.constant(other, 0)
        elif not isinstance(other, TruncatedSeries):
            return NotImplemented
        if not {int}.issuperset(type(c) for row in other.coeffs for c in row):
            raise TypeError("an online constant must have integer coefficients")
        w = self.w
        rows = [sum(map(abs, row)) if w is None else sum(c << w * i for i, c in enumerate(row))
                for row in other.coeffs]
        nonzero = [k for k, v in enumerate(rows) if v]
        return _OnlineSeries(min(nonzero, default=len(rows)), w, lambda k: 0, rows, nonzero)

    @_lifted
    def __add__(self, other):
        return _OnlineSeries(min(self.val, other.val), self.w,
                             lambda k: self.row(k) + other.row(k))

    def __neg__(self):  # the identity on a majorant
        return self if self.w is None else _OnlineSeries(self.val, self.w, lambda k: -self.row(k))

    @_lifted
    def __mul__(self, other):
        va, vb, a, b = self.val, other.val, self.rows, other.rows
        const, dense = (other, self) if other.nonzero is not None else (self, other)
        if const.nonzero is not None:
            vd, nonzero = dense.val, const.nonzero
            return _OnlineSeries(va + vb, self.w, lambda k: sum(
                const.rows[j] * dense.row(k - j) for j in nonzero if j <= k - vd))

        def order(k):
            if k < va + vb:
                return 0
            self.row(k - vb)  # fills the rows of both factors that row k reads
            other.row(k - va)
            return (_sym(a, va, k - va, k) if self is other else
                    sum(a[i] * b[k - i] for i in range(va, k - vb + 1)))
        return _OnlineSeries(va + vb, self.w, order)

    __rmul__ = __mul__


class TruncatedSeries(_Ring):
    __slots__ = ("trunc_x", "coeffs")

    def __init__(self, trunc_x: int, coeffs=None):
        """The series with rows coeffs[0..trunc_x] (zero when None), trunc_x a
        size (see paths); each entry must be an int or a Fraction, each row is
        trimmed and normalised here, the one entry that takes rows from outside."""
        _require_size(trunc_x, "truncation order")
        self.trunc_x = trunc_x
        if coeffs is None:
            self.coeffs = [[] for _ in range(trunc_x + 1)]
            return
        if len(coeffs) != trunc_x + 1:
            raise ValueError(f"{len(coeffs)} rows for truncation order {trunc_x}, "
                             f"not {trunc_x + 1}")
        for c in (c for row in coeffs for c in row):
            _require_exact(c, "coefficient")
        self.coeffs = [_trim([_norm(c) for c in row]) for row in coeffs]

    @classmethod
    def _of(cls, trunc_x: int, coeffs: List[List[Scalar]]) -> "TruncatedSeries":
        """A series on rows already trimmed and in lowest terms, unchecked:
        the ring's own results and genfun's internal series."""
        s = cls.__new__(cls)
        s.trunc_x, s.coeffs = trunc_x, coeffs
        return s

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
        """Copy restricted to a lower (or equal) truncation order, a size (see paths)."""
        _require_size(trunc_x, "truncation order")
        if trunc_x > self.trunc_x:
            raise ValueError(
                f"cannot extend truncation {self.trunc_x} to {trunc_x}")
        return TruncatedSeries._of(trunc_x, [list(p) for p in self.coeffs[:trunc_x + 1]])

    @_lifted
    def __eq__(self, other) -> bool:
        return self.trunc_x == other.trunc_x and self.coeffs == other.coeffs

    def dump(self) -> str:
        """One line per x-degree: `n: c0 c1 c2` with rationals as p/q."""
        return "\n".join(f"{n}: {' '.join(map(str, poly)) if poly else '0'}"
                         for n, poly in enumerate(self.coeffs))

    def __repr__(self):
        return f"TruncatedSeries(trunc_x={self.trunc_x})"

    # ring operations ----------------------------------------------------
    @_lifted
    def __add__(self, other):
        return TruncatedSeries._of(min(self.trunc_x, other.trunc_x), [
            _padd(p, q) for p, q in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return TruncatedSeries._of(self.trunc_x, [[-c for c in p] for p in self.coeffs])

    @_lifted
    def __mul__(self, other):
        n = min(self.trunc_x, other.trunc_x)
        ia, ib = ([i for i in range(n + 1) if f.coeffs[i]] for f in (self, other))
        mono, dense, nonzero = _monomial(self.coeffs, ia), other, ib
        if not mono:
            mono, dense, nonzero = _monomial(other.coeffs, ib), self, ia
        if mono:
            e, c, m = mono
            out = [[] for _ in range(n + 1)]
            for k in nonzero:  # the other factor's nonzero rows only
                if k + e <= n:
                    out[k + e] = _scale(dense.coeffs[k], c, m)
            return TruncatedSeries._of(n, out)
        if other is self and ia:  # a square: _sym reads rows lo..hi by x-degree, an empty one as 0
            lo, hi = ia[0], ia[-1]
            a = b = _Packed(self.coeffs[:hi + 1])
            width, totals = a.fit(a, hi, hi, len(ia)), [0] * (n + 1)
            totals[:2 * hi + 1] = [_sym(a.ints, lo, hi, k) for k in range(min(n, 2 * hi) + 1)]
        else:  # the nonzero rows only: operands are often sparse
            a, b = _Packed([self.coeffs[i] for i in ia]), _Packed([other.coeffs[j] for j in ib])
            width, totals = a.fit(b, n, n, min(len(ia), len(ib))), [0] * (n + 1)
            for i, v in zip(ia, a.ints):
                for j, u in zip(ib, b.ints):
                    if i + j > n:
                        break
                    totals[i + j] += v * u
        return TruncatedSeries._of(n, [_unpack(t, width, a.den * b.den) if t else []
                                       for t in totals])

    __rmul__ = __mul__

    @_lifted
    def __truediv__(self, other):
        return _div(self, other)

    @_lifted
    def __rtruediv__(self, other):
        return _div(other, self)

    # calculus and substitution ----------------------------------------
    def d_dy(self) -> "TruncatedSeries":
        return TruncatedSeries._of(self.trunc_x, [
            _trim([_norm(k * c) for k, c in enumerate(poly)][1:]) for poly in self.coeffs])

    def eval_y(self, value: Scalar) -> "TruncatedSeries":
        _require_exact(value, "y")
        out = []
        for poly in self.coeffs:
            acc: Scalar = 0
            for c in reversed(poly):
                acc = _norm(acc * value + c)
            out.append([acc] if acc != 0 else [])
        return TruncatedSeries._of(self.trunc_x, out)

    # square root ------------------------------------------------------
    def sqrt_unit(self) -> "TruncatedSeries":
        """Square root by the radical's differential equation: s = sqrt(f)
        has 2 f s' = f' s, so s_0 = 1 and 2m s_m = sum_j (3j - 2m) f_j s_{m-j}
        over f's nonzero rows 0 < j <= m. Needs constant term 1."""
        if self.coeffs[0] != [1]:
            raise NonSquareConstantTermError(
                "square root requires constant term exactly 1")
        f, s = _Packed(self.coeffs), _Packed([[1]])
        for m in range(1, self.trunc_x + 1):
            used = [j for j in range(1, m + 1) if self.coeffs[j]]
            width = f.fit(s, m, m - 1, 2 * m * len(used)) if used else 0  # |3j - 2m| < 2m
            total = sum((3 * j - 2 * m) * f.ints[j] * s.ints[m - j] for j in used)
            s.rows.append(_unpack(total, width, 2 * m * f.den * s.den) if total else [])
        return TruncatedSeries._of(self.trunc_x, s.rows)


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
    c = lead[m]
    den, quot = _Packed(b.coeffs[val:val + n_out + 1]), _Packed([])
    terms = [i for i in range(1, len(den.rows)) if den.rows[i]]
    tail = _monomial(den.rows, terms)  # (e, d, t) of a binomial's second term d*x^e*y^t
    for n in range(n_out + 1):
        used, acc = [i for i in terms if i <= n], a.coeffs[n + val]  # den_i quot_{n-i}
        if used and tail:  # scaled, not packed
            e, d, t = tail
            acc = _padd(acc, _scale(quot.rows[n - e], -d, t))
        elif used:
            width = den.fit(quot, n, n - used[0], len(used))
            acc = _padd(acc, _unpack(-sum(den.ints[i] * quot.ints[n - i] for i in used),
                                     width, den.den * quot.den))
        if any(acc[:m]):
            k = next(k for k, cc in enumerate(acc[:m]) if cc)
            raise InexactDivisionError(
                f"term x^{n} y^{k} not divisible by divisor lead y^{m}")
        quot.rows.append(_pdiv(acc[m:], c))
    return TruncatedSeries._of(n_out, quot.rows)


def _solve(N: int, w, system, count: int) -> List[List[int]]:
    """Rows 0..N of each unknown at y = 2^w, or as a majorant for w None."""
    unknowns = [_OnlineSeries(0, w) for _ in range(count)]
    try:
        for u, f in zip(unknowns, system(*unknowns)):
            u.order = u._lift(f).row
        for k in range(N + 1):
            for u in unknowns:
                u.row(k)
    finally:
        for u in unknowns:  # unknowns and equations form a cycle: free it now
            u.order = None
    return [u.rows for u in unknowns]


def solve_fixed_point(N: int, system, count: int) -> List[TruncatedSeries]:
    """The count unknowns U = system(*U) through x^N, N a size (see paths). system
    maps unknowns to the tuple of their right-hand sides, built with +, -, * and
    ** from constants of int coefficients; x^k of each may read only lower orders
    of the unknowns, else NoConvergenceError. Solved as a majorant, whose largest
    row bounds every coefficient, then at y = 2^w for a w that bound allows, each
    order of each node once, and confirmed by one eager pass."""
    _require_size(N, "truncation order")
    # whole bytes, with room for the sign: every coefficient is below 2^(w - 1)
    w = (max(map(max, _solve(N, None, system, count))).bit_length() + 8) & -8
    ms = [TruncatedSeries._of(N, [_unpack(v, w, 1) for v in rows])
          for rows in _solve(N, w, system, count)]
    if list(system(*ms)) != ms:
        raise NoConvergenceError(f"the solution misses its equations at x^{N}")
    return ms
