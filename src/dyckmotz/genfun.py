"""Bivariate distribution series and univariate popularity series for the
twelve length <= 3 step patterns over the constrained family, computed
three independent ways.

For a pattern p, the distribution series F_p(x, y) has [x^n y^k] equal
to the number of family members of semilength n containing p exactly k
times. The three routes are:

  closed form   algebraic expression evaluated in the exact series ring
  fixed point   functional equation (or 2-unknown system) from the table
                _SYSTEMS, solved one x-order at a time and confirmed in
                the series ring by series.solve_fixed_point, where such
                an equation is on record (UU, UUU, UDU, UDD, DDU, DDD)
  brute force   one enumeration pass per semilength, counting
                occurrences path by path and tallying the paths by
                their vector of twelve counts

Each route returns its TruncatedSeries after validating the same shape
invariants: constant term 1, nonnegative integer coefficients, row sums
equal to Motzkin numbers. Popularity (total occurrence count over the
family) is the y-derivative at y = 1, with independently printed closed
forms for the length-2 patterns checked against the derivative route.

Each printed form is evaluated once per truncation order per process,
in the memo _printed keyed by the form itself, which the fixed-point and
brute-force routes never read. The module caches are all bounded:
_printed (32 forms), _family_row (25 semilengths) and
enumeration._at_most_table (4 tables).

DD shares the UU distribution; the brute-force route still counts DD
literally so the alias is itself testable.
"""
from __future__ import annotations

from collections import Counter
from functools import lru_cache

from .enumeration import enumerate_constrained, motzkin_numbers
from .patterns import _reader, parse_pattern
from .series import NoConvergenceError, TruncatedSeries, solve_fixed_point

DEFAULT_TRUNCATION = 24

PATTERNS = ("UD", "UU", "DD", "DU",
            "UUU", "UUD", "DUU", "DUD", "UDU", "UDD", "DDU", "DDD")

# denominators all have x-valuation 2, so closed forms are built with
# two guard orders and land exactly on the requested truncation
_GUARD = 2


class RouteCheckError(ValueError):
    """A route's series failed a shape check or a cross-route identity."""


def _canon(pattern: str) -> str:
    if pattern not in PATTERNS:
        raise KeyError(f"unknown pattern id {pattern!r}; known: {', '.join(PATTERNS)}")
    return pattern


def _validate_distribution(series: TruncatedSeries, pattern: str,
                           method: str) -> TruncatedSeries:
    """series, once it passes the shape checks of a distribution."""
    if series.y_poly(0) != [1]:
        raise RouteCheckError(f"{pattern}/{method}: constant term is not 1")
    for n, (poly, total) in enumerate(zip(series.coeffs, motzkin_numbers(series.trunc_x))):
        row_sum = sum(poly)  # ints sum to an int; a Fraction among them does not
        if type(row_sum) is not int or min(poly, default=0) < 0:
            raise RouteCheckError(
                f"{pattern}/{method}: non-integer or negative coefficient at x^{n}")
        if row_sum != total:
            raise RouteCheckError(
                f"{pattern}/{method}: row sum at x^{n} is {row_sum}, "
                f"want M_{n} = {total}")
    return series


# closed forms -----------------------------------------------------------
# Each entry maps the ring generators to the printed algebraic
# expression, verbatim. Square-root signs differ between the two groups
# of formulas and are kept exactly as printed; the constant-term-1
# validation would catch a wrong branch immediately.

def _cf_ud(x, y):
    rad = -4*x**2 + (x**2*(y - 1) + x*y - 1)**2
    return (x**2 - x**2*y - x*y + 1 - rad.sqrt_unit()) / (2*x**2)


def _cf_uu(x, y):
    rad = -4*x**2*y**2 + (x**2*y*(y - 1) - x + 1)**2
    return (x**2*y**2 - x**2*y - x + 1 - rad.sqrt_unit()) / (2*x**2*y**2)


def _cf_du(x, y):
    rad = -4*x**2 + (x**2*(y - 1) + x*y - 1)**2
    return (x**2*y - x**2 - x*y + 1 - rad.sqrt_unit()) / (2*x**2*y)


def _cf_uuu(x, y):
    rad = ((x - x*y - 1) * (x**2 - x*y + x - 1)
           * (x**3 - x**3*y + x**2*y**2 + 2*x**2*y - 2*x*y - 2*x + 1))
    return ((x**3*y - x**3 - x**2*y**2 + 2*x - 1 + rad.sqrt_unit())
            / (2*x**2*y**2*(x - 1)))


def _cf_uud(x, y):
    rad = (x**2*y - 1) * (x**2*y - 4*x**2 + 4*x - 1)
    return (x**2*y - 2*x**2 + 2*x - 1 + rad.sqrt_unit()) / (2*x**2*(x - 1))


def _cf_duu(x, y):
    rad = (x**2*y - 1) * (x**2*y - 4*x**2 + 4*x - 1)
    return (2*x - x**2*y - 1 + rad.sqrt_unit()) / (2*x**2*y*(x - 1))


def _cf_dud(x, y):
    rad = ((x*y - x - 1) * (x**2 + y*x - x - 1)
           * (x**3*y - x**3 + x**2*y**2 + 2*x**2*y - 2*x*y - 2*x + 1))
    return ((x**3*y - x**3 - x**2*y**2 + 2*x*y - 1 + rad.sqrt_unit())
            / (2*x**2*(x*y - 1)))


def _cf_udu(x, y):
    rad = ((x + 1) * (x**2*y - x**2 + x*y - x - 1)
           * (x**3*y - x**3 - 2*x**2*y + 2*x**2 + x*y + 2*x - 1))
    return ((1 + x*(x**2 - x**2*y - y) - rad.sqrt_unit())
            / (2*x**2*(x - x*y + 1)))


def _cf_udd(x, y):
    rad = ((x + 1) * (x**2*y - x**2 + 1)
           * (x**3*y - x**3 - 3*x**2*y + 3*x**2 - 3*x + 1))
    return ((1 + x*(x**2*y - x**2 - x*y + x - 1) - rad.sqrt_unit())
            / (2*x**2*(x*y - x + 1)**2))


def _cf_ddu(x, y):
    rad = ((x + 1) * (x**2*y - x**2 + 1)
           * (x**3*y - x**3 - 3*x**2*y + 3*x**2 - 3*x + 1))
    return ((1 + x*(2*x**2*y**2 - 3*x**2*y + x**2 + x*y - x - 1) - rad.sqrt_unit())
            / (2*x**2*y*(x*y - x + 1)))


def _cf_ddd(x, y):
    rad = ((x*y + 1) * (x**2*y - x**2 - x*y + x - 1)
           * (x**3*y**2 - x**3*y - x**2*y**2 - 2*x**2*y + 3*x**2 + 2*x*y + x - 1))
    return ((1 - x*(x**2*y**2 - x**2*y - x*y**2 + x + 1) - rad.sqrt_unit())
            / (2*x**2*(x*y - x - y)**2))


_CLOSED_FORMS = {
    "UD": _cf_ud, "UU": _cf_uu, "DD": _cf_uu, "DU": _cf_du,
    "UUU": _cf_uuu, "UUD": _cf_uud, "DUU": _cf_duu, "DUD": _cf_dud,
    "UDU": _cf_udu, "UDD": _cf_udd, "DDU": _cf_ddu, "DDD": _cf_ddd,
}


# functional equations ----------------------------------------------------
# Each entry maps the ring generators and its unknowns to the tuple of their
# right-hand sides, for series.solve_fixed_point. One unknown is F itself;
# a pair (A, B) is solved jointly, with F = 1 + A + B built once per call.

def _fp_uu(x, y, M):
    x2 = x * x
    return (1 + x*M + x2*y*M + x2*y**2*(M - 1)*M,)


def _fp_uuu(x, y, F):
    x2, geo = x * x, 1 / (1 - x)  # geo: paths of the shape (UD)^j, j >= 0
    return (1 + x*F + x2*F + x2*y*(x*geo)*F + x2*y**2*(F - geo)*F,)


def _fp_udu(x, y, A, B):
    x2, F = x * x, 1 + A + B
    return x + x*y*A + x*B, x2 + x2*y*A + x2*B + x2*F*(F - 1)


def _fp_udd(x, y, A, B):
    x2, F = x * x, 1 + A + B
    return x*F, (x2*y*F + x2*y*A + x2*B + x2*B**2
                 + x2*y*A*B + x2*y**2*A**2 + x2*y*A*B)


def _fp_ddu(x, y, A, B):
    x2, F = x * x, 1 + A + B
    return x + x*A + x*y*B, x2*F + x2*y*A*(F - 1) + x2*A + x2*y*B*F


def _fp_ddd(x, y, A, B):
    x2, y2, F = x * x, y**2, 1 + A + B
    return x*F, (x2*F + x2*y2*B + x2*y*A + x2*A**2
                 + 2*x2*y*A*B + x2*y2*B**2)


_SYSTEMS = {"UU": _fp_uu, "UUU": _fp_uuu, "UDU": _fp_udu,
            "UDD": _fp_udd, "DDU": _fp_ddu, "DDD": _fp_ddd}
FIXED_POINT_PATTERNS = tuple(_SYSTEMS)


# holds one truncation order's 11 closed and 3 popularity forms twice over
@lru_cache(maxsize=32)
def _printed(form, N: int, popularity: bool) -> TruncatedSeries:
    """form on x and y, or on x and the popularity radical, at x-order
    N + _GUARD; callers read it through truncate, which copies the rows."""
    x = TruncatedSeries.x_var(N + _GUARD)
    if popularity:
        return form(x, (-3*x**2 - 2*x + 1).sqrt_unit())
    return form(x, TruncatedSeries.y_var(N + _GUARD))


def distribution_gf_closed(pattern: str, N: int = DEFAULT_TRUNCATION) -> TruncatedSeries:
    """The printed closed form through x^N: evaluated once per N per
    process (_printed), copied and validated on every call."""
    pattern = _canon(pattern)
    if N < 0:  # before the guard orders would make it a valid size
        raise ValueError("truncation order must be nonnegative")
    return _validate_distribution(
        _printed(_CLOSED_FORMS[pattern], N, False).truncate(N), pattern, "closed")


def distribution_gf_fixed_point(pattern: str, N: int = DEFAULT_TRUNCATION) -> TruncatedSeries:
    """Pattern's system in _SYSTEMS solved through x^N, validated."""
    pattern = _canon(pattern)
    if pattern not in _SYSTEMS:
        raise KeyError(f"no fixed-point system for {pattern}; "
                       f"have: {', '.join(FIXED_POINT_PATTERNS)}")
    system = _SYSTEMS[pattern]
    x, y = TruncatedSeries.x_var(N), TruncatedSeries.y_var(N)
    count = system.__code__.co_argcount - 2  # the unknowns after x and y
    solution = solve_fixed_point(N, lambda *unknowns: system(x, y, *unknowns), count)
    return _validate_distribution(solution[0] if count == 1 else 1 + sum(solution),
                                  pattern, "fixed")


# brute force --------------------------------------------------------------

# the texts, the reader and the counts of PATTERNS: a read tuple's values
# are their counts on one Dyck text in _COUNTED order
_COUNTED, _read_patterns, _count_patterns, _ = _reader(map(parse_pattern, PATTERNS))


def _distribution_row(tallies: Counter, keys: tuple = _COUNTED,
                      values=_count_patterns) -> dict:
    """pattern -> {occurrence count -> paths} for one semilength, from a
    Counter of the raw read tuples of its Dyck texts, whose values are
    counts over keys, which hold every one of PATTERNS; each distinct
    tuple is converted once."""
    row = {p: Counter() for p in PATTERNS}
    columns = [keys.index(p) for p in PATTERNS]
    for raw, paths in tallies.items():
        counts = values(raw)
        for column, i in zip(row.values(), columns):
            column[counts[i]] += paths
    return row


# holds more semilengths than a brute-force sweep can reach, so a sweep
# repeated for another pattern does not walk the family again
@lru_cache(maxsize=DEFAULT_TRUNCATION + 1)
def _family_row(n: int) -> dict:
    return _distribution_row(Counter(map(_read_patterns, enumerate_constrained(n))))


def _brute_force(pattern: str, rows) -> TruncatedSeries:
    """The brute-force series of pattern from the _distribution_row of
    each semilength 0, 1, ..., N in turn."""
    coeffs = [[row[pattern].get(k, 0) for k in range(max(row[pattern]) + 1)]
              for row in rows]
    return _validate_distribution(
        TruncatedSeries._of(len(coeffs) - 1, coeffs), pattern, "brute")


def distribution_brute_force(pattern: str, N: int) -> TruncatedSeries:
    pattern = _canon(pattern)
    if N < 0:
        raise ValueError("truncation order must be nonnegative")
    return _brute_force(pattern, [_family_row(n) for n in range(N + 1)])


def cross_check_routes(pattern: str, N: int, brute_series: TruncatedSeries):
    """{route: series} for closed, brute and (where on record) fixed, in
    that order, and {route: equals brute_series} for the others."""
    routes = {"closed": distribution_gf_closed(pattern, N), "brute": brute_series}
    if pattern in FIXED_POINT_PATTERNS:
        routes["fixed"] = distribution_gf_fixed_point(pattern, N)
    agree = {name: s == brute_series for name, s in routes.items() if name != "brute"}
    return routes, agree


# popularity ---------------------------------------------------------------
# Printed closed forms exist for the length-2 patterns only; they share
# the radical R = sqrt(-3x^2 - 2x + 1). DD shares the UU form.

def _pop_ud(x, r):
    return ((x - 1)*r - 3*x**2 - 2*x + 1) / (2*x*(3*x - 1))


def _pop_uu(x, r):
    return (r*(x**2 + 2*x - 2) + x**3 - 3*x**2 - 4*x + 2) / (2*x**2*r)


def _pop_du(x, r):
    return ((x**2 - 1)*r - x**3 - 3*x**2 - x + 1) / (2*x**2*r)


_pop_closed_length2 = {"UD": _pop_ud, "UU": _pop_uu, "DD": _pop_uu, "DU": _pop_du}


def _popularity(distribution: TruncatedSeries) -> TruncatedSeries:
    """Total occurrences by semilength: the y-derivative at y = 1."""
    return distribution.d_dy().eval_y(1)


def popularity_gf(pattern: str, N: int = DEFAULT_TRUNCATION) -> TruncatedSeries:
    """Total occurrences of the pattern over the whole family, by
    semilength: the y-derivative of the distribution at y = 1. For the
    length-2 patterns the printed closed form is evaluated as well and
    must agree."""
    pattern = _canon(pattern)
    derived = _popularity(distribution_gf_closed(pattern, N))
    if pattern in _pop_closed_length2:
        if _printed(_pop_closed_length2[pattern], N, True).truncate(N) != derived:
            raise RouteCheckError(
                f"popularity closed form for {pattern} disagrees with the "
                f"derivative route")
    return derived


def du_from_ud(N: int = DEFAULT_TRUNCATION) -> TruncatedSeries:
    """F_DU rebuilt from F_UD by stripping peak-free terms and shifting
    one y-degree down; must agree with the direct DU closed form."""
    f_ud = distribution_gf_closed("UD", N)
    series = 1 + (f_ud - f_ud.eval_y(0)) / TruncatedSeries.y_var(N)
    if series != distribution_gf_closed("DU", N):
        raise RouteCheckError("DU-from-UD identity disagrees with the DU closed form")
    return _validate_distribution(series, "DU", "closed")
