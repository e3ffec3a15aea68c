import importlib
import pkgutil
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from dyckmotz import (
    FIXED_POINT_PATTERNS,
    NoConvergenceError,
    PATTERNS,
    PathProfile,
    distribution_brute_force,
    distribution_gf_closed,
    distribution_gf_fixed_point,
    du_from_ud,
    enumerate_constrained,
    motzkin_number,
    parse_pattern,
    popularity_gf,
)
import dyckmotz
from dyckmotz import cli, genfun
from dyckmotz.enumeration import motzkin_numbers
from dyckmotz.genfun import RouteCheckError, cross_check
from dyckmotz.series import TruncatedSeries, _monomial, solve_fixed_point

N = 10


def test_pattern_roster():
    assert len(PATTERNS) == 12
    assert set(FIXED_POINT_PATTERNS) <= set(PATTERNS)


def test_brute_force_rows_match_direct_counting():
    series = distribution_brute_force("UUD", 7)
    expr = parse_pattern("UUD")
    for n in range(8):
        tally = {}
        for p in enumerate_constrained(n):
            k = PathProfile(p).count(expr)
            tally[k] = tally.get(k, 0) + 1
        for k, count in tally.items():
            assert series.coefficient(n, k) == count


def test_closed_forms_agree_with_brute_force():
    for pattern in PATTERNS:
        closed = distribution_gf_closed(pattern, N)
        brute = distribution_brute_force(pattern, N)
        assert closed == brute, pattern


def test_fixed_points_agree_with_brute_force():
    for pattern in FIXED_POINT_PATTERNS:
        fixed = distribution_gf_fixed_point(pattern, N)
        assert fixed == distribution_brute_force(pattern, N), pattern


def test_cross_check_routes(monkeypatch, capsys):
    brute = distribution_brute_force("UDU", 6)
    routes, agree, errors = cross_check("distribution", "UDU", 6, brute=lambda: brute)
    assert list(routes) == ["closed", "brute", "fixed"]
    assert routes["brute"] is brute
    assert agree == {"closed": True, "fixed": True}
    assert errors == {}
    # the wrong pattern's brute series
    routes, agree, errors = cross_check("distribution", "UD", 6, brute=lambda: brute)
    assert list(routes) == ["closed", "brute"]
    assert agree == {"closed": False}
    # a wrong closed form is left out, with its error, and the other routes are still built
    monkeypatch.setitem(genfun._CLOSED_FORMS, "UDU", (lambda x, y: 1 + x, None))
    built = []
    routes, agree, errors = cross_check("distribution", "UDU", 6,
                                        brute=lambda: built.append(1) or brute)
    assert list(routes) == ["brute", "fixed"] and built == [1]
    assert agree == {"fixed": True}
    assert list(errors) == ["closed"] and type(errors["closed"]) is RouteCheckError
    message = "UDU/closed: row sum at x^2 is 0, want M_2 = 2"
    assert str(errors["closed"]) == message
    # gf --method all raises the first error: a failed check, exit 1
    assert cli.main(["gf", "--pattern", "UDU", "--method", "all", "--max-n", "6"]) == 1
    assert capsys.readouterr().err == f"dyckmotz: {message}\n"

    def short_brute():
        raise RouteCheckError("UUU/brute: short")

    # a brute route that fails its check leaves nothing to agree with
    routes, agree, errors = cross_check("distribution", "UUU", 6, brute=short_brute)
    assert list(routes) == ["closed", "fixed"] and list(errors) == ["brute"]
    assert agree == {"closed": False, "fixed": False}


def test_a_distribution_route_is_one_table_entry(monkeypatch, capsys):
    # the closed route under a new name, covering UD alone
    monkeypatch.setitem(genfun._ROUTES["distribution"][1], "closed2",
                        (lambda p, N: distribution_gf_closed(p, N), ("UD",)))
    assert cli.main(["gf", "--pattern", "UD", "--method", "closed2", "--max-n", "6"]) == 0
    assert capsys.readouterr().out == distribution_gf_closed("UD", 6).dump() + "\n"
    routes, agree, errors = cross_check("distribution", "UD", 6)
    assert list(routes) == ["closed", "brute", "closed2"] and errors == {}
    assert agree == {"closed": True, "closed2": True}
    assert "closed2" not in cross_check("distribution", "UU", 6)[0]
    checks = {c["check"]: c for c in dyckmotz.run_full_verification(6)["checks"]}
    assert checks["three-way:UD"]["details"] == "routes over n<=6: closed=brute ok, closed2=brute ok"


def test_a_popularity_route_is_one_table_entry(monkeypatch):
    # a wrong route, the derivative plus 1, covering UD alone
    monkeypatch.setitem(genfun._ROUTES["popularity"][1], "plus1", (
        lambda p, N: genfun._popularity(distribution_gf_closed(p, N)) + 1, ("UD",)))
    with pytest.raises(RouteCheckError,
                       match="^popularity closed form for UD disagrees with the derivative route$"):
        popularity_gf("UD", 12)
    assert popularity_gf("UU", 12) == genfun._popularity(distribution_gf_closed("UU", 12))
    checks = {c["check"]: c for c in dyckmotz.run_full_verification(6)["checks"]}
    assert [c["check"] for c in checks.values() if c["status"] == "fail"] == [
        "popularity-closed-forms"]


def test_closed_forms_equal_fixed_points_deep():
    for pattern in FIXED_POINT_PATTERNS:
        closed = distribution_gf_closed(pattern, 40)
        assert distribution_gf_fixed_point(pattern, 40) == closed, pattern


def test_fixed_point_without_convergence_raises():
    with pytest.raises(NoConvergenceError):
        solve_fixed_point(8, lambda M: (M + 1,), 1)
    with pytest.raises(NoConvergenceError):
        solve_fixed_point(8, lambda A, B: (B + 1, A), 2)


def test_fixed_point_calls_each_equation_three_times(monkeypatch):
    # one call of the system builds the majorant solve, one the solve at
    # y = 2^w and one confirms the solution, at any N
    calls = []

    def counting(N, system, count):
        def counted(*unknowns):
            calls.append(len(unknowns))
            return system(*unknowns)
        return solve_fixed_point(N, counted, count)

    monkeypatch.setattr(genfun, "solve_fixed_point", counting)
    for n in (8, 40):
        for pattern in FIXED_POINT_PATTERNS:
            calls.clear()
            distribution_gf_fixed_point(pattern, n)
            unknowns = 1 if pattern in ("UU", "UUU") else 2
            assert calls == [unknowns] * 3, (pattern, n)


# the six systems as first derived, fully expanded: the reference for the
# factored right-hand sides of genfun._SYSTEMS
def _expanded_uu(x, y, M):
    x2 = x * x
    return (1 + x*M + x2*y*M + x2*y**2*(M - 1)*M,)


def _expanded_uuu(x, y, F):
    x2, geo = x * x, 1 / (1 - x)
    return (1 + x*F + x2*F + x2*y*(x*geo)*F + x2*y**2*(F - geo)*F,)


def _expanded_udu(x, y, A, B):
    x2, F = x * x, 1 + A + B
    return x + x*y*A + x*B, x2 + x2*y*A + x2*B + x2*F*(F - 1)


def _expanded_udd(x, y, A, B):
    x2, F = x * x, 1 + A + B
    return x*F, (x2*y*F + x2*y*A + x2*B + x2*B**2
                 + x2*y*A*B + x2*y**2*A**2 + x2*y*A*B)


def _expanded_ddu(x, y, A, B):
    x2, F = x * x, 1 + A + B
    return x + x*A + x*y*B, x2*F + x2*y*A*(F - 1) + x2*A + x2*y*B*F


def _expanded_ddd(x, y, A, B):
    x2, y2, F = x * x, y**2, 1 + A + B
    return x*F, (x2*F + x2*y2*B + x2*y*A + x2*A**2
                 + 2*x2*y*A*B + x2*y2*B**2)


EXPANDED = {"UU": _expanded_uu, "UUU": _expanded_uuu, "UDU": _expanded_udu,
            "UDD": _expanded_udd, "DDU": _expanded_ddu, "DDD": _expanded_ddd}


def _unknowns(system, seed, n=10):
    """Seeded dense series with integer entries of both signs, one per
    unknown of system."""
    rng = random.Random(seed)
    return [TruncatedSeries(n, [[rng.randint(-9, 9) for _ in range(rng.randint(1, 4))]
                                for _ in range(n + 1)])
            for _ in range(system.__code__.co_argcount - 2)]


def _run(system, unknowns):
    n = unknowns[0].trunc_x
    return tuple(system(TruncatedSeries.x_var(n), TruncatedSeries.y_var(n), *unknowns))


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("pattern", EXPANDED)
def test_factored_systems_equal_their_expanded_forms(pattern, seed):
    unknowns = _unknowns(EXPANDED[pattern], seed)
    assert _run(genfun._SYSTEMS[pattern], unknowns) == _run(EXPANDED[pattern], unknowns)


def _unknown_products(monkeypatch, system, unknowns) -> int:
    """The products one call of system on unknowns makes of two series
    neither of which is a monomial."""
    counted, mul = [], TruncatedSeries.__mul__

    def counting(a, b):
        if isinstance(b, TruncatedSeries) and not any(
                _monomial(f.coeffs, [k for k, row in enumerate(f.coeffs) if row])
                for f in (a, b)):
            counted.append(1)
        return mul(a, b)
    with monkeypatch.context() as m:
        m.setattr(TruncatedSeries, "__mul__", counting)
        m.setattr(TruncatedSeries, "__rmul__", counting)
        _run(system, unknowns)
    return len(counted)


def test_each_system_multiplies_two_unknown_series_once(monkeypatch):
    for pattern, system in genfun._SYSTEMS.items():
        assert _unknown_products(monkeypatch, system, _unknowns(system, 0)) == 1, pattern
    assert sum(_unknown_products(monkeypatch, system, _unknowns(system, 0))
               for system in EXPANDED.values()) == 13


def test_fixed_point_confirms_at_full_truncation():
    # x is known only to x^4, so the solve at 6 cannot be confirmed
    x = TruncatedSeries.x_var(4)
    with pytest.raises(NoConvergenceError):
        solve_fixed_point(6, lambda M: (1 + x*M,), 1)


def test_fixed_point_through_a_monomial_factor():
    # y*M reads M's own order: still a self-reference on the monomial path
    x, y = TruncatedSeries.x_var(8), TruncatedSeries.y_var(8)
    with pytest.raises(NoConvergenceError, match="depends on itself"):
        solve_fixed_point(8, lambda M: (1 + y*M,), 1)
    (m,) = solve_fixed_point(8, lambda M: (1 + x*M,), 1)
    assert m == 1 / (1 - x)
    assert m.coeffs == [[1]] * 9


@pytest.mark.parametrize("c", [127, 128, 255, 256, -127, -128, -255, 2 ** 63 - 1, -2 ** 63])
def test_fixed_point_width_holds_the_sign(c):
    # M = c + x*M has every row c: at 8 bits 128..255 read back negative, so
    # the width must count the sign bit and round up to whole bytes
    x, y = TruncatedSeries.x_var(6), TruncatedSeries.y_var(6)
    (m,) = solve_fixed_point(6, lambda M: (c + x*M,), 1)
    assert m.coeffs == [[c]] * 7
    # and the same entry above y^0, where a misread digit borrows from the next
    (m,) = solve_fixed_point(6, lambda M: (c*y + x*M,), 1)
    assert m.coeffs == [[0, c]] * 7


def test_fixed_point_takes_integer_constants_only():
    # a Fraction is refused while the equations are built, before any order
    x, calls = TruncatedSeries.x_var(6), []
    def system(M):
        calls.append(M)
        return (Fraction(1, 2) + x*M,)
    with pytest.raises(TypeError, match="integer coefficients"):
        solve_fixed_point(6, system, 1)
    assert len(calls) == 1 and calls[0].rows == []
    (m,) = solve_fixed_point(6, lambda M: (Fraction(4, 2) + x*M,), 1)  # the int 2
    assert m.coeffs == [[2]] * 7


def test_fixed_point_requires_known_pattern():
    with pytest.raises(KeyError):
        distribution_gf_fixed_point("UUD", 6)
    with pytest.raises(KeyError):
        distribution_gf_closed("UDUD", 6)


def test_row_sums_are_motzkin_numbers():
    series = distribution_gf_closed("DUD", N)
    for n in range(N + 1):
        assert sum(series.y_poly(n)) == motzkin_number(n)


def test_row_sums_of_a_long_series_are_checked_fast():
    # one row [M_n] per n: every row sum is compared with M_n
    rows = [[m] for m in motzkin_numbers(1000)]
    series = TruncatedSeries(1000, rows)
    start = time.perf_counter()
    assert genfun._validate_distribution(series, "UD", "brute") is series
    assert time.perf_counter() - start < 1.0
    series.coeffs[1000] = [rows[1000][0] + 1]  # the series' own row, not the caller's
    with pytest.raises(RouteCheckError, match="row sum at x"):
        genfun._validate_distribution(series, "UD", "brute")


@pytest.mark.parametrize("rows, message", [
    ([[2], [1], [1, 1]], "UD/closed: constant term is not 1"),
    ([[1], [1], [Fraction(3, 2), Fraction(1, 2)]],
     "UD/closed: non-integer or negative coefficient at x^2"),
    ([[1], [1], [3, -1]], "UD/closed: non-integer or negative coefficient at x^2"),
    ([[1], [1], [1, 2]], "UD/closed: row sum at x^2 is 3, want M_2 = 2"),
])
def test_each_shape_check_names_its_fault(rows, message):
    series = TruncatedSeries(2, rows)
    with pytest.raises(RouteCheckError) as raised:
        genfun._validate_distribution(series, "UD", "closed")
    assert str(raised.value) == message


def test_specific_distribution_cells():
    cells = {
        ("UD", 7, 4): 44,
        ("UUU", 9, 3): 215,
        ("UUD", 9, 2): 432,
        ("DUU", 9, 1): 432,
        ("DUD", 9, 2): 199,
        ("UDU", 9, 2): 200,
        ("UDD", 9, 3): 417,
        ("DDU", 9, 2): 444,
        ("DDD", 9, 1): 251,
    }
    series = {p: distribution_gf_closed(p, 9) for p in
              {p for p, _, _ in cells}}
    for (pattern, n, k), value in cells.items():
        assert series[pattern].coefficient(n, k) == value, (pattern, n, k)


def test_avoider_columns():
    udu = distribution_gf_closed("UDU", 9)
    assert [udu.coefficient(n, 0) for n in range(1, 10)] == [
        1, 1, 2, 4, 8, 17, 37, 82, 185]
    ddd = distribution_gf_closed("DDD", 9)
    assert [ddd.coefficient(n, 0) for n in range(1, 10)] == [
        1, 2, 3, 6, 11, 22, 43, 87, 176]
    dud = distribution_gf_closed("DUD", 9)
    assert [dud.coefficient(n, 0) for n in range(1, 10)] == [
        1, 1, 1, 2, 3, 6, 10, 20, 36]
    duu = distribution_gf_closed("DUU", 9)
    assert [duu.coefficient(n, 0) for n in range(1, 10)] == [
        2 ** (n - 1) for n in range(1, 10)]


def test_popularity_values():
    ud = popularity_gf("UD", 12)
    assert [ud.coefficient(n) for n in range(1, 13)] == [
        1, 3, 8, 22, 61, 171, 483, 1373, 3923, 11257, 32418, 93644]
    uu = popularity_gf("UU", 12)
    assert uu.coefficient(11) == 31360
    dd = popularity_gf("DD", 12)
    assert dd.coefficient(11) == 31360


def test_popularity_identities():
    ud = popularity_gf("UD", N + 1)
    udu = popularity_gf("UDU", N + 1)
    du = popularity_gf("DU", N + 1)
    uu = popularity_gf("UU", N + 1)
    for n in range(1, N + 1):
        assert udu.coefficient(n + 1) == ud.coefficient(n)
        assert du.coefficient(n) == ud.coefficient(n) - motzkin_number(n)
        assert uu.coefficient(n) + ud.coefficient(n) == n * motzkin_number(n)


def test_du_series_rebuilt_from_ud():
    assert du_from_ud(N) == distribution_gf_closed("DU", N)


def test_du_from_ud_raises_when_the_rebuilt_series_differs(monkeypatch):
    # a DU closed form that is another pattern's valid series
    closed = genfun.distribution_gf_closed
    monkeypatch.setattr(genfun, "distribution_gf_closed",
                        lambda pattern, n: closed("UU" if pattern == "DU" else pattern, n))
    with pytest.raises(RouteCheckError,
                       match="^DU-from-UD identity disagrees with the DU closed form$"):
        du_from_ud(N)


@pytest.mark.parametrize("N", [-1, -2])
def test_negative_truncation_is_a_value_error(N):
    # the guard orders must not turn a negative size into a valid one
    for route in (lambda: distribution_gf_closed("UD", N),
                  lambda: distribution_gf_fixed_point("UU", N),
                  lambda: distribution_brute_force("UD", N),
                  lambda: popularity_gf("UU", N), lambda: du_from_ud(N)):
        with pytest.raises(ValueError, match="truncation order must be nonnegative"):
            route()


def test_a_truncation_order_must_be_an_int():
    # True is an int too, and a series would print it as its order; 2.0
    # would fail deep inside a route, on a slice or a range
    for route in (lambda N: distribution_gf_closed("UD", N),
                  lambda N: distribution_gf_fixed_point("UU", N),
                  lambda N: distribution_brute_force("UD", N),
                  lambda N: popularity_gf("UU", N), du_from_ud, TruncatedSeries.x_var):
        for N in (True, 2.0):  # negative orders: the test above, and test_series for x_var
            with pytest.raises(TypeError, match="^truncation order must be an int, not "):
                route(N)


def test_distribution_starts_at_one():
    for pattern in PATTERNS:
        series = distribution_gf_closed(pattern, 5)
        assert series.y_poly(0) == [1]


# the memo of printed forms ---------------------------------------------------

def _counting(entry, calls):
    form, radical = entry

    def counted(x, y, *root):
        calls[form.__name__, x.trunc_x] += 1
        return form(x, y, *root)
    return counted, radical


def test_each_printed_form_is_evaluated_once_per_truncation(monkeypatch):
    calls = Counter()
    for pattern in ("UD", "DU"):
        monkeypatch.setitem(genfun._CLOSED_FORMS, pattern,
                            _counting(genfun._CLOSED_FORMS[pattern], calls))
    distribution_gf_closed("UD", 20)
    popularity_gf("UD", 20)
    du_from_ud(20)
    assert calls == {("_cf_ud", 22): 1, ("_cf_du", 22): 1}


def test_memoised_series_are_copies():
    first = distribution_gf_closed("UDU", 8)
    true_rows = [first.y_poly(n) for n in range(9)]
    for n in range(9):
        first.coeffs[n].append(7)
        first.coeffs[n][0] += 1
    second = distribution_gf_closed("UDU", 8)
    assert [second.y_poly(n) for n in range(9)] == true_rows
    assert second == distribution_gf_fixed_point("UDU", 8)


def test_memo_is_keyed_by_the_form_not_the_pattern(monkeypatch):
    uud = distribution_gf_closed("UUD", 9)
    monkeypatch.setitem(genfun._CLOSED_FORMS, "UUD", genfun._CLOSED_FORMS["DUU"])
    swapped = distribution_gf_closed("UUD", 9)
    assert swapped == distribution_gf_closed("DUU", 9) and swapped != uud


def test_memo_is_keyed_by_the_radical_a_form_takes_the_root_of(monkeypatch):
    # UUD and DUU take the root of _rad_uud: a radical replaced on a warm memo is read
    # (with 2*x for 4*x, both closed routes fail their own checks), and once restored
    # its series are served again
    warm = {p: distribution_gf_closed(p, 9) for p in ("UUD", "DUU")}
    with monkeypatch.context() as patch:
        patch.setattr(genfun, "_rad_uud",
                      lambda x, y: (x**2*y - 1) * (x**2*y - 4*x**2 + 2*x - 1))
        for pattern in warm:
            with pytest.raises(RouteCheckError, match=f"{pattern}/closed"):
                distribution_gf_closed(pattern, 9)
    assert {p: distribution_gf_closed(p, 9) for p in warm} == warm


def test_memo_is_bounded():
    maxsize = genfun._printed.cache_info().maxsize
    assert maxsize is not None and genfun._root.cache_info().maxsize is not None
    for N in range(maxsize + 3):  # UD takes one shared root per N
        distribution_gf_closed("UD", N)
    for memo in (genfun._printed, genfun._root):
        assert memo.cache_info().currsize <= memo.cache_info().maxsize


def test_every_module_cache_is_bounded():
    # the module-level lru_caches of every submodule, each with its maxsize
    caches = {}
    for info in pkgutil.iter_modules(dyckmotz.__path__):
        module = importlib.import_module(f"dyckmotz.{info.name}")
        caches.update((f"{info.name}.{name}", value.cache_parameters()["maxsize"])
                      for name, value in vars(module).items()
                      if hasattr(value, "cache_parameters") and value.__module__ == module.__name__)
    assert caches == {"patterns._side_reader": 2, "patterns._plane": 3, "patterns._lanes": 8,
                      "genfun._root": 8, "genfun._printed": 32, "genfun._family_row": 25,
                      "enumeration._at_most": 2}


def test_the_forms_that_print_one_radical_share_its_root(monkeypatch):
    # 8 distinct radicals under the 11 closed forms and one under the 3 printed
    # popularity forms: 9 roots per truncation order, not one per form (14)
    roots, sqrt_unit = [], TruncatedSeries.sqrt_unit
    monkeypatch.setattr(TruncatedSeries, "sqrt_unit", lambda s: roots.append(1) or sqrt_unit(s))
    genfun._printed.cache_clear()
    genfun._root.cache_clear()
    for memo in ("cold", "warm"):
        for pattern in PATTERNS:
            distribution_gf_closed(pattern, 12)
            popularity_gf(pattern, 12)
        assert len(roots) == 9, memo


@pytest.mark.parametrize("first, second, other", [("UD", "DU", "brute"), ("UUD", "DUU", "brute"),
                                                  ("UDD", "DDU", "fixed")])
def test_each_form_of_a_shared_root_matches_its_other_route(first, second, other):
    genfun._printed.cache_clear()
    genfun._root.cache_clear()
    route = {"brute": distribution_brute_force, "fixed": distribution_gf_fixed_point}[other]
    for pattern in (first, second):  # the second reads the root the first left
        assert distribution_gf_closed(pattern, N) == route(pattern, N), pattern
