from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyckmotz import (
    InexactDivisionError,
    NonSquareConstantTermError,
    NonUnitDivisorError,
    TruncatedSeries,
)
from dyckmotz.series import _OnlineSeries

T = 12
X = TruncatedSeries.x_var(T)
Y = TruncatedSeries.y_var(T)
ONE = TruncatedSeries.one(T)


def test_constructors_and_coefficients():
    s = ONE + 2 * X + 3 * X * Y
    assert s.coefficient(0) == 1
    assert s.coefficient(1, 0) == 2
    assert s.coefficient(1, 1) == 3
    assert s.coefficient(2, 5) == 0
    for bad in (-1, -T - 1, T + 1):
        with pytest.raises(ValueError):
            s.coefficient(bad)
        with pytest.raises(ValueError):
            s.y_poly(bad)
    assert TruncatedSeries.zero(T) == 0
    assert s != 0
    assert TruncatedSeries.constant(Fraction(1, 10), 2).coefficient(0) == Fraction(1, 10)
    for bad in (0.1, 2.0, "1", True, False):
        with pytest.raises(TypeError):
            TruncatedSeries.constant(bad, 2)


def test_ring_arithmetic():
    assert (ONE + X) * (ONE - X) == ONE - X * X
    assert (ONE + X) ** 3 == ONE + 3 * X + 3 * X ** 2 + X ** 3
    assert -(X - Y * X) == Y * X - X
    assert 1 + X == X + 1
    assert (2 - X) - 1 == ONE - X
    assert X * 0 == TruncatedSeries.zero(T)


def test_fractions_normalize_to_ints_when_exact():
    s = Fraction(1, 2) * X + Fraction(1, 2) * X
    assert s.coefficient(1) == 1
    assert isinstance(s.coefficient(1), int)
    t = Fraction(1, 3) * X
    assert t.coefficient(1) == Fraction(1, 3)


def test_truncation_reduces_on_mixed_ops():
    a = TruncatedSeries.one(10) + TruncatedSeries.x_var(10)
    b = TruncatedSeries.one(6)
    assert (a + b).trunc_x == 6
    assert (a * b).trunc_x == 6
    assert a.truncate(4).trunc_x == 4


def test_geometric_series_inversion():
    geo = ONE / (ONE - X)
    assert all(geo.coefficient(n) == 1 for n in range(T + 1))
    assert (ONE - X) * geo == ONE
    mixed = ONE + X * Y + X * X
    assert mixed / mixed == ONE


def test_division_drops_truncation_by_valuation():
    num = X * X * (ONE + Y)
    quotient = num / X
    assert quotient.trunc_x == T - 1
    assert quotient.coefficient(1, 0) == 1
    assert quotient.coefficient(1, 1) == 1


def test_division_requires_monomial_lead():
    with pytest.raises(NonUnitDivisorError):
        ONE / (X + X * Y)  # lowest x-slice has two y-terms
    with pytest.raises(ZeroDivisionError):
        ONE / TruncatedSeries.zero(T)


def test_division_by_monomial():
    s = X * X * Y + X ** 3 * Y ** 2
    q = s / (X * X * Y)
    assert q.trunc_x == T - 2
    assert q.coefficient(0, 0) == 1
    assert q.coefficient(1, 1) == 1
    with pytest.raises(InexactDivisionError):
        (X + Y * X) / Y
    with pytest.raises(InexactDivisionError):
        X / X ** 2


def test_division_by_unit():
    assert (ONE - X) / (ONE - X) == ONE


def test_sqrt_unit_exact_square():
    s = (ONE + X) * (ONE + X)
    assert s.sqrt_unit() == ONE + X
    with pytest.raises(NonSquareConstantTermError):
        (2 + X).sqrt_unit()
    with pytest.raises(NonSquareConstantTermError):
        X.sqrt_unit()


def test_sqrt_unit_catalan():
    # (1 - sqrt(1-4x)) / (2x) is the Catalan series
    rad = (ONE - 4 * X).sqrt_unit()
    cat = (ONE - rad) / X * Fraction(1, 2)
    expected = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786]
    assert [cat.coefficient(n) for n in range(T)] == expected


def test_sqrt_unit_binomial_fractions():
    # (1 + x)^(1/2) = sum binom(1/2, n) x^n
    root = (ONE + X).sqrt_unit()
    assert [root.coefficient(n) for n in range(5)] == [
        1, Fraction(1, 2), Fraction(-1, 8), Fraction(1, 16), Fraction(-5, 128)]
    assert isinstance(root.coefficient(0), int)
    assert root * root == ONE + X


def test_sqrt_unit_y_dependent_radical_deep():
    # the radical of the UD closed form, far past the campaign's truncation
    x, y = TruncatedSeries.x_var(96), TruncatedSeries.y_var(96)
    rad = -4 * x ** 2 + (x ** 2 * (y - 1) + x * y - 1) ** 2
    root = rad.sqrt_unit()
    assert root.trunc_x == 96
    assert root * root == rad


def test_derivative_and_eval():
    s = ONE + X * Y + 3 * X * X * Y ** 2
    d = s.d_dy()
    assert d.coefficient(1, 0) == 1
    assert d.coefficient(2, 1) == 6
    assert s.eval_y(1).coefficient(2) == 3
    assert s.eval_y(0) == ONE
    assert s.eval_y(2).coefficient(2) == 12
    assert s.eval_y(Fraction(1, 2)).coefficient(2) == Fraction(3, 4)
    for bad in (0.5, 1.0, True, "1"):
        with pytest.raises(TypeError):
            s.eval_y(bad)


def test_dump_format():
    s = ONE + 2 * X * Y
    lines = s.dump().splitlines()
    assert lines[0] == "0: 1"
    assert lines[1] == "1: 0 2"
    assert lines[2] == "2: 0"


COEFFS = st.lists(
    st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=3),
    min_size=1, max_size=5)


def _build(coeff_rows, trunc=8):
    s = TruncatedSeries.zero(trunc)
    x = TruncatedSeries.x_var(trunc)
    y = TruncatedSeries.y_var(trunc)
    for n, row in enumerate(coeff_rows):
        for k, c in enumerate(row):
            s = s + c * x ** n * y ** k
    return s


@settings(max_examples=100, deadline=None)
@given(COEFFS)
def test_sqrt_round_trip(coeff_rows):
    # constant slice forced to exactly 1, the sqrt contract
    s = _build([[1]] + coeff_rows)
    root = s.sqrt_unit()
    assert root * root == s.truncate(root.trunc_x)


@settings(max_examples=100, deadline=None)
@given(COEFFS, COEFFS)
def test_division_round_trip(a_rows, b_rows):
    a = _build(a_rows)
    b = _build([[1]] + b_rows)  # unit head so division is defined
    assert (a * b) / b == a.truncate((a * b).trunc_x)


@settings(max_examples=50, deadline=None)
@given(COEFFS, COEFFS)
def test_online_series_matches_the_ring(a_rows, b_rows):
    # the nodes the fixed-point route solves with, against the eager ring
    a, b = _build(a_rows), _build(b_rows)
    oa = _OnlineSeries._lift(a)
    cases = [(oa + b, a + b), (oa - b, a - b), (3 - oa, 3 - a), (-oa, -a),
             (2 + oa, 2 + a), (b - oa, b - a),
             (b * oa, b * a), (oa * oa, a * a), (oa ** 0, a ** 0), (oa ** 3, a ** 3)]
    for online, eager in cases:
        assert [online.row(k) for k in range(a.trunc_x + 1)] == eager.coeffs
    for series in (a, oa):  # both rings share one power operator
        for k in (-1, 1.5):
            with pytest.raises(ValueError, match="nonnegative integer powers"):
                series ** k
