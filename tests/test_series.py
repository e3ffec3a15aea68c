from fractions import Fraction
from itertools import product
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyckmotz import (
    InexactDivisionError,
    NonSquareConstantTermError,
    NonUnitDivisorError,
    TruncatedSeries,
)
from dyckmotz.series import _OnlineSeries, _unpack, solve_fixed_point

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
    # an exact numerator, but the divisor's valuation exceeds the numerator's truncation
    with pytest.raises(InexactDivisionError, match="^divisor valuation exceeds truncation$"):
        TruncatedSeries.zero(2) / TruncatedSeries.x_var(5) ** 3


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
    cases = lambda s: (s + b, s - b, 3 - s, -s, 2 + s, b - s, b * s, s * s, s ** 0, s ** 3)
    for kind in range(2):  # a constant node, and one whose products read every row
        _assert_online(lambda w: cases(_nodes(a, w)[kind]), [c.coeffs for c in cases(a)],
                       a.trunc_x)
    oa = _OnlineSeries(0, None)._lift(a)
    for series in (a, oa):  # both rings share one power operator
        for k in (-1, 1.5):
            with pytest.raises(ValueError, match="nonnegative integer powers"):
                series ** k


def test_constructor_rejects_rows_the_ring_cannot_use():
    for rows in ([[1]], [[1], [], [], [], []], []):
        with pytest.raises(ValueError, match="rows for truncation order 3"):
            TruncatedSeries(3, rows)
    for bad in (1.5, 2.0, True, "1", None):
        with pytest.raises(TypeError, match="coefficient must be an int or a Fraction"):
            TruncatedSeries(1, [[bad], []])
        with pytest.raises(TypeError):
            TruncatedSeries(1, [[1], [0, bad]])


def test_truncate_rejects_a_negative_order():
    s = TruncatedSeries.one(3) + TruncatedSeries.x_var(3)
    for order in (-1, -2):
        with pytest.raises(ValueError, match="truncation order must be nonnegative"):
            s.truncate(order)
    assert s.truncate(0) == TruncatedSeries.one(0)


def test_a_truncation_order_must_be_an_int():
    s = TruncatedSeries.x_var(3)
    for make in (TruncatedSeries, TruncatedSeries.zero, TruncatedSeries.x_var,
                 TruncatedSeries.y_var, s.truncate):
        for order in (True, 2.0, "2", None):  # True is an int too
            with pytest.raises(TypeError, match="^truncation order must be an int, not "):
                make(order)
        with pytest.raises(ValueError, match="truncation order must be nonnegative"):
            make(-1)


def test_truncate_cannot_extend_a_series():
    with pytest.raises(ValueError, match="^cannot extend truncation 3 to 4$"):
        TruncatedSeries.x_var(3).truncate(4)


def test_an_online_node_refuses_an_operand_outside_its_ring():
    # an unknown takes ints, Fractions and series; anything else is no operand
    for bad in ("x", 1.5, None):
        with pytest.raises(TypeError, match=r"^unsupported operand type\(s\) for \+"):
            solve_fixed_point(2, lambda M: (M + bad,), 1)


def test_solve_fixed_point_checks_its_order():
    x = TruncatedSeries.x_var(2)
    for order, error, message in ((-1, ValueError, "must be nonnegative$"),
                                  (2.0, TypeError, "must be an int, not 2.0$")):
        with pytest.raises(error, match="^truncation order " + message):
            solve_fixed_point(order, lambda M: (1 + x*M,), 1)
    assert solve_fixed_point(2, lambda M: (1 + x*M,), 1)[0].coeffs == [[1]] * 3


def test_constructor_trims_and_normalises_rows():
    padded = TruncatedSeries(2, [[1, 0], [0, 0], [2, Fraction(4, 2), Fraction(0, 3)]])
    assert padded == TruncatedSeries(2, [[1], [], [2, 2]])
    assert padded.coeffs == [[1], [], [2, 2]]
    assert type(padded.coefficient(2, 1)) is int
    rows = [(1,), [Fraction(1, 2)]]  # any sequences, copied into the series' own lists
    s = TruncatedSeries(1, rows)
    rows[1].append(5)
    assert s.coeffs == [[1], [Fraction(1, 2)]]
    # every operation works on what the constructor accepted
    t = TruncatedSeries(3, [[1], [0, 0], [], [0, 1]])
    assert t + t == 2 * t
    assert (t * t).y_poly(3) == [0, 2]
    assert t.sqrt_unit() * t.sqrt_unit() == t


# An independent oracle for the packed kernel: schoolbook y-convolution,
# written here with no code shared with the ring.

def _oracle_poly(terms):
    """The trimmed y-polynomial of a {degree: coefficient} dict."""
    top = max((e for e, c in terms.items() if c), default=-1)
    return [terms.get(e, 0) for e in range(top + 1)]


def _oracle_product(a, b, n):
    """Rows 0..n of the product of two lists of y-polynomial rows."""
    out = []
    for k in range(n + 1):
        terms = {}
        for i in range(k + 1):
            if i < len(a) and k - i < len(b):
                for s, c in enumerate(a[i]):
                    for t, d in enumerate(b[k - i]):
                        terms[s + t] = terms.get(s + t, 0) + c * d
        out.append(_oracle_poly(terms))
    return out


def _oracle_quotient(a, b, n):
    """Rows 0..n of a / b for a divisor whose row 0 is one nonzero entry c."""
    (c,) = b[0]
    quot = []
    for k in range(n + 1):
        terms = dict(enumerate(a[k]))
        for i in range(1, min(k, len(b) - 1) + 1):
            for s, x in enumerate(b[i]):
                for t, q in enumerate(quot[k - i]):
                    terms[s + t] = terms.get(s + t, 0) - x * q
        quot.append(_oracle_poly({e: Fraction(v) / c for e, v in terms.items()}))
    return quot


def _assert_canonical(rows):
    """Trimmed rows whose integral entries are ints."""
    for row in rows:
        assert not row or row[-1] != 0
        for c in row:
            assert type(c) is int or (type(c) is Fraction and c.denominator != 1), c


BIG = 2 ** 200
ENTRY = st.one_of(
    st.integers(-BIG, BIG),
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, 2 ** 40)),
    st.sampled_from([BIG - 1, 1 - BIG, 2 ** 64 - 1, 1 - 2 ** 64, 0]))
ROW = st.lists(ENTRY, max_size=40)


def _rows(count):
    return st.lists(ROW, min_size=count, max_size=count)


def _series(rows):
    return TruncatedSeries(len(rows) - 1, rows)


def _nodes(series, w):
    """series on the online ring at y = 2^w (a majorant when w is None): as a
    constant, which products read at its nonzero rows, and as a node whose
    products read every row."""
    constant = _OnlineSeries(0, w)._lift(series)
    return constant, _OnlineSeries(constant.val, w, constant.row)


def _assert_online(build, wants, n):
    """build(w) gives online nodes at y = 2^w, one per rows in wants: each
    decodes to its rows at the fixed-point solver's width, and its majorant
    (w None) bounds the sum of each row's absolute values."""
    top = max((abs(c) for want in wants for row in want for c in row), default=0)
    w = (top.bit_length() + 8) & -8
    for node, want in zip(build(w), wants, strict=True):
        assert [_unpack(node.row(k), w, 1) for k in range(n + 1)] == want
    for node, want in zip(build(None), wants, strict=True):
        assert all(node.row(k) >= sum(map(abs, want[k])) for k in range(n + 1))


def _integral(*series):
    return all(type(c) is int for s in series for row in s.coeffs for c in row)


def _whole(series):
    """series times the lcm of its denominators: its rows over the integers."""
    return series * lcm(*(Fraction(c).denominator for row in series.coeffs for c in row))


def _assert_online_refuses(a, b):
    # the online ring takes integer constants only: a Fraction is refused
    # before anything is computed, at either point
    for w in (None, 64):
        with pytest.raises(TypeError, match="integer coefficients"):
            _OnlineSeries(0, w)._lift(a) * b
        with pytest.raises(TypeError, match="integer coefficients"):
            b * _OnlineSeries(0, w)._lift(a)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5).flatmap(lambda n: st.tuples(_rows(n + 1), _rows(n + 1))))
def test_products_match_the_oracle(pair):
    a, b = (_series(rows) for rows in pair)
    n = a.trunc_x
    want = _oracle_product(a.coeffs, b.coeffs, n)
    for got in ((a * b).coeffs, (b * a).coeffs):
        assert got == want
        _assert_canonical(got)
    square = _oracle_product(a.coeffs, a.coeffs, n)
    cube = _oracle_product(square, a.coeffs, n)
    # squares, and the first product of a power, are summed by symmetry
    for got, want_rows in (((a * a).coeffs, square), ((a ** 2).coeffs, square),
                           ((a ** 3).coeffs, cube)):
        assert got == want_rows
        _assert_canonical(got)
    if not _integral(a, b):
        _assert_online_refuses(a, b)
        a, b = _whole(a), _whole(b)  # the online cases on the same rows over the integers
        want = _oracle_product(a.coeffs, b.coeffs, n)
        square = _oracle_product(a.coeffs, a.coeffs, n)
        cube = _oracle_product(square, a.coeffs, n)
    # an online node shared by two products, and online squares and cubes
    for ka, kb in product(range(2), repeat=2):
        def build(w):
            oa, ob = _nodes(a, w)[ka], _nodes(b, w)[kb]
            return oa * b, b * oa, oa * ob, (oa * ob) * oa, oa * oa, oa ** 3
        _assert_online(build, [want, want, want, _oracle_product(want, a.coeffs, n),
                               square, cube], n)


MONOMIAL_COEFF = st.one_of(
    st.integers(1, 9), st.integers(-9, -1), st.sampled_from([BIG, -BIG]),
    st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(2, 9)))


@settings(max_examples=80, deadline=None)
@given(MONOMIAL_COEFF, st.integers(0, 6), st.integers(0, 2), st.integers(0, 3),
       st.integers(1, 6).flatmap(_rows))
def test_monomial_products_match_the_oracle(c, e, extra, m, b_rows):
    # c*x^e*y^m against a series of another truncation, e below, at or
    # above the product's; multiples of c's denominator make some products
    # Fractions that must come back as ints
    a = _series([[]] * e + [[0] * m + [c]] + [[]] * extra)
    b = _series([[v * Fraction(c).denominator for v in row] for row in b_rows])
    n = min(a.trunc_x, b.trunc_x)
    want = _oracle_product(a.coeffs, b.coeffs, n)
    for got in ((a * b).coeffs, (b * a).coeffs):
        assert got == want
        _assert_canonical(got)
    square = (a * a).coeffs
    assert square == _oracle_product(a.coeffs, a.coeffs, a.trunc_x)
    _assert_canonical(square)
    if not _integral(a, b):
        _assert_online_refuses(a, b)
        a, b = _whole(a), _whole(b)  # the online cases on the same rows over the integers
        want = _oracle_product(a.coeffs, b.coeffs, n)
    assert _OnlineSeries(0, 64)._lift(a).nonzero == [e]  # a product reads one row
    for kind in range(2):
        _assert_online(lambda w: (_nodes(a, w)[kind] * b, b * _nodes(a, w)[kind]), [want] * 2, n)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: _rows(n)))
def test_square_roots_match_the_oracle(rows):
    f = _series([[1]] + rows)
    root = f.sqrt_unit()
    _assert_canonical(root.coeffs)
    assert root.coeffs[0] == [1]
    assert _oracle_product(root.coeffs, root.coeffs, f.trunc_x) == f.coeffs


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 4).flatmap(lambda n: st.tuples(_rows(n + 1), _rows(n))),
       ENTRY.filter(bool), st.integers(0, 3), ENTRY.filter(bool), st.integers(1, 5),
       st.integers(0, 3))
def test_quotients_match_the_oracle(pair, lead, m, d, e, t):
    a_rows, b_rows = pair
    n = len(b_rows)
    # b_rows as drawn (packed), and a binomial lead*y^m + d*x^e*y^t (scaled
    # row by row; a monomial when e > n) with the same lead
    binomial = [[0] * t + [d] if i == e else [] for i in range(1, n + 1)]
    for tail in (b_rows, binomial):
        a, unit = _series(a_rows), _series([[lead]] + tail)
        got = (a / unit).coeffs
        assert got == _oracle_quotient(a.coeffs, unit.coeffs, n)
        _assert_canonical(got)
        # a lead y^m: the numerator is the oracle's product of a known quotient
        b = _series([[0] * m + [lead]] + tail)
        num = _oracle_product(a.coeffs, b.coeffs, n)
        got = (_series(num) / b).coeffs
        assert got == a.coeffs
        _assert_canonical(got)
        if m:  # one more y^(m-1) in the last row: both paths refuse it alike
            num[n] = num[n] + [0] * (m - len(num[n]))
            num[n][m - 1] += 1
            with pytest.raises(InexactDivisionError) as raised:
                _series(num) / b
            assert str(raised.value) == (
                f"term x^{n} y^{m - 1} not divisible by divisor lead y^{m}")


@pytest.mark.parametrize("bits", [29, 30, 61, 62, 200])
@pytest.mark.parametrize("count, length", [(3, 5), (5, 3), (4, 4), (2, 16), (7, 9), (15, 17)])
@pytest.mark.parametrize("sign", [1, -1])
def test_kernel_at_its_width_bound(bits, count, length, sign):
    # count rows of length entries 2^bits - 1 against count rows of
    # sign * (2^bits - 1): the middle entry of the last product row sums
    # P*L = count*length products of the largest size, with P*L next to or
    # at a power of two, where (P*L).bit_length() steps
    top = 2 ** bits - 1
    a = _series([[top] * length for _ in range(count)])
    b = _series([[sign * top] * length for _ in range(count)])
    n = count - 1
    want = _oracle_product(a.coeffs, b.coeffs, n)
    assert want[n][length - 1] == sign * count * length * top * top
    assert (a * b).coeffs == want
    for ka, kb in product(range(2), repeat=2):
        _assert_online(lambda w: [_nodes(a, w)[ka] * _nodes(b, w)[kb]], [want], n)
    # a square sums the same P*L products, its cross pairs once and doubled
    for f in (a, b):
        square = _oracle_product(f.coeffs, f.coeffs, n)
        assert square[n][length - 1] == count * length * top * top
        assert (f * f).coeffs == square
        for kind in range(2):
            _assert_online(lambda w: [_nodes(f, w)[kind] ** 2], [square], n)
    # the same rows as a root and as a quotient
    root = _series([[1]] + b.coeffs[1:])
    assert _series(_oracle_product(root.coeffs, root.coeffs, n)).sqrt_unit() == root
    assert _series(_oracle_product(a.coeffs, root.coeffs, n)) / root == a


@pytest.mark.parametrize("e", [4, 8, 16])
@pytest.mark.parametrize("sign", [1, -1])
def test_root_at_its_width_bound(e, sign):
    # f = 1 + c*x^e: the first order the root computes is e, where the sum
    # is e*c, weight e on one term; with c of 61 bits the bound's p = 2e
    # widens the kernel's first width past 64, and p = 1 would leave it at
    # 64, which cannot hold 8c or 16c
    c = sign * (2 ** 61 - 1)
    f = _series([[1]] + [[]] * (e - 1) + [[c]] + [[]] * e)
    root = f.sqrt_unit()
    assert root.coeffs[e] == [Fraction(c, 2)]
    assert _oracle_product(root.coeffs, root.coeffs, f.trunc_x) == f.coeffs
    _assert_canonical(root.coeffs)


def test_results_own_their_rows():
    # a result never hands out an operand's row, not even for an empty row
    a = _series([[1, 2], [], [Fraction(1, 2)], [], [3]])
    b = _series([[], [4], [], [], [0, 5]])
    x, y = TruncatedSeries.x_var(4), TruncatedSeries.y_var(4)
    divisors = [1 - x, 1 - x - x * y ** 2, 2 * x * (3 * x - 1), 2 * x ** 2 * y ** 2, y]
    operands = [a, b, *divisors]
    before = [[list(row) for row in s.coeffs] for s in operands]
    results = [a + b, a - b, b - a, -a, a + 0, 3 * x ** 2 * y * a, a * 3, a * a, b * b]
    results += [a * x ** 2 * y ** 2 / d for d in divisors]
    for result in results:
        for row in result.coeffs:
            row.append(7)
    assert [s.coeffs for s in operands] == before


def test_every_kernel_user_is_exact_over_q():
    root = (ONE - 2 * X * Y).sqrt_unit()
    # sqrt(1 - 2t) = 1 - t - t^2/2 - t^3/2 - 5t^4/8 - ..., t = xy
    assert [root.coefficient(n, n) for n in range(5)] == [
        1, -1, Fraction(-1, 2), Fraction(-1, 2), Fraction(-5, 8)]
    assert root * root == ONE - 2 * X * Y
    num = ONE + 3 * X * Y - Fraction(5, 7) * X ** 2 + X ** 3 * Y ** 2
    den = Fraction(2, 3) + X
    quotient = num / den
    assert quotient.coeffs == _oracle_quotient(num.coeffs, den.coeffs, T)
    assert quotient * den == num
    walk = ONE + X * Y + 2 * X ** 2 + Fraction(3, 2) * X ** 3 * Y
    _assert_online_refuses(walk, ONE)
    whole = walk * 2  # the same walk on the online ring, which holds ints only
    for scale in (Fraction(1, 3), Fraction(4, 2), Fraction(-6, 4)):
        eager = whole * scale
        if _integral(eager):  # 4/2 is the int 2
            _assert_online(lambda w: (_nodes(whole, w)[0] * scale, scale * _nodes(whole, w)[0],
                                      _nodes(whole, w)[1] * _nodes(eager, w)[0]),
                           [eager.coeffs, eager.coeffs, (whole * eager).coeffs], T)
        else:
            _assert_online_refuses(eager, whole)
            for w in (None, 64):
                with pytest.raises(TypeError, match="integer coefficients"):
                    _OnlineSeries(0, w)._lift(whole) * scale
    results = [root, quotient, root * root, quotient * den, walk * Fraction(4, 2),
               (walk * Fraction(2, 3)) * Fraction(3, 2)]
    for series in results:
        _assert_canonical(series.coeffs)
    assert type(results[-1].coefficient(0)) is int
