from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from divisibility import divisibility_order
from quasinv.laurent import character, delta, exact_div, order_at_one, z_power
from quasinv.poly import INFINITE_ORDER, Polynomial
from quasinv.series import PowerSeries, ZQSeries
from zq_substitutions import negate_z, shift_q, square_z


def test_laurent_involution_is_ring_automorphism():
    f = character({3: Fraction(2), -1: Fraction(1)})
    g = character({0: Fraction(1), 2: Fraction(-1)})
    assert (f * g).involution() == f.involution() * g.involution()
    assert f.involution().involution() == f


def test_laurent_exact_division():
    f = delta().q_slice(0)  # z - 2 + 1/z = (1 - z)^2 / z
    one_minus_z = {0: 1, 2: -1}
    q = exact_div(f, one_minus_z)
    assert character(q) * character(one_minus_z) == delta()
    with pytest.raises(ArithmeticError):
        exact_div({2: 1, 0: 1}, (character(one_minus_z) ** 2).q_slice(0))


def test_exact_div_of_int_levels_stays_exact():
    q = exact_div({0: 1}, {0: 3})
    assert q == {0: Fraction(1, 3)} and type(q[0]) is Fraction
    # a level formed by subtraction may hold zero entries, on either side
    q = exact_div({4: 1, 2: 0, 0: -1}, {2: 1, 0: -1, -2: 0})
    assert q == {2: 1, 0: 1} and all(type(c) is Fraction for c in q.values())
    q = exact_div({0: 0, 2: 4, 4: 6}, {0: 2, 2: 0})
    assert q == {2: 2, 4: 3} and all(type(c) is Fraction for c in q.values())
    assert exact_div({0: 0, 2: 0}, {0: 5}) == {}
    with pytest.raises(ZeroDivisionError):
        exact_div({0: 1}, {0: 0})
    assert order_at_one({2: 1, 0: -2, -2: 1, 4: 0}) == 2
    assert order_at_one({4: 0, 0: 0}) == INFINITE_ORDER


def test_order_at_one():
    one_minus_z = {0: 1, 2: -1}
    assert order_at_one(one_minus_z) == 1
    assert order_at_one(delta().q_slice(0)) == 2
    assert order_at_one((delta() ** 3).q_slice(0)) == 6
    assert order_at_one(z_power(-2).q_slice(0)) == 0
    # zero has the sentinel of divisibility_order
    x = Polynomial.variable(("x",), "x")
    assert order_at_one({}) == INFINITE_ORDER
    assert divisibility_order(Polynomial.zero(("x",)), x) == INFINITE_ORDER


def test_zq_multiplication_matches_polynomial_case():
    # exact finite sums with ample order: series product = polynomial product
    f = ZQSeries({(2, 0): 1, (0, 1): 2}, 10)     # z + 2q
    g = ZQSeries({(-2, 0): 1, (2, 2): -1}, 10)   # 1/z - q^2 z
    prod = f * g
    expected = ZQSeries(
        {(0, 0): 1, (-2, 1): 2, (4, 2): -1, (2, 3): -2}, 10
    )
    assert prod == expected


def test_zq_q_order_minimum():
    f = ZQSeries({(0, 0): 1}, 5)
    g = ZQSeries({(0, 0): 1}, 9)
    assert (f * g).q_order == 5
    assert (f + g).q_order == 5


def test_zq_involution_and_substitutions():
    f = ZQSeries({(2, 0): 1, (-4, 1): 3}, 8)  # z + 3 q z^-2
    assert f.involution() == ZQSeries({(-2, 0): 1, (4, 1): 3}, 8)
    assert negate_z(f) == ZQSeries({(2, 0): -1, (-4, 1): 3}, 8)
    assert square_z(f) == ZQSeries({(4, 0): 1, (-8, 1): 3}, 8)


def test_zq_shift_q():
    f = ZQSeries({(2, 0): 1, (4, 1): 1}, 8)  # z + q z^2
    shifted = shift_q(f)
    assert shifted == ZQSeries({(2, 1): 1, (4, 3): 1}, 8)
    with pytest.raises(ValueError):
        shift_q(ZQSeries({(-2, 0): 1}, 8))  # would need q^-1


def test_zq_half_integer_guards():
    half = ZQSeries({(1, 0): 1}, 6)  # z^(1/2)
    with pytest.raises(ValueError):
        negate_z(half)
    with pytest.raises(ValueError):
        shift_q(half)
    assert square_z(half) == ZQSeries({(2, 0): 1}, 6)


def test_q_series_unit_inverse():
    series = PowerSeries([1, -1], 8, "q")  # 1 - q
    inv = ZQSeries.from_q_coeffs(series.inverse().coeffs, 8)
    assert inv == ZQSeries.from_q_coeffs([1] * 8, 8)
    assert ZQSeries.from_q_coeffs(series.coeffs, 8) * inv == ZQSeries.one(8)
    with pytest.raises(ValueError):
        PowerSeries([2], 4, "q").inverse()


def test_zq_equality_needs_equal_q_orders():
    low = ZQSeries({(0, 0): 1, (2, 1): 3}, 2)
    high = ZQSeries({(0, 0): 1, (2, 1): 3}, 5)  # the same truncation, certified further
    assert low != high
    assert low == ZQSeries({(0, 0): 1, (2, 1): 3}, 2)
    assert low == high.truncate_q(2)


# -- PowerSeries against a naive reference -------------------------------------

COEFFICIENTS = st.one_of(
    st.integers(-5, 5), st.fractions(min_value=-5, max_value=5, max_denominator=6))
INTEGERS = st.integers(-5, 5)


@st.composite
def power_series(draw, coefficient=COEFFICIENTS, unit=None):
    """Orders 0-10; with `unit`, a constant term drawn from it and order >= 1."""
    order = draw(st.integers(0 if unit is None else 1, 10))
    coeffs = draw(st.lists(coefficient, max_size=order + 2))  # longer lists are cut
    if unit is not None:
        coeffs = [draw(unit)] + coeffs
    return PowerSeries(coeffs, order)


def _convolution(a, b):
    n = min(a.order, b.order)
    return [sum(a.coeffs[i] * b.coeffs[k - i] for i in range(k + 1)) for k in range(n)]


@given(power_series(), power_series(), COEFFICIENTS)
def test_power_series_arithmetic_matches_a_naive_reference(a, b, c):
    n = min(a.order, b.order)
    assert (a * b).order == (a + b).order == n
    assert list((a * b).coeffs) == _convolution(a, b)
    assert list((a + b).coeffs) == [a.coeffs[k] + b.coeffs[k] for k in range(n)]
    assert list((a - b).coeffs) == [a.coeffs[k] - b.coeffs[k] for k in range(n)]
    assert list((a * c).coeffs) == list((c * a).coeffs) == [x * c for x in a.coeffs]
    assert a**3 == a * a * a and a**0 == PowerSeries([1], a.order)


@given(power_series(), power_series(), power_series())
def test_power_series_ring_laws(a, b, c):
    assert a * b == b * a and a + b == b + a
    assert (a * b) * c == a * (b * c) and (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c


@given(power_series(unit=st.sampled_from((1, -1, Fraction(1), Fraction(-1)))))
def test_power_series_unit_inverse(s):
    one = PowerSeries([1], s.order)
    assert s * s.inverse() == one and s.inverse() * s == one


@given(power_series(), COEFFICIENTS.filter(lambda c: c not in (1, -1)))
def test_power_series_non_units_are_not_inverted(s, c):
    non_unit = s - s.coeffs[0] + c if s.order else s  # order 0 has no constant term
    with pytest.raises(ValueError):
        non_unit.inverse()


@given(power_series(INTEGERS), power_series(INTEGERS),
       power_series(INTEGERS, unit=st.sampled_from((1, -1))), INTEGERS)
def test_integer_power_series_keep_int_coefficients(a, b, u, c):
    for s in (a + b, a - b, a * b, a * c, c - a, a**2, u.inverse(), u * u.inverse()):
        assert all(type(x) is int for x in s.coeffs), s


@given(st.lists(COEFFICIENTS, max_size=10), st.integers(0, 10), st.integers(1, 5))
def test_power_series_equality_needs_equal_orders(coeffs, order, more):
    s = PowerSeries(coeffs, order)
    assert s != PowerSeries(coeffs, order + more)
    assert s == PowerSeries(list(s.coeffs) + [7], order)


def test_power_series_refuse_negative_orders_and_powers():
    with pytest.raises(ValueError):
        PowerSeries([1, 2, 3, 4, 5], -2)
    with pytest.raises(ValueError):
        PowerSeries([1, 1], 4) ** -1


# -- ZQSeries against a naive reference ----------------------------------------

ZQ_COEFFICIENTS = st.one_of(
    st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=4))


@st.composite
def zq_series(draw, coefficient=ZQ_COEFFICIENTS):
    """Half-integer z-exponents (w from -5 to 5), q-exponents 0-7 and
    q-orders 0-8, so operands often have unequal orders and terms past the cut."""
    terms = draw(st.dictionaries(st.tuples(st.integers(-5, 5), st.integers(0, 7)),
                                 coefficient, max_size=10))
    return ZQSeries(terms, draw(st.integers(0, 8)))


def _reference_product(a, b):
    """All term pairs in Fraction arithmetic, cut at the smaller q-order."""
    n = min(a.q_order, b.q_order)
    out = {}
    for (w1, s1), c1 in a.coeffs.items():
        for (w2, s2), c2 in b.coeffs.items():
            if s1 + s2 < n:
                key = (w1 + w2, s1 + s2)
                out[key] = out.get(key, Fraction(0)) + Fraction(c1) * Fraction(c2)
    return ZQSeries(out, n)


def _reference_sum(a, b, sign=1):
    n = min(a.q_order, b.q_order)
    out = {k: Fraction(c) for k, c in a.coeffs.items() if k[1] < n}
    for k, c in b.coeffs.items():
        if k[1] < n:
            out[k] = out.get(k, Fraction(0)) + sign * Fraction(c)
    return ZQSeries(out, n)


def _as_fractions(f):
    return {k: Fraction(c) for k, c in f.coeffs.items()}


def _same(f, g):
    return f.q_order == g.q_order and _as_fractions(f) == _as_fractions(g)


@given(zq_series(), zq_series())
def test_zq_arithmetic_matches_a_naive_reference(a, b):
    assert _same(a * b, _reference_product(a, b))
    assert _same(a + b, _reference_sum(a, b))
    assert _same(a - b, _reference_sum(a, b, -1))
    cube = _reference_product(_reference_product(a, a), a)
    assert _same(a**3, cube) and _same(a**0, ZQSeries.one(a.q_order))
    # cancellations leave no stored zeros
    assert not (a - a).coeffs and not (a * b - b * a).coeffs
    assert all((a * b).coeffs.values()) and all((a + b).coeffs.values())


def test_zq_product_cancels_to_exact_zeros():
    one_minus_z = ZQSeries({(0, 0): 1, (2, 0): -1}, 6)
    one_plus_z = ZQSeries({(0, 0): 1, (2, 0): 1}, 6)
    assert (one_minus_z * one_plus_z).coeffs == {(0, 0): 1, (4, 0): -1}
    half = ZQSeries({(1, 2): Fraction(1, 2), (-1, 0): 2}, 4)
    assert (half * 2).coeffs == {(1, 2): 1, (-1, 0): 4}
    assert (half * ZQSeries({(0, 2): 1}, 9)).coeffs == {(-1, 2): 2}  # q^4 is cut


@given(zq_series(st.integers(-3, 3)), zq_series(st.integers(-3, 3)), st.integers(-3, 3))
def test_integral_zq_series_store_ints(a, b, c):
    for f in (a * b, a + b, a - b, a**2, a * c, c * a, a - c, -a, a.involution()):
        assert all(type(x) is int for x in f.coeffs.values()), f
    for w, s in list(a.coeffs) + [(0, 0), (1, 9)]:
        assert type(a.coefficient(Fraction(w, 2), s)) is Fraction
        assert all(type(x) is Fraction for x in a.q_slice(s).values())


def test_integral_fractions_are_stored_as_ints():
    f = ZQSeries({(0, 0): Fraction(4, 2), (2, 1): Fraction(1, 3)}, 4)
    assert f.coeffs == {(0, 0): 2, (2, 1): Fraction(1, 3)}
    assert type(f.coeffs[(0, 0)]) is int
    assert type((f * 3).coeffs[(2, 1)]) is int
    assert f.q_slice(0) == {0: Fraction(2)} and type(f.q_slice(0)[0]) is Fraction
    assert f.coefficient(Fraction(1), 1) == Fraction(1, 3)
    assert type(f.coefficient(5, 0)) is Fraction
