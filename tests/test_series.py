from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quasinv.laurent import LaurentElement, exact_div, order_at_one
from quasinv.poly import INFINITE_ORDER, Polynomial, divisibility_order
from quasinv.series import PowerSeries, ZQSeries


def test_laurent_involution_is_ring_automorphism():
    f = LaurentElement({3: Fraction(2), -1: Fraction(1)})
    g = LaurentElement({0: Fraction(1), 2: Fraction(-1)})
    assert (f * g).involution() == f.involution() * g.involution()
    assert f.involution().involution() == f


def test_laurent_exact_division():
    f = LaurentElement.delta()  # z - 2 + 1/z = (1 - z)^2 / z
    one_minus_z = LaurentElement({0: 1, 2: -1})
    q = exact_div(f, one_minus_z)
    assert q * one_minus_z == f
    with pytest.raises(ArithmeticError):
        exact_div(LaurentElement.z_power(1) + 1, one_minus_z * one_minus_z)


def test_order_at_one():
    one_minus_z = LaurentElement({0: 1, 2: -1})
    assert order_at_one(one_minus_z) == 1
    assert order_at_one(LaurentElement.delta()) == 2
    assert order_at_one(LaurentElement.delta() ** 3) == 6
    assert order_at_one(LaurentElement.z_power(-2)) == 0
    # zero has the sentinel of divisibility_order
    x = Polynomial.variable(("x",), "x")
    assert order_at_one(LaurentElement()) == INFINITE_ORDER
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
    assert f.negate_z() == ZQSeries({(2, 0): -1, (-4, 1): 3}, 8)
    assert f.square_z() == ZQSeries({(4, 0): 1, (-8, 1): 3}, 8)


def test_zq_shift_q():
    f = ZQSeries({(2, 0): 1, (4, 1): 1}, 8)  # z + q z^2
    shifted = f.shift_q()
    assert shifted == ZQSeries({(2, 1): 1, (4, 3): 1}, 8)
    with pytest.raises(ValueError):
        ZQSeries({(-2, 0): 1}, 8).shift_q()  # would need q^-1


def test_zq_half_integer_guards():
    half = ZQSeries({(1, 0): 1}, 6)  # z^(1/2)
    with pytest.raises(ValueError):
        half.negate_z()
    with pytest.raises(ValueError):
        half.shift_q()
    assert half.square_z() == ZQSeries({(2, 0): 1}, 6)


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
    assert low.agree_through(high, 2)


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
