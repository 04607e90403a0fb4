from fractions import Fraction

import pytest

from quasinv.laurent import LaurentElement, exact_div, order_at_one
from quasinv.poly import INFINITE_ORDER, Polynomial, divisibility_order
from quasinv.series import ZQSeries, invert_q_unit


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


def test_invert_q_unit():
    series = ZQSeries.from_q_coeffs([1, -1], 8)  # 1 - q
    inv = invert_q_unit(series)
    assert inv == ZQSeries.from_q_coeffs([1] * 8, 8)
    assert series * inv == ZQSeries.one(8)
    with pytest.raises(ValueError):
        invert_q_unit(ZQSeries.from_q_coeffs([2], 4))


def test_zq_equality_needs_equal_q_orders():
    low = ZQSeries({(0, 0): 1, (2, 1): 3}, 2)
    high = ZQSeries({(0, 0): 1, (2, 1): 3}, 5)  # the same truncation, certified further
    assert low != high
    assert low == ZQSeries({(0, 0): 1, (2, 1): 3}, 2)
    assert low.agree_through(high, 2)
