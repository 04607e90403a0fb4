import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasinv.fields import Cyclotomic, cyclotomic_polynomial


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == [-1, 1]
    assert cyclotomic_polynomial(2) == [1, 1]
    assert cyclotomic_polynomial(3) == [1, 1, 1]
    assert cyclotomic_polynomial(4) == [1, 0, 1]
    assert cyclotomic_polynomial(6) == [1, -1, 1]
    assert cyclotomic_polynomial(8) == [1, 0, 0, 0, 1]
    assert cyclotomic_polynomial(10) == [1, -1, 1, -1, 1]
    assert cyclotomic_polynomial(12) == [1, 0, -1, 0, 1]


@pytest.mark.parametrize("n", [3, 4, 5, 6, 8, 10])
def test_zeta_has_order_n(n):
    z = Cyclotomic.zeta(n)
    power = Cyclotomic.from_rational(n, 1)
    for k in range(1, n):
        power = power * z
        assert power != 1 or (k + 1) % n == 0
    assert power * z == 1


def _random_element(rng, n):
    d = len(cyclotomic_polynomial(n)) - 1
    return Cyclotomic(n, [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(d)])


@pytest.mark.parametrize("n", [5, 8])
def test_field_axioms_randomized(n):
    rng = random.Random(20240 + n)
    for _ in range(25):
        a, b, c = (_random_element(rng, n) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        if a:
            assert a * a.inverse() == 1
        if b:
            assert (a / b) * b == a


def test_conjugation_is_involutive_automorphism():
    rng = random.Random(7)
    for _ in range(20):
        a = _random_element(rng, 12)
        b = _random_element(rng, 12)
        assert a.conjugate().conjugate() == a
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        assert (a + b).conjugate() == a.conjugate() + b.conjugate()


def test_zeta_conjugate_is_inverse():
    z = Cyclotomic.zeta(7)
    assert z * z.conjugate() == 1


def test_mixed_orders_rejected():
    with pytest.raises(ValueError):
        Cyclotomic.zeta(3) + Cyclotomic.zeta(4)
    with pytest.raises(ValueError):
        Cyclotomic.zeta(5) * Cyclotomic.zeta(8)


def test_rational_embedding():
    a = Cyclotomic.from_rational(6, Fraction(3, 2))
    assert a + Fraction(1, 2) == 2
    assert a.rational_part() == Fraction(3, 2)
    assert Cyclotomic.zeta(6).rational_part() is None


_RATIONALS = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
)


@st.composite
def _element_and_rational(draw):
    n = draw(st.sampled_from([3, 4, 5, 6, 8, 10, 12]))
    d = len(cyclotomic_polynomial(n)) - 1
    coords = draw(st.lists(_RATIONALS, min_size=d, max_size=d))
    return Cyclotomic(n, coords), draw(_RATIONALS)


@settings(max_examples=150, deadline=None)
@given(_element_and_rational())
def test_rational_operands_act_as_embedded_rationals(pair):
    a, q = pair
    e = Cyclotomic.from_rational(a.n, q)
    for got, want in ((a + q, a + e), (q + a, e + a), (a * q, a * e), (q * a, e * a),
                      (a - q, a - e), (q - a, e - a)):
        assert isinstance(got, Cyclotomic) and got.n == a.n
        assert got.coords == want.coords
        assert all(type(c) is Fraction for c in got.coords)
