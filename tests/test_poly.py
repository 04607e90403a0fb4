import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from divisibility import divisibility_order
from quasinv.fields import Cyclotomic
from quasinv.poly import (
    Polynomial,
    divide_by_linear,
    exact_quotient_by_power,
    monomials_of_degree,
    multiply_terms,
)

VARS = ("x", "y")


def x_y():
    return Polynomial.variable(VARS, "x"), Polynomial.variable(VARS, "y")


def test_basic_arithmetic():
    x, y = x_y()
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert (x + 1) ** 2 == x * x + 2 * x + 1
    assert not (p - p)


def test_degree_of_product_adds():
    rng = random.Random(11)
    for _ in range(20):
        p = _random_poly(rng)
        q = _random_poly(rng)
        if p and q:
            assert (p * q).degree() == p.degree() + q.degree()


def _random_poly(rng, nterms=4, maxdeg=4):
    terms = {}
    for _ in range(nterms):
        exp = (rng.randint(0, maxdeg), rng.randint(0, maxdeg))
        terms[exp] = Fraction(rng.randint(-4, 4))
    return Polynomial(VARS, terms)


def test_divisibility_order_monomial():
    x, y = x_y()
    assert divisibility_order(x * x * y, x) == 2


def test_divisibility_order_factored():
    x, y = x_y()
    p = (x - y) ** 3 * (x + y)
    assert divisibility_order(p, x - y) == 3


def test_divisibility_order_unit_and_zero():
    x, y = x_y()
    one = Polynomial.constant(VARS, 1)
    assert divisibility_order(one, x) == 0
    assert divisibility_order(Polynomial.zero(VARS), x) == math.inf


def test_divisibility_second_variable_pivot():
    # forms whose first nonzero coefficient is not in the leading slot
    x, y = x_y()
    assert divisibility_order(y**3 * x, y) == 3
    assert divisibility_order((x + y) ** 2 * y, y) == 1
    assert divisibility_order(x**2, y) == 0


def test_divisibility_order_is_additive():
    rng = random.Random(23)
    x, y = x_y()
    # the last is the hyperplane z1 - zeta_10^2 z2 of I2(5)
    forms = [x, y, x - y, x + 2 * y, y + x * 0 + Fraction(1, 2) * x,
             x - Cyclotomic.zeta(10, 2) * y]
    for _ in range(30):
        alpha = forms[rng.randrange(len(forms))]
        p = _random_poly(rng) * alpha ** rng.randint(0, 2)
        q = _random_poly(rng) * alpha ** rng.randint(0, 2)
        if not p or not q:
            continue
        assert divisibility_order(p * q, alpha) == divisibility_order(
            p, alpha
        ) + divisibility_order(q, alpha)


def test_non_linear_form_rejected():
    x, y = x_y()
    for p in (x, Polynomial.zero(VARS)):
        with pytest.raises(ValueError):
            divisibility_order(p, x * x)
        with pytest.raises(ValueError):
            divisibility_order(p, x + 1)


def test_divisibility_order_keeps_no_field_between_calls():
    # a form over Q asked after an equal form with Q(zeta_10) coefficients
    # still divides a polynomial over Q(zeta_12)
    x, y = x_y()
    seven = Cyclotomic.from_rational(10, 7)
    assert divisibility_order((x - 7 * y) * seven, x - seven * y) == 1
    assert divisibility_order((x - 7 * y) ** 2 * (x + Cyclotomic.zeta(12) * y), x - 7 * y) == 2


def test_divide_by_linear_reconstructs():
    rng = random.Random(5)
    x, y = x_y()
    for alpha, pivot in ((x, 0), (y, 1), (x - y, 0), (3 * x + y, 0)):
        for _ in range(10):
            p = _random_poly(rng)
            before = dict(p.terms)
            q, r = divide_by_linear(p, alpha)
            assert q * alpha + r == p
            assert p.terms == before
            assert all(not e[pivot] for e in r.terms)


def test_divide_by_linear_refuses_a_form_in_other_variables():
    x, y = x_y()
    with pytest.raises(ValueError, match="variable mismatch"):
        divide_by_linear(x * y, Polynomial.variable(("x", "y", "z"), "x"))


def test_exact_quotient_by_power():
    x, y = x_y()
    p = (x - y) ** 4 * (1 + x)
    assert exact_quotient_by_power(p, x - y, 4) == 1 + x
    with pytest.raises(ArithmeticError):
        exact_quotient_by_power(x, y, 1)


def test_divisibility_over_cyclotomic_field():
    zeta = Cyclotomic.zeta(6)
    x, y = x_y()
    alpha = x - zeta * y
    p = alpha ** 2 * (x + y)
    assert divisibility_order(p, alpha) == 2


def test_monomials_graded_lex():
    monos = monomials_of_degree(VARS, 2)
    assert monos == [(0, 2), (1, 1), (2, 0)]


# -- the term-list product and the ring laws, against a plain convolution -----------

# Few small values on a small exponent grid, so that products share exponents
# and sums cancel often.  Inside Q(zeta_n) a coefficient is a rational (the
# rational 1 among them), a root of unity times one, or a rational embedded
# as a Cyclotomic (the cyclotomic 1 among them), so polynomials mix the two
# coefficient types the way quasi_basis layers do.
_SMALL = st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(-1, 2)])
_EXPONENTS = st.tuples(st.integers(0, 2), st.integers(0, 2))


def _coefficients(n):
    if n is None:
        return _SMALL
    return st.one_of(
        _SMALL,
        st.builds(lambda q, k: q * Cyclotomic.zeta(n, k), _SMALL, st.integers(0, n - 1)),
        st.builds(lambda q: Cyclotomic.from_rational(n, q), _SMALL),
    )


@st.composite
def _polynomials(draw, count):
    """`count` polynomials in x, y over Q or over one Q(zeta_n).  When the
    first two are nonzero, each gets one more term, x^(e+s) and x^(f+s) for
    terms x^e of the first and x^f of the second, with coefficients that
    make the products x^e * x^(f+s) and x^(e+s) * x^f cancel."""
    n = draw(st.sampled_from([None, 3, 4, 5, 8]))
    coefficients = _coefficients(n)
    out = [draw(st.dictionaries(_EXPONENTS, coefficients, max_size=5)) for _ in range(count)]
    if count > 1 and out[0] and out[1]:
        left, right = out[0], out[1]
        e, c = draw(st.sampled_from(sorted(left.items())))
        f, d = draw(st.sampled_from(sorted(right.items())))
        shift = draw(_EXPONENTS.filter(any))
        right[tuple(map(sum, zip(f, shift)))] = b = draw(coefficients)
        left[tuple(map(sum, zip(e, shift)))] = -(c * b) / d
    return [Polynomial(VARS, terms) for terms in out]


def _convolution(left: dict, right: dict) -> dict:
    """Reference product of two {exponent: coefficient} dicts: each pair of
    terms, left-major, is added into one dict as 0 + c1 * c2 or s + c1 * c2,
    and an entry is removed as soon as it sums to zero; that order fixes the
    keys' order and each coefficient's field type."""
    out = {}
    for e1, c1 in left.items():
        for e2, c2 in right.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def _typed(terms: dict) -> list:
    return [(key, type(c), getattr(c, "n", None)) for key, c in terms.items()]


@settings(max_examples=200, deadline=None)
@given(_polynomials(2))
@example([Polynomial(VARS, {(1, 0): 1, (0, 1): 1}), Polynomial(VARS, {(1, 0): 1, (0, 1): -1})])
@example([Polynomial(VARS, {(1, 0): Cyclotomic.zeta(4), (0, 0): 1}),
          Polynomial(VARS, {(1, 0): Cyclotomic.zeta(4), (0, 0): 1, (0, 1): Fraction(1, 2)})])
@example([Polynomial(VARS, {(0, 0): Cyclotomic.from_rational(3, 1)}),
          Polynomial(VARS, {(1, 1): Fraction(1, 2)})])
def test_term_product_matches_the_convolution(pair):
    left, right = pair
    want = _convolution(left.terms, right.terms)
    got = multiply_terms(left.terms.items(), right.terms.items())
    assert got == want and _typed(got) == _typed(want)
    assert all(got.values())
    columns = {(i, j): 9 * j + i for i in range(9) for j in range(9)}
    keyed = multiply_terms(list(left.terms.items()), list(right.terms.items()), columns)
    assert _typed(keyed) == _typed({columns[e]: c for e, c in want.items()})
    assert list(keyed.values()) == list(want.values())
    product = left * right
    assert product.terms == want and _typed(product.terms) == _typed(want)


@settings(max_examples=150, deadline=None)
@given(_polynomials(3))
def test_polynomial_ring_laws(triple):
    a, b, c = triple
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


@settings(max_examples=100, deadline=None)
@given(_polynomials(1), st.integers(0, 4))
def test_power_is_the_repeated_product(single, k):
    (a,) = single
    repeated = Polynomial.constant(VARS, 1)
    for _ in range(k):
        repeated = repeated * a
    assert a**k == repeated
