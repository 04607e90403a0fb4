import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasinv import fields
from quasinv.fields import Cyclotomic, _phi_cache_get


def conjugate(a: Cyclotomic) -> Cyclotomic:
    """The automorphism zeta -> zeta^(-1)."""
    return a._galois(-1)


def rational_part(a: Cyclotomic):
    """a as a Fraction if it lies in Q, else None."""
    coords = a.coords
    return None if any(coords[1:]) else coords[0]


def test_cyclotomic_polynomials():
    assert _phi_cache_get(1) == (-1, 1)
    assert _phi_cache_get(2) == (1, 1)
    assert _phi_cache_get(3) == (1, 1, 1)
    assert _phi_cache_get(4) == (1, 0, 1)
    assert _phi_cache_get(6) == (1, -1, 1)
    assert _phi_cache_get(8) == (1, 0, 0, 0, 1)
    assert _phi_cache_get(10) == (1, -1, 1, -1, 1)
    assert _phi_cache_get(12) == (1, 0, -1, 0, 1)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 8, 10])
def test_zeta_has_order_n(n):
    z = Cyclotomic.zeta(n)
    power = Cyclotomic.from_rational(n, 1)
    for k in range(1, n):
        power = power * z
        assert power != 1 or (k + 1) % n == 0
    assert power * z == 1


def _random_element(rng, n):
    d = len(_phi_cache_get(n)) - 1
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
        assert conjugate(conjugate(a)) == a
        assert conjugate(a * b) == conjugate(a) * conjugate(b)
        assert conjugate(a + b) == conjugate(a) + conjugate(b)


def test_zeta_conjugate_is_inverse():
    z = Cyclotomic.zeta(7)
    assert z * conjugate(z) == 1


def test_mixed_orders_rejected():
    with pytest.raises(ValueError):
        Cyclotomic.zeta(3) + Cyclotomic.zeta(4)
    with pytest.raises(ValueError):
        Cyclotomic.zeta(5) * Cyclotomic.zeta(8)


def test_rational_embedding():
    a = Cyclotomic.from_rational(6, Fraction(3, 2))
    assert a + Fraction(1, 2) == 2
    assert rational_part(a) == Fraction(3, 2)
    assert rational_part(Cyclotomic.zeta(6)) is None


_RATIONALS = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
)


@st.composite
def _element_and_rational(draw):
    n = draw(st.sampled_from([3, 4, 5, 6, 8, 10, 12]))
    d = len(_phi_cache_get(n)) - 1
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


# -- the integer representation against the Fraction-coordinate one ------------


class FractionCyclotomic:
    """Reference: an element of Q(zeta_n) as a tuple of Fraction coordinates
    in the power basis, the representation `Cyclotomic` had before it moved
    to integer numerators over one denominator.  It reduces by long division
    by Phi_n and inverts by the extended Euclidean algorithm in Q[x], so it
    shares no arithmetic with the code under test."""

    def __init__(self, n, coords):
        phi = _phi_cache_get(n)
        d = len(phi) - 1
        c = [Fraction(x) for x in coords] + [Fraction(0)] * d
        for k in range(len(c) - 1, d - 1, -1):
            top = c[k]
            if top:
                for j, pj in enumerate(phi):
                    c[k - d + j] -= top * pj
        self.n = n
        self.coords = tuple(c[:d])

    def _lift(self, other):
        if isinstance(other, FractionCyclotomic):
            return other
        return FractionCyclotomic(self.n, [other])

    def __add__(self, other):
        o = self._lift(other)
        return FractionCyclotomic(self.n, [a + b for a, b in zip(self.coords, o.coords)])

    __radd__ = __add__

    def __neg__(self):
        return FractionCyclotomic(self.n, [-a for a in self.coords])

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        o = self._lift(other)
        conv = [Fraction(0)] * (2 * len(self.coords))
        for i, a in enumerate(self.coords):
            for j, b in enumerate(o.coords):
                conv[i + j] += a * b
        return FractionCyclotomic(self.n, conv)

    __rmul__ = __mul__

    def inverse(self):
        r0 = [Fraction(c) for c in _phi_cache_get(self.n)]
        r1 = list(self.coords)
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while True:
            while r1 and not r1[-1]:
                r1.pop()
            if not r1:
                raise ZeroDivisionError("inverse of zero")
            if len(r1) == 1:
                return FractionCyclotomic(self.n, [c / r1[0] for c in s1])
            q, r = _divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _sub(s0, _mul(q, s1))

    def __truediv__(self, other):
        return self * self._lift(other).inverse()

    def __rtruediv__(self, other):
        return self._lift(other) * self.inverse()


def _divmod(a, b):
    a = list(a)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 1)
    for i in range(len(a) - 1, len(b) - 2, -1):
        c = a[i] / b[-1]
        q[i - len(b) + 1] = c
        for j, bj in enumerate(b):
            a[i - len(b) + 1 + j] -= c * bj
    return q, a


def _mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _sub(a, b):
    m = max(len(a), len(b))
    a, b = a + [Fraction(0)] * (m - len(a)), b + [Fraction(0)] * (m - len(b))
    return [x - y for x, y in zip(a, b)]


_ORDERS = [1, 3, 4, 5, 6, 7, 8, 10, 12, 14]


@st.composite
def _elements(draw, count):
    """`count` elements of one Q(zeta_n), built from coordinate lists that may
    run past deg(Phi_n), so the constructor's reduction takes part."""
    n = draw(st.sampled_from(_ORDERS))
    coords = st.lists(_RATIONALS, max_size=len(_phi_cache_get(n)) + 3)
    return [Cyclotomic(n, draw(coords)) for _ in range(count)]


def _reference(a):
    return FractionCyclotomic(a.n, a.coords)


def _assert_canonical(c):
    assert type(c) is Cyclotomic
    assert type(c.den) is int and c.den > 0
    assert all(type(x) is int for x in c.nums)
    assert len(c.nums) == len(_phi_cache_get(c.n)) - 1
    assert math.gcd(c.den, *c.nums) == 1
    assert all(type(x) is Fraction for x in c.coords)


@settings(max_examples=200, deadline=None)
@given(_elements(2), _RATIONALS)
def test_arithmetic_matches_the_fraction_reference(pair, q):
    a, b = pair
    ra, rb = _reference(a), _reference(b)
    cases = [
        (a + b, ra + rb), (a - b, ra - rb), (a * b, ra * rb), (-a, -ra),
        (a + q, ra + q), (q + a, q + ra), (a - q, ra - q), (q - a, q - ra),
        (a * q, ra * q), (q * a, q * ra),
    ]
    if b:
        cases += [(a / b, ra / rb), (b.inverse(), rb.inverse())]
    if a:
        cases += [(q / a, q / ra), (a.inverse(), ra.inverse())]
    if q:
        cases += [(a / q, ra / q)]
    for got, want in cases:
        _assert_canonical(got)
        assert got.n == a.n
        assert got.coords == want.coords


@settings(max_examples=150, deadline=None)
@given(_elements(3))
def test_field_laws(triple):
    a, b, c = triple
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == 0 and not (a - a)
    if a:
        assert a * a.inverse() == 1
        assert a.inverse().inverse() == a
    else:
        with pytest.raises(ZeroDivisionError):
            a.inverse()


@settings(max_examples=150, deadline=None)
@given(_elements(3), _RATIONALS)
def test_equal_values_have_one_form_and_one_hash(triple, q):
    a, b, c = triple
    n = a.n
    by_powers = sum((x * Cyclotomic.zeta(n, k) for k, x in enumerate(a.coords)),
                    Cyclotomic.from_rational(n, 0))
    # x^n = 1: shifting a coordinate by n powers of zeta keeps the value
    rotated = Cyclotomic(n, [0] * n + list(a.coords))
    ways = [by_powers, rotated, (a + b) - b, (a - c) + c, a * 1 + 0, -(-a)]
    if q:
        ways.append((a * q) / q)
    if b:
        ways.append((a * b) / b)
    for other in ways:
        _assert_canonical(other)
        assert other == a
        assert (other.den, other.nums) == (a.den, a.nums)
        assert hash(other) == hash(a)
    assert (a * b) * c == a * (b * c) and hash((a * b) * c) == hash(a * (b * c))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_ORDERS), st.sampled_from(_ORDERS))
def test_mixed_orders_raise_value_error(n, m):
    if n == m:
        return
    a, b = Cyclotomic.zeta(n) + 2, Cyclotomic.zeta(m) + 3
    for op in (lambda: a + b, lambda: a - b, lambda: a * b, lambda: a / b):
        with pytest.raises(ValueError):
            op()
    assert a != b


def test_rational_fast_paths_return_the_operand_and_build_nothing(monkeypatch):
    c = Cyclotomic(6, [Fraction(1, 2), -3])
    others = {x: Cyclotomic(5, [x, 1]) for x in (0, 1)}

    def built(*args):
        raise AssertionError("a Cyclotomic was built")

    monkeypatch.setattr(fields, "_element", built)
    monkeypatch.setattr(Cyclotomic, "__init__", built)
    for got in (c + 0, 0 + c, c + Fraction(0), Fraction(0) + c, c * 1, 1 * c,
                c * Fraction(1), Fraction(1) * c):
        assert got is c
    for got, want in ((c == 1, False), (c != 0, True), (c == Fraction(1, 2), False),
                      (others[0] == 0, False), (others[1] != 1, True)):
        assert type(got) is bool and got == want
    monkeypatch.undo()
    one = Cyclotomic.from_rational(6, 1)
    zero = Cyclotomic.from_rational(6, 0)
    monkeypatch.setattr(fields, "_element", built)
    monkeypatch.setattr(Cyclotomic, "__init__", built)
    assert one == 1 and one == Fraction(1) and not one != 1
    assert zero == 0 and not zero != Fraction(0) and not zero


# -- the operators RingOps derives, on each of its three types -----------------


def _ring_samples(kind, rng):
    """(element, constant) makers of one RingOps type, on small random data."""
    from quasinv.poly import Polynomial
    from quasinv.series import PowerSeries, ZQSeries

    def c():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))

    return {
        "Polynomial": (lambda: Polynomial(("x", "y"), {(rng.randint(0, 2), rng.randint(0, 2)): c()
                                                       for _ in range(3)}),
                       lambda q: Polynomial.constant(("x", "y"), q)),
        "PowerSeries": (lambda: PowerSeries([c() for _ in range(5)], 5),
                        lambda q: PowerSeries([q], 5)),
        "ZQSeries": (lambda: ZQSeries({(rng.randint(-3, 3), rng.randint(0, 3)): c()
                                       for _ in range(3)}, 4),
                     lambda q: ZQSeries({(0, 0): q}, 4)),
    }[kind]


@pytest.mark.parametrize("kind", ["Polynomial", "PowerSeries", "ZQSeries"])
def test_derived_ring_operators(kind):
    rng = random.Random(kind)
    element, constant = _ring_samples(kind, rng)
    for _ in range(25):
        a, b = element(), element()
        for q in (0, 1, -3, Fraction(-1, 2)):
            s = constant(q)
            assert q + a == s + a and a + q == a + s
            assert q - a == s - a and a - q == a - s
            assert q * a == s * a and a * q == a * s
        assert a - b == a + (-b) and b - a == -(a - b)
        product = constant(1)
        for k in range(5):
            assert a ** k == product, k
            product = product * a
        with pytest.raises(ValueError):
            a ** -1


# -- one rule for a value equal to a scalar -----------------------------------


@pytest.mark.parametrize("kind", ["Polynomial"])
def test_a_constant_equals_its_scalar_and_hashes_as_it(kind):
    from quasinv.poly import Polynomial

    _, constant = _ring_samples(kind, random.Random(kind))
    for q in (0, 3, -2, Fraction(1, 2), Fraction(-7, 3)):
        c = constant(q)
        assert c == q and q == c and not c != q
        assert hash(c) == hash(q)
        assert q in {c} and c in {q}
        assert c != q + 1
        assert c * 2 + constant(1) * 2 == 2 * q + 2
    x = Polynomial.variable(("x", "y"), "x")
    for q in (0, 1, Fraction(1, 2)):
        assert x + q != q and x * q != q + 1 and x != q


def test_a_rational_cyclotomic_hashes_as_the_rational_it_equals():
    from quasinv.poly import Polynomial

    for q in (0, 1, -4, Fraction(5, 6)):
        c = Cyclotomic.from_rational(12, q)
        assert c == q and hash(c) == hash(q) and q in {c}
        assert Polynomial.constant(("x",), c) == q and q in {Polynomial.constant(("x",), c)}
    assert Polynomial.constant(("x",), Cyclotomic.zeta(12)) == Cyclotomic.zeta(12)


@pytest.mark.parametrize("kind", ["PowerSeries", "ZQSeries"])
def test_truncated_series_never_equal_a_scalar(kind):
    _, constant = _ring_samples(kind, random.Random(kind))
    for q in (0, 3, Fraction(1, 2)):
        assert constant(q) != q and not constant(q) == q
    assert constant(3) == constant(3)
