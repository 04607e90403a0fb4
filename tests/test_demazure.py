import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasinv.demazure import (
    ExpQuasiRing,
    character_exponential,
    chern_character,
    delta_classical,
    delta_m,
    exp_basis,
    is_exp_quasi_invariant,
    lambda_op,
)
from quasinv.errors import DomainError
from quasinv.groups import Multiplicity, parse_group
from quasinv.laurent import (
    character,
    delta,
    exact_div,
    is_integer_character,
    order_at_one,
    z_power,
)
from quasinv.poly import Polynomial
from quasinv.series import PowerSeries, ZQSeries

A1 = parse_group("A1")
H = A1.hyperplanes[0]
X = Polynomial.variable(A1.variables, "x")
Z = z_power(1)
ZI = z_power(-1)
DELTA = delta()


def test_classical_values():
    assert not delta_classical(A1, H, X**2)
    assert delta_classical(A1, H, X**3) == 2 * X**2
    assert delta_classical(A1, H, X) == Polynomial.constant(A1.variables, 2)


def test_delta_m_table():
    for m in range(4):
        mult = Multiplicity.constant(A1, m)
        for k in range(4):
            assert not delta_m(A1, H, mult, X ** (2 * k))
            assert delta_m(A1, H, mult, X ** (2 * k + 2 * m + 1)) == 2 * X ** (2 * k)


def test_delta_m_domain_error():
    with pytest.raises(DomainError):
        delta_m(A1, H, Multiplicity.constant(A1, 1), X)


def test_reconstruction_identity():
    s = 1 - A1.identity_index()
    for m in range(3):
        mult = Multiplicity.constant(A1, m)
        for p in (X ** (2 * m + 1), X**4 + X ** (2 * m + 3), X**6):
            img = delta_m(A1, H, mult, p)
            assert H.alpha ** (2 * m + 1) * img + A1.act(s, p) == p


def test_delta_m_preserves_quasi_invariants_rank_one():
    from quasinv.quasi import is_quasi_invariant, quasi_basis

    for m in range(3):
        mult = Multiplicity.constant(A1, m)
        basis = quasi_basis(A1, mult, 9)
        for layer in basis.layers:
            for p in layer:
                assert is_quasi_invariant(A1, mult, delta_m(A1, H, mult, p))


def test_lambda_examples():
    assert lambda_op(Z) == z_power(-1, -1)
    assert not lambda_op(Z + ZI)
    assert not lambda_op(DELTA)


def test_twisted_leibniz_randomized():
    rng = random.Random(314)
    for _ in range(100):
        f = _random_laurent(rng)
        g = _random_laurent(rng)
        lhs = lambda_op(f * g)
        rhs = lambda_op(f) * g + f.involution() * lambda_op(g)
        assert lhs == rhs


def _random_laurent(rng):
    # terms keyed by the exponent of w = z^(1/2)
    return character(
        {2 * rng.randint(-3, 3): Fraction(rng.randint(-3, 3)) for _ in range(3)}
    )


def test_exp_membership_examples():
    assert is_exp_quasi_invariant(1, DELTA)
    assert is_exp_quasi_invariant(2, DELTA * DELTA)
    assert is_exp_quasi_invariant(1, DELTA * Z)
    assert not is_exp_quasi_invariant(1, Z)
    assert is_exp_quasi_invariant(3, Z + ZI)  # invariants pass at every level
    assert not is_exp_quasi_invariant(2, DELTA * Z)


def test_a_series_with_q_terms_is_not_a_character():
    from quasinv.fake_ktheory import laurent_to_t_series

    f = ZQSeries({(0, 0): 1, (2, 1): 1}, 2)  # 1 + q z, whose q^0 level is a member
    with pytest.raises(DomainError):
        is_exp_quasi_invariant(1, f)
    with pytest.raises(DomainError):
        character_exponential(f, 4)
    with pytest.raises(DomainError):
        laurent_to_t_series(f, 4)
    assert not ExpQuasiRing(0, (-1, 1)).contains(f)
    assert ExpQuasiRing(0, (-1, 1)).contains(f.truncate_q(1))


def test_exp_basis_window_too_small():
    with pytest.raises(DomainError):
        exp_basis(1, (0, 3))


def test_exp_basis_elements_and_products():
    for m in range(3):
        ring = exp_basis(m, (-3, 3))
        for el in ring.elements:
            assert is_exp_quasi_invariant(m, el)
        for a in ring.elements[:4]:
            for b in ring.elements[:4]:
                assert is_exp_quasi_invariant(m, a * b)


def test_integral_span_membership():
    ring = exp_basis(1, (-3, 3))
    assert ring.contains(DELTA)
    assert ring.contains(DELTA * Z)
    assert ring.contains(Z + ZI)  # = delta + 2
    assert not ring.contains(Z)
    assert not ring.contains(DELTA * Fraction(1, 2))
    ring2 = exp_basis(2, (-2, 2))
    assert ring2.contains(DELTA * DELTA * z_power(2))
    assert ring2.contains(DELTA)  # the free summand Z*delta sits below the ideal
    assert not ring2.contains(DELTA * Z)  # odd parts need the full delta^2 factor
    assert ring2.contains(DELTA + 5)


def _reference_is_exp_quasi_invariant(m, f):
    """The divided-difference test: lambda_op(f) is divisible by (1 - z)^(2m)
    after clearing z-denominators, i.e. vanishes to order >= 2m at z = 1."""
    lam = lambda_op(f)
    if not lam:
        return True
    return order_at_one(lam.q_slice(0)) >= 2 * m


def _reference_contains(m, f):
    """Membership in Z + Z delta + ... + Z delta^(m-1) + delta^m Z[z, 1/z]
    by expanding the symmetric part of f in powers of delta and dividing
    the rest by delta^m."""
    if not is_integer_character(f):
        return False
    even = (f + f.involution()) * Fraction(1, 2)
    # expand the symmetric part in powers of delta, each kept (leading
    # z-coefficient of delta^k is 1, so peeling from the top is exact)
    powers = [z_power(0)]
    for _ in range(max(_max_w_exp(even) // 2, m)):
        powers.append(powers[-1] * delta())
    coeffs = {}
    rest = even
    while rest:
        k = _max_w_exp(rest) // 2
        if k < 0:
            return False  # symmetric part cannot have negative top degree
        c = rest.coefficient(k, 0)
        coeffs[k] = c
        rest = rest - powers[k] * c
    if any(c.denominator != 1 for j, c in coeffs.items() if j < m):
        return False
    tail = f - sum((powers[j] * c for j, c in coeffs.items() if j < m), ZQSeries.zero(1))
    if not tail:
        return True
    try:
        quot = exact_div(tail.q_slice(0), powers[m].q_slice(0))
    except ArithmeticError:
        return False
    return all(c.denominator == 1 for c in quot.values())


def _max_w_exp(f):
    return max((w for w, _ in f.coeffs), default=0)


@st.composite
def _perturbed_member(draw):
    """(m, f, perturbed): f = sum c_j delta^j + delta^m g with integer c_j
    and integral g, perturbed by one non-integral coefficient or by an
    added z^k."""
    m = draw(st.integers(0, 6))
    cs = draw(st.lists(st.integers(-4, 4), min_size=m, max_size=m))
    g = draw(st.dictionaries(st.integers(-4, 4), st.integers(-4, 4), max_size=4))
    f = sum((DELTA**j * c for j, c in enumerate(cs)), ZQSeries.zero(1))
    f = f + DELTA**m * character({2 * k: c for k, c in g.items()})
    perturbation = draw(st.sampled_from((None, "fraction", "monomial")))
    k = draw(st.integers(-8, 8))
    if perturbation == "fraction":
        f = f + z_power(k, Fraction(1, draw(st.integers(2, 5))))
    elif perturbation == "monomial":
        f = f + z_power(k)
    return m, f, perturbation is not None


@settings(max_examples=300, deadline=None)
@given(_perturbed_member())
def test_membership_and_quasi_invariance_agree_with_the_references(case):
    m, f, perturbed = case
    in_ring = ExpQuasiRing(m, (-1, 1)).contains(f)
    assert in_ring == _reference_contains(m, f)
    assert is_exp_quasi_invariant(m, f) == _reference_is_exp_quasi_invariant(m, f)
    if not perturbed:
        assert in_ring and is_exp_quasi_invariant(m, f)


def test_chern_character_of_standard_character():
    series = character_exponential(Z, 6)
    assert list(series.coeffs) == [
        Fraction(1),
        Fraction(1),
        Fraction(1, 2),
        Fraction(1, 6),
        Fraction(1, 24),
        Fraction(1, 120),
    ]


def test_chern_character_even_series():
    series, report = chern_character(Z + ZI, 1, 8)
    assert report["odd_valuation"] is None
    assert list(series.coeffs[:6]) == [
        Fraction(2),
        Fraction(0),
        Fraction(1),
        Fraction(0),
        Fraction(1, 12),
        Fraction(0),
    ]


def test_chern_character_of_delta():
    series, report = chern_character(DELTA, 1, 8)
    assert report["in_completed_ring"]
    assert list(series.coeffs) == [
        Fraction(0),
        Fraction(0),
        Fraction(1),
        Fraction(0),
        Fraction(1, 12),
        Fraction(0),
        Fraction(1, 360),
        Fraction(0),
    ]


@pytest.mark.parametrize("m", range(3))
def test_chern_odd_valuation_exact(m):
    f = DELTA**m * (Z - ZI)
    series, report = chern_character(f, m, 2 * m + 6)
    assert report["odd_valuation"] == 2 * m + 1
    assert series.coeffs[2 * m + 1] == 2  # leading odd coefficient


def test_chern_rejects_non_members():
    with pytest.raises(DomainError):
        chern_character(Z, 1, 6)


def test_chern_is_multiplicative():
    rng = random.Random(2718)
    for m in range(3):
        ring = exp_basis(m, (-2, 2))
        for _ in range(20):
            f = _random_member(rng, ring)
            g = _random_member(rng, ring)
            sf, _ = chern_character(f, m, 10)
            sg, _ = chern_character(g, m, 10)
            sfg, _ = chern_character(f * g, m, 10)
            assert sfg == sf * sg


def _random_member(rng, ring: ExpQuasiRing):
    acc = ZQSeries.zero(1)
    for el in ring.elements:
        acc = acc + el * Fraction(rng.randint(-2, 2))
    return acc


def test_truncated_exp_series_equality_needs_equal_orders():
    assert PowerSeries([1, 1, Fraction(1, 2)], 3, "x") != PowerSeries([1, 1, Fraction(1, 2)], 5, "x")
    assert PowerSeries([1, 1, Fraction(1, 2)], 3, "x") == PowerSeries([1, 1, Fraction(1, 2), 9], 3, "x")
