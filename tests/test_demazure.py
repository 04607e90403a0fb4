import random
from fractions import Fraction

import pytest

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
from quasinv.laurent import LaurentElement
from quasinv.poly import Polynomial
from quasinv.series import PowerSeries

A1 = parse_group("A1")
H = A1.hyperplanes[0]
X = Polynomial.variable(A1.variables, "x")
Z = LaurentElement.z_power(1)
ZI = LaurentElement.z_power(-1)
DELTA = LaurentElement.delta()


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
    assert lambda_op(Z) == LaurentElement.z_power(-1, -1)
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
    return LaurentElement(
        {2 * rng.randint(-3, 3): Fraction(rng.randint(-3, 3)) for _ in range(3)}
    )


def test_exp_membership_examples():
    assert is_exp_quasi_invariant(1, DELTA)
    assert is_exp_quasi_invariant(2, DELTA * DELTA)
    assert is_exp_quasi_invariant(1, DELTA * Z)
    assert not is_exp_quasi_invariant(1, Z)
    assert is_exp_quasi_invariant(3, Z + ZI)  # invariants pass at every level
    assert not is_exp_quasi_invariant(2, DELTA * Z)


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
    assert ring2.contains(DELTA * DELTA * LaurentElement.z_power(2))
    assert ring2.contains(DELTA)  # the free summand Z*delta sits below the ideal
    assert not ring2.contains(DELTA * Z)  # odd parts need the full delta^2 factor
    assert ring2.contains(DELTA + 5)


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
    acc = LaurentElement.zero()
    for el in ring.elements:
        acc = acc + el * Fraction(rng.randint(-2, 2))
    return acc


def test_truncated_exp_series_equality_needs_equal_orders():
    assert PowerSeries([1, 1, Fraction(1, 2)], 3, "x") != PowerSeries([1, 1, Fraction(1, 2)], 5, "x")
    assert PowerSeries([1, 1, Fraction(1, 2)], 3, "x") == PowerSeries([1, 1, Fraction(1, 2), 9], 3, "x")
