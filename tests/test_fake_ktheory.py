import random
from fractions import Fraction

import pytest
from oracles import fake_k_membership

from quasinv.demazure import exp_basis
from quasinv.errors import DomainError
from quasinv.fake_ktheory import (
    INCONCLUSIVE,
    MEMBER,
    NON_MEMBER,
    FakeKRing,
    bg_series,
    distinguishing_invariant,
    laurent_to_t_series,
    legendre,
    n_b,
    qmb,
)
from quasinv.laurent import delta, z_power
from quasinv.series import PowerSeries


def test_legendre_small_cases():
    assert legendre(2, 7) == 1  # 3^2 = 2 mod 7
    assert legendre(3, 5) == -1  # squares mod 5 are 1 and 4
    assert legendre(17, 2) == 1  # 17 = 1 mod 8
    assert legendre(5, 2) == -1  # 5 mod 8 is not a square


def test_legendre_undefined():
    with pytest.raises(DomainError):
        legendre(10, 5)


def test_legendre_multiplicative():
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        for a in range(1, p):
            for b in range(1, p):
                assert legendre(a * b, p) == legendre(a, p) * legendre(b, p)


def test_n_b_examples():
    assert n_b({}) == {"N_B": 1, "signs": {}, "is_standard": True}
    assert n_b({3: 2, 5: 3})["N_B"] == 6
    result = n_b({2: 5})
    assert result["N_B"] == 5 and result["signs"][2] == -1


def test_n_b_validation():
    with pytest.raises(DomainError):
        n_b({3: 3})  # not coprime
    with pytest.raises(DomainError):
        n_b({2: 3})  # needs 1 mod 4 at the even prime
    with pytest.raises(DomainError):
        n_b({4: 3})  # not prime
    with pytest.raises(DomainError):
        n_b({5: 0})


def test_int_series_ring_and_inverse():
    one_plus_t = PowerSeries([1, 1], 8)
    inv = one_plus_t.inverse()
    assert list(inv.coeffs) == [1, -1, 1, -1, 1, -1, 1, -1]
    assert one_plus_t * inv == PowerSeries([1], 8)


def test_membership_level_zero():
    gen = PowerSeries([0, 0, 3, 1], 10)
    ring = qmb(gen, 0, 10)
    assert ring.membership(PowerSeries([5, 3, 1, 7], 10)) == MEMBER


def test_membership_leading_coefficient_example():
    gen = PowerSeries([0, 0, 3, 1], 12)
    # through order 2 only the leading coefficient is visible
    assert qmb(gen, 1, 3).membership(PowerSeries([0, 0, 3], 3)) == MEMBER
    # with more terms retained, the tail fails integrality
    assert qmb(gen, 1, 12).membership(PowerSeries([0, 0, 3], 12)) == NON_MEMBER
    assert qmb(gen, 1, 12).membership(PowerSeries([0, 0, 1], 12)) == NON_MEMBER


def test_membership_ideal_elements():
    gen = PowerSeries([0, 0, 3, 1], 14)
    for m in range(1, 4):
        ring = qmb(gen, m, 14)
        f = (gen**m) * PowerSeries([0, 1], 14)
        assert ring.membership(f) == MEMBER
        assert ring.recursion_verified
    # R_m = Z + P R_(m-1) on its generating elements P^j and P^m t^k: each is
    # a member exactly when the order reaches t^(2m), and never refuted
    for gen in (gen, bg_series(14), PowerSeries([0, 0, -4, 2, 0, 5, -3], 14)):
        for m in range(5):
            for order in sorted({max(o, 3) for o in range(2 * m - 1, 2 * m + 3)}):
                ring = qmb(gen, m, order)
                expected = MEMBER if order > 2 * m else INCONCLUSIVE
                elements = [ring.generator**j for j in range(m + 1)]
                elements += [ring.generator**m * PowerSeries([0] * k + [1], order)
                             for k in range(1, order)]
                for f in elements:
                    assert ring.membership(f) == expected, (m, order)
                assert ring.recursion_verified == (m == 0 or order > 2 * m)


def test_membership_inconclusive_when_order_too_small():
    gen = PowerSeries([0, 0, 3, 1], 12)
    ring = qmb(gen, 3, 4)  # cannot reach order t^6
    # 3t^2 + t^3 is P through t^3, so only the ideal P^3 Z[[t]] is unseen
    assert ring.membership(PowerSeries([0, 0, 3, 1], 4)) == INCONCLUSIVE
    # 3t^2 = P (1 - t/3 + ...) leaves -t^3 that no element absorbs: refuted
    # at any order, as R_3 lies in R_1
    assert ring.membership(PowerSeries([0, 0, 3], 4)) == NON_MEMBER


def test_membership_of_an_empty_truncation():
    # no certified coefficient: inconclusive as at every order below t^(2m),
    # where clearing the absorbable constant once raised IndexError
    gen = PowerSeries([0, 0, 3, 1], 12)
    empty = PowerSeries([], 0)
    assert qmb(gen, 0, 12).membership(empty) == MEMBER
    for m in (1, 2, 3):
        assert qmb(gen, m, 12).membership(empty) == INCONCLUSIVE


def test_membership_monotone():
    bg = bg_series(13)
    rng = random.Random(5)
    for m in range(3):
        lower = qmb(bg, m, 13)
        upper = qmb(bg, m + 1, 13)
        for _ in range(10):
            coeffs = [rng.randint(-2, 2) for _ in range(11)]
            f = (upper.generator ** (m + 1)) * PowerSeries(coeffs, 13) + rng.randint(-3, 3)
            assert upper.membership(f) == MEMBER
            assert lower.membership(f) == MEMBER


def test_membership_matches_the_triangular_system():
    # a seeded grid against the dense Fraction solve of the unrolled form:
    # random elements, and ring elements with one coefficient nudged
    rng = random.Random(43)
    seen = set()
    for n in (1, -1, 2, 3, 6):
        for m in range(5):
            for order in range(3, 15):
                p = [0, 0, n] + [rng.randint(-3, 3) for _ in range(order - 3)]
                gen = PowerSeries(p, order)
                ring = qmb(gen, m, order)
                for f_order in range(15):
                    f = [rng.randint(-9, 9) for _ in range(f_order)]
                    if rng.random() < 0.7:
                        g = PowerSeries([rng.randint(-2, 2) for _ in range(order)], order)
                        member = gen**m * g
                        for j in range(m):
                            member = member + gen**j * rng.randint(-2, 2)
                        f = list(member.coeffs[:f_order]) + [0] * (f_order - order)
                        if f and rng.random() < 0.5:
                            f[rng.randrange(f_order)] += rng.choice((1, n, n * n))
                    verdict = ring.membership(PowerSeries(f, f_order))
                    assert verdict == fake_k_membership(p, m, f, min(order, f_order)), (m, p, f)
                    seen.add(verdict)
    assert seen == {MEMBER, NON_MEMBER, INCONCLUSIVE}


def test_generator_validation():
    with pytest.raises(DomainError):
        qmb(PowerSeries([1, 0, 3], 8), 1, 8)
    with pytest.raises(DomainError):
        qmb(PowerSeries([0, 1, 3], 8), 1, 8)
    with pytest.raises(DomainError):
        qmb(PowerSeries([0, 0, 0, 1], 8), 1, 8)


def test_distinguishing_invariant():
    gen = PowerSeries([0, 0, 3, 1], 8)
    res = distinguishing_invariant(gen, 2, 5)
    assert res["rank"] == 2 and res["generator_coefficient"] == 3 and res["square_zero"]
    assert distinguishing_invariant(gen, 1, 3)["rank"] == 1
    trivial = distinguishing_invariant(PowerSeries([0, 0, 1, -1], 8), 1, 7)
    assert trivial["rank"] == 2 and trivial["generator_coefficient"] == 1


def test_distinguishing_depends_only_on_leading_coefficient():
    rng = random.Random(77)
    for _ in range(10):
        tail = [rng.randint(-4, 4) for _ in range(5)]
        gen = PowerSeries([0, 0, 3] + tail, 10)
        assert distinguishing_invariant(gen, 2, 5)["rank"] == 2
        assert distinguishing_invariant(gen, 2, 3)["rank"] == 1


def test_bg_series_expansion():
    bg = bg_series(8)
    assert list(bg.coeffs) == [0, 0, 1, -1, 1, -1, 1, -1]


def test_bg_series_is_completed_character():
    # z - 2 + 1/z maps to t^2/(1+t) under z = 1 + t; recomputed both ways
    bg = bg_series(10)
    image = laurent_to_t_series(delta(), 10)
    assert bg == image


def test_character_images_respect_filtration():
    bg = bg_series(13)
    for m in range(3):
        ring = qmb(bg, m, 13)
        for el in exp_basis(m, (-3, 3)).elements:
            assert ring.membership(laurent_to_t_series(el, 13)) == MEMBER
    ring1 = qmb(bg, 1, 13)
    z_img = laurent_to_t_series(z_power(1), 13)
    assert ring1.membership(z_img) == NON_MEMBER


def test_int_series_equality_needs_equal_orders():
    assert PowerSeries([0, 0, 3, 1], 4) != PowerSeries([0, 0, 3, 1], 6)
    assert PowerSeries([0, 0, 3, 1], 4) == PowerSeries([0, 0, 3, 1, 7], 4)


def test_one_generator_check_for_ring_and_invariant():
    # too short to hold N t^2, and not of the form N t^2 + O(t^3)
    for gen in (PowerSeries([0, 0, 3], 2), PowerSeries([1, 1, 3, 1], 8)):
        with pytest.raises(DomainError):
            FakeKRing(gen, 1)
        with pytest.raises(DomainError):
            distinguishing_invariant(gen, 1, 5)
    with pytest.raises(DomainError):
        distinguishing_invariant(PowerSeries([0, 0, 3, 1], 8), -1, 5)


def test_k_theory_series_must_have_integer_coefficients():
    half = PowerSeries([0, 0, Fraction(3, 2), 1], 8)
    with pytest.raises(ValueError):
        FakeKRing(half, 1)
    with pytest.raises(ValueError):
        distinguishing_invariant(half, 1, 5)
    ring = qmb(PowerSeries([0, 0, 3, 1], 8), 1, 8)
    with pytest.raises(ValueError):
        ring.membership(PowerSeries([0, 0, Fraction(1, 2)], 8))
