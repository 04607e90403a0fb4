"""Divided difference operators, their exponential analogues, and the
exponentiation map into completed power series.

Normalizations: the classical operator is (p - s p)/alpha and the
multiplicity-m operator is (p - s p)/alpha^(2m+1), both without a 1/2; these
are fixed only up to a nonzero constant, and with this integer-friendly
choice the operator sends x^(2k+2m+1) to 2 x^(2k).  The constant 2 is
recorded in reports.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from quasinv.errors import DomainError
from quasinv.groups import Multiplicity, ReflectionGroup
from quasinv.laurent import (
    character,
    delta,
    exact_div,
    is_integer_character,
    order_at_one,
    z_power,
)
from quasinv.poly import Polynomial, exact_quotient_by_power
from quasinv.quasi import is_quasi_invariant
from quasinv.series import PowerSeries, ZQSeries

NORMALIZATION_CONSTANT = 2  # value of delta_m on x^(2m+1) in rank one


def delta_classical(group: ReflectionGroup, h, p: Polynomial) -> Polynomial:
    """(p - s_H p) / alpha_H; the division is exact for every polynomial."""
    if h.stabilizer_order != 2:
        raise DomainError("divided differences need a genuine reflection")
    s = group.reflection(h)
    diff = p - group.act(s, p)
    return exact_quotient_by_power(diff, h.alpha, 1)


def delta_m(group: ReflectionGroup, h, mult: Multiplicity, p: Polynomial) -> Polynomial:
    """(p - s_H p) / alpha_H^(2 m_H + 1), defined on quasi-invariants of
    multiplicity m; raises a DomainError off that domain."""
    if h.stabilizer_order != 2:
        raise DomainError("divided differences need a genuine reflection")
    if not is_quasi_invariant(group, mult, p):
        raise DomainError(
            "argument is not quasi-invariant of the given multiplicity; the "
            "divided difference of this order is undefined on it"
        )
    m_h = mult.of(h)
    s = group.reflection(h)
    diff = p - group.act(s, p)
    return exact_quotient_by_power(diff, h.alpha, 2 * m_h + 1)


# -- exponential side (rank one) ------------------------------------------------------


def lambda_op(f: ZQSeries) -> ZQSeries:
    """The exponential divided difference (f - s f)/(1 - z^2) on the
    character ring of the rank-one torus; always an exact Laurent quotient
    and a twisted derivation: L(fg) = L(f) g + s(f) L(g)."""
    return character(exact_div((f - f.involution()).q_slice(0), {0: 1, 4: -1}))


def is_exp_quasi_invariant(m: int, f: ZQSeries) -> bool:
    """Whether f - s f vanishes to order at least 2m + 1 at z = 1.  This is
    the divided-difference test ord lambda_op(f) >= 2m: f - s f =
    (1 - z)(1 + z) lambda_op(f), and 1 + z is a unit at z = 1."""
    if m < 0:
        raise DomainError("multiplicity must be non-negative")
    if not is_integer_character(f):
        raise DomainError("exponential quasi-invariance is tested on the character ring")
    return order_at_one((f - f.involution()).q_slice(0)) > 2 * m


class ExpQuasiRing:
    """The multiplicity-m ring of exponential quasi-invariants
    R_m = Z + Z delta + ... + Z delta^(m-1) + delta^m Z[z, 1/z], delta =
    z - 2 + 1/z, enumerated on a window of z-exponents: delta^j for j < m
    together with delta^m z^k for k in the window, formed on first read.
    Membership needs no enumeration: R_m = Z + delta R_(m-1) and
    R_0 = Z[z, 1/z]."""

    def __init__(self, m: int, window):
        lo, hi = window
        if lo > -1 or hi < 1:
            raise DomainError(
                f"window [{lo}, {hi}] too small: must contain z^-1 and z"
            )
        self.m = m
        self.window = (lo, hi)

    @property
    def labels(self) -> list:
        m, (lo, hi) = self.m, self.window
        return [f"delta^{j}" for j in range(m)] + [f"delta^{m} z^{k}" for k in range(lo, hi + 1)]

    @cached_property
    def elements(self) -> list:
        """delta^j for j < m, then delta^m z^k: one running product of
        delta, shifted by z^k at the end."""
        power, powers, d = z_power(0), [], delta()
        for _ in range(self.m):
            powers.append(power)
            power = power * d
        lo, hi = self.window
        return powers + [power.mul_monomial(k, 0) for k in range(lo, hi + 1)]

    def contains(self, f: ZQSeries) -> bool:
        """Membership by R_m = Z + delta R_(m-1): an integral character f
        is peeled m times, f <- (f - f(1)) / delta, failing at the first
        inexact division.  z delta = (z - 1)^2 is monic with constant term
        1, so by Gauss's lemma an exact quotient of an integral f is integral."""
        if not (is_integer_character(f) and all(c.denominator == 1 for c in f.coeffs.values())):
            return False
        level, d = f.q_slice(0), delta().q_slice(0)
        for _ in range(self.m):
            level[0] = level.get(0, 0) - sum(level.values())
            try:
                level = exact_div(level, d)
            except ArithmeticError:
                return False
        return True


def exp_basis(m: int, window) -> ExpQuasiRing:
    """Enumerate the exponential quasi-invariants of multiplicity m on a
    window; every listed element passes the divided-difference test."""
    ring = ExpQuasiRing(m, window)
    for el in ring.elements:
        if not is_exp_quasi_invariant(m, el):
            raise ArithmeticError("enumerated element fails the defining condition")
    return ring


# -- exponentiation into completed series ------------------------------------------------


def character_exponential(f: ZQSeries, order: int) -> PowerSeries:
    """Substitute z = exp(x) into a Laurent polynomial with integer
    z-exponents, truncated at the given x-order."""
    if not is_integer_character(f):
        raise DomainError("exponentiation is defined on integer characters")
    coeffs = []
    fact = Fraction(1)
    for n in range(order):
        if n:
            fact *= n
        total = Fraction(0)
        for (w, _), c in f.coeffs.items():
            k = w // 2
            total += c * (k**n)
        coeffs.append(total / fact)
    return PowerSeries(coeffs, order, "x")


def chern_character(f: ZQSeries, m: int, order: int):
    """Exponentiate a multiplicity-m exponential quasi-invariant and report
    the completed-ring shape of the image: the even part is unconstrained
    while the odd part must vanish to order at least 2m+1."""
    if not is_exp_quasi_invariant(m, f):
        raise DomainError("element is not an exponential quasi-invariant of this multiplicity")
    series = character_exponential(f, order)
    odd_valuation = next((n for n in range(1, order, 2) if series.coeffs[n]), None)
    passes = odd_valuation is None or odd_valuation >= 2 * m + 1
    return series, {
        "odd_valuation": odd_valuation,
        "odd_vanishing_required": 2 * m + 1,
        "in_completed_ring": passes,
    }
