"""Laurent polynomials in z^(1/2) over Q.

Exponents are stored as integers in w = z^(1/2), so z^k sits at w-exponent
2k and half-integer powers of z are representable exactly.  These elements
carry the character-lattice computations: the substitution s: z -> 1/z is an
involutive ring automorphism.
"""

from __future__ import annotations

import math
from fractions import Fraction

from quasinv.fields import RingOps, poly_divmod


class LaurentElement(RingOps):
    """Map from w-exponent (w = z^(1/2)) to nonzero rational coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for e, c in terms.items():
                c = Fraction(c)
                if c:
                    clean[int(e)] = c
        self.terms = clean

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero() -> "LaurentElement":
        return LaurentElement()

    @staticmethod
    def one() -> "LaurentElement":
        return LaurentElement({0: 1})

    @staticmethod
    def z_power(k: int, c=1) -> "LaurentElement":
        return LaurentElement({2 * k: c})

    @staticmethod
    def delta() -> "LaurentElement":
        """(z^(1/2) - z^(-1/2))^2 = z - 2 + 1/z."""
        return LaurentElement({2: 1, 0: -2, -2: 1})

    def _one(self) -> "LaurentElement":
        return LaurentElement.one()

    # -- ring structure ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentElement({0: other})
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, Fraction(0)) + c
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        return LaurentElement(terms)

    def __neg__(self):
        return LaurentElement({e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
            return LaurentElement({e: c * other for e, c in self.terms.items()})
        terms: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                s = terms.get(e, Fraction(0)) + c1 * c2
                if s:
                    terms[e] = s
                else:
                    terms.pop(e, None)
        return LaurentElement(terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):  # a constant hashes as it too
            other = LaurentElement({0: other})
        if not isinstance(other, LaurentElement):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        if self.terms.keys() <= {0}:
            return hash(self.terms.get(0, 0))
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    # -- structure ---------------------------------------------------------

    def involution(self) -> "LaurentElement":
        """s: z -> 1/z (equivalently w -> 1/w)."""
        return LaurentElement({-e: c for e, c in self.terms.items()})

    def min_w_exp(self) -> int:
        return min(self.terms) if self.terms else 0

    def max_w_exp(self) -> int:
        return max(self.terms) if self.terms else 0

    def has_integer_z_exponents(self) -> bool:
        return all(e % 2 == 0 for e in self.terms)

    def is_integral(self) -> bool:
        """All coefficients in Z (membership in the unlocalized lattice)."""
        return all(c.denominator == 1 for c in self.terms.values())

    def z_coefficient(self, k: int) -> Fraction:
        return self.terms.get(2 * k, Fraction(0))

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms):
            c = self.terms[e]
            if e == 0:
                parts.append(str(c))
            elif e % 2 == 0:
                parts.append(f"{c}*z^{e // 2}" if e != 2 else f"{c}*z")
            else:
                parts.append(f"{c}*z^({e}/2)")
        return " + ".join(parts)


def exact_div(f: LaurentElement, g: LaurentElement) -> LaurentElement:
    """Exact division in the Laurent ring; raises if g does not divide f."""
    if not g:
        raise ZeroDivisionError("division by zero Laurent element")
    if not f:
        return LaurentElement.zero()
    fa, ga = f.min_w_exp(), g.min_w_exp()
    F = _dense(f, fa)
    G = _dense(g, ga)
    Q, R = poly_divmod(F, G)
    if any(R):
        raise ArithmeticError("Laurent division is not exact")
    shift = fa - ga
    return LaurentElement({i + shift: c for i, c in enumerate(Q) if c})


def _dense(f: LaurentElement, base: int):
    top = f.max_w_exp()
    out = [Fraction(0)] * (top - base + 1)
    for e, c in f.terms.items():
        out[e - base] = c
    return out


def order_at_one(f: LaurentElement):
    """Order of vanishing at z = 1 of a Laurent polynomial with integer
    z-exponents: the largest k with (1 - z)^k dividing f after clearing
    z-denominators.  Returns math.inf (`poly.INFINITE_ORDER`) for f = 0."""
    if not f:
        return math.inf
    if not f.has_integer_z_exponents():
        raise ValueError("order at z = 1 needs integer z-exponents")
    base = f.min_w_exp()
    dense = _dense(f, base)
    # collapse w^2 -> z; the divisions run on ints, since clearing the
    # common denominator leaves the order unchanged
    coeffs = dense[::2]
    den = math.lcm(*(c.denominator for c in coeffs))
    coeffs = [c.numerator * (den // c.denominator) for c in coeffs]
    order = 0
    while True:
        if sum(coeffs) != 0:
            return order
        # synthetic division by (z - 1)
        out = []
        acc = 0
        for c in reversed(coeffs):
            acc += c
            out.append(acc)
        out.reverse()
        coeffs = out[1:] if len(out) > 1 else [0]
        order += 1
        if order > 10**6:
            raise ArithmeticError("runaway vanishing order")
