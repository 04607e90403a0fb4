"""Characters of the rank-one torus: Laurent polynomials in z^(1/2) over Q.

A character is a `ZQSeries` at q-order 1, so its terms all sit at q^0.
Exponents are stored as integers in w = z^(1/2): z^k sits at w-exponent 2k
and half-integer powers of z are representable exactly.  The substitution
s: z -> 1/z is the involutive ring automorphism `ZQSeries.involution`.

Division and the vanishing order at z = 1 act on a level, a map
{w-exponent: coefficient} such as `f.q_slice(0)` or one q-level of a series.
"""

from __future__ import annotations

import math
from fractions import Fraction

from quasinv.fields import poly_divmod
from quasinv.series import ZQSeries


def character(level: dict) -> ZQSeries:
    """The character sum c w^e over the {w-exponent e: c} map `level`."""
    return ZQSeries({(w, 0): c for w, c in level.items()}, 1)


def z_power(k: int, c=1) -> ZQSeries:
    return ZQSeries({(2 * k, 0): c}, 1)


def delta() -> ZQSeries:
    """(z^(1/2) - z^(-1/2))^2 = z - 2 + 1/z."""
    return character({2: 1, 0: -2, -2: 1})


def is_integer_character(f: ZQSeries) -> bool:
    """A character (a ZQSeries at q-order 1) with integer z-exponents."""
    return f.q_order == 1 and all(w % 2 == 0 for w, _ in f.coeffs)


def exact_div(f: dict, g: dict) -> dict:
    """Exact quotient of two levels, with Fraction coefficients; raises if
    g does not divide f.  Zero entries are dropped from g, whose ends set
    the divisor's degree; poly_divmod passes over those of f."""
    g = {w: c for w, c in g.items() if c}
    if not g:
        raise ZeroDivisionError("division by zero Laurent element")
    if not f:
        return {}
    fa, ga = min(f), min(g)
    Q, R = poly_divmod(_dense(f, fa), _dense(g, ga))
    if any(R):
        raise ArithmeticError("Laurent division is not exact")
    shift = fa - ga
    return {i + shift: c for i, c in enumerate(Q) if c}


def _dense(level: dict, base: int) -> list:
    # Fractions throughout: poly_divmod divides with `/`, which on ints
    # would give floats
    out = [Fraction(0)] * (max(level) - base + 1)
    for w, c in level.items():
        out[w - base] = Fraction(c)
    return out


def order_at_one(f: dict):
    """Order of vanishing at z = 1 of a level with integer z-exponents: the
    largest k with (1 - z)^k dividing it after clearing z-denominators.
    Returns math.inf (`poly.INFINITE_ORDER`) for the zero level."""
    f = {w: c for w, c in f.items() if c}
    if not f:
        return math.inf
    if any(w % 2 for w in f):
        raise ValueError("order at z = 1 needs integer z-exponents")
    dense = _dense(f, min(f))
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
