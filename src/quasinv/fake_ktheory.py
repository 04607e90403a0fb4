"""Arithmetic of rank-one fake deloopings and their K-theory subrings.

The subrings live in Z[[t]] and are built from a generator series
P = N t^2 + O(t^3) by the recursion R_0 = Z[[t]], R_m = Z + P * R_(m-1).
Membership at a finite truncation is three-valued and decided by peeling,
f <- (f - f(0)) / P, m times: a peel fails on a t term or on a remainder mod
N in the exact division by P, which refutes membership at any order, since
a certified coefficient of the quotient depends only on certified
coefficients of f.  Each peel uses up two orders, so a series that passes
is a member once the order reaches t^(2m), where the ideal P^m Z[[t]]
begins, and inconclusive below it.  No power of P is formed.
"""

from __future__ import annotations

from math import gcd
from operator import mul

from quasinv.errors import DomainError
from quasinv.laurent import delta, is_integer_character
from quasinv.series import PowerSeries, ZQSeries

MEMBER = "member"
NON_MEMBER = "non-member"
INCONCLUSIVE = "inconclusive"


def legendre(k: int, p: int) -> int:
    """Quadratic residue sign of k mod p; at p = 2 the sign is +1 exactly for
    k congruent to a square mod 8, i.e. k = +-1 mod 8."""
    if k % p == 0:
        raise DomainError(f"legendre symbol undefined: {p} divides {k}")
    if p == 2:
        return 1 if k % 8 in (1, 7) else -1
    r = pow(k, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def n_b(assignments: dict) -> dict:
    """Combine local gluing degrees into the numerical invariant N_B.

    `assignments` maps primes to nonzero integers n_p coprime to p (all
    unassigned primes default to 1); at p = 2 one additionally needs
    n_2 = 1 mod 4.  Returns N_B = lcm of the values together with the sign
    data {p: legendre(n_p, p)}.
    """
    lcm = 1
    signs = {}
    for p, np in sorted(assignments.items()):
        if not _is_prime(p):
            raise DomainError(f"{p} is not prime")
        if np == 0:
            raise DomainError(f"gluing degree at {p} must be nonzero")
        if gcd(np, p) != 1:
            raise DomainError(f"gluing degree at prime {p} must be coprime to it")
        if p == 2 and np % 4 != 1:
            raise DomainError("the degree at 2 must be 1 mod 4")
        lcm = lcm * abs(np) // gcd(lcm, abs(np))
        signs[p] = legendre(np, p)
    return {"N_B": lcm, "signs": signs, "is_standard": lcm == 1}


class FakeKRing:
    """R_m built from a generator series with zero constant and linear term
    and N = P[2] != 0; membership peels f, and no power of P is formed."""

    def __init__(self, generator: PowerSeries, m: int):
        if m < 0:
            raise DomainError("multiplicity must be non-negative")
        self.n_b = _leading_n(generator)
        self.generator = generator
        self.m = m
        self.order = generator.order
        # R_m = Z + P R_(m-1) holds by construction, and its generating
        # elements P, ..., P^m are members exactly when the order passes 2m
        self.recursion_verified = m == 0 or self.order > 2 * m

    def membership(self, f: PowerSeries) -> str:
        """Three-valued membership of f through the truncation order, by the
        m peels run together in one pass over i = 1..D.  The t^k coefficient
        of peel j is fixed by f through t^(k+2j), so step i extends each level
        j at k = i - 2j from the level above, and refutes at the first
        remainder mod N or nonzero t term of a level below m.  Only certified
        coefficients enter, so each refutation holds at every order."""
        _require_integers(f)
        if self.m == 0:
            return MEMBER
        D = min(self.order, f.order) - 1  # largest certified exponent
        p = self.generator.coeffs
        levels = [[] for _ in range(self.m + 1)]  # levels[j][k]: t^k of peel j
        for i in range(1, D + 1):
            c = f.coeffs[i]  # level 0's t^i, dividend of level 1's t^(i-2)
            for j in range(1, min(i // 2, self.m) + 1):
                q = levels[j]  # q[k - l] meets P's t^(2+l) in the division
                c, rem = divmod(c - sum(map(mul, p[3 : 3 + len(q)], reversed(q))), self.n_b)
                if rem:
                    return NON_MEMBER
                q.append(c)
            if i % 2 and c and i // 2 < self.m:  # a t term at level i // 2
                return NON_MEMBER
        return MEMBER if D >= 2 * self.m else INCONCLUSIVE

    def __repr__(self):
        return f"<FakeKRing m={self.m}, N_B={self.n_b}, order {self.order}>"


def _require_integers(series: PowerSeries) -> None:
    if not all(isinstance(c, int) for c in series.coeffs):
        raise ValueError("K-theory series must have integer coefficients")


def _leading_n(generator: PowerSeries) -> int:
    """N of an integer generator series P = N t^2 + O(t^3), N != 0."""
    _require_integers(generator)
    if generator.order < 3:
        raise DomainError("the truncation order must be at least 3 to hold N t^2")
    c0, c1, n = generator.coeffs[:3]
    if c0 != 0 or c1 != 0 or n == 0:
        raise DomainError("generator series must be N t^2 + higher order, N != 0")
    return n


def qmb(generator: PowerSeries, m: int, order: int) -> FakeKRing:
    """The m-th subring attached to a generator series, truncated at `order`
    (exponents below it are exact)."""
    return FakeKRing(PowerSeries(generator.coeffs, min(order, generator.order)), m)


def distinguishing_invariant(generator: PowerSeries, m: int, p: int) -> dict:
    """Image of the m-th subring in (Z/p)[t]/(t^3), the quotient by p and by
    the filtration layer that kills t-degrees >= 3 (t carries filtration 2).

    For m >= 1 the image is spanned by 1 and the square-zero class N t^2,
    so its rank is 2 exactly when p does not divide N; the answer depends
    only on N mod p.
    """
    if not _is_prime(p):
        raise DomainError(f"{p} is not prime")
    if m < 0:
        raise DomainError("multiplicity must be non-negative")
    n = _leading_n(generator)
    if m == 0:
        return {"rank": 3, "generator": "full truncated polynomial ring", "prime": p}
    n_mod = n % p
    if n_mod == 0:
        return {"rank": 1, "generator": None, "prime": p, "N_B_mod_p": 0}
    return {
        "rank": 2,
        "generator": f"{n_mod}*t^2",
        "generator_coefficient": n_mod,
        "square_zero": True,
        "prime": p,
        "N_B_mod_p": n_mod,
    }


def bg_series(order: int) -> PowerSeries:
    """The standard generator series t^2/(1+t) = t^2 - t^3 + t^4 - ...,
    which is the image of z - 2 + 1/z under z = 1 + t."""
    if order < 3:
        raise DomainError("need order >= 3 to see the quadratic leading term")
    series = PowerSeries([0, 0, 1], order) * PowerSeries([1, 1], order).inverse()
    check = laurent_to_t_series(delta(), order)
    if series != check:
        raise ArithmeticError("generator series disagrees with z - 2 + 1/z at z = 1 + t")
    return series


def laurent_to_t_series(f: ZQSeries, order: int) -> PowerSeries:
    """Substitute z = 1 + t into an integral Laurent polynomial with integer
    z-exponents."""
    if not is_integer_character(f):
        raise DomainError("substitution needs integer z-exponents")
    if any(c.denominator != 1 for c in f.coeffs.values()):
        raise DomainError("substitution is defined on integer coefficients")
    unit = PowerSeries([1, 1], order)
    unit_inv = unit.inverse()
    out = PowerSeries([], order)
    for (w, _), c in sorted(f.coeffs.items()):
        k = w // 2
        base = unit if k >= 0 else unit_inv
        out = out + (base ** abs(k)) * c
    return out
