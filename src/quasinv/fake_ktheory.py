"""Arithmetic of rank-one fake deloopings and their K-theory subrings.

The subrings live in Z[[t]] and are built from a generator series
P = N t^2 + O(t^3) by the recursion R_0 = Z[[t]], R_m = Z + P * R_(m-1),
whose unrolled form is Z + Z P + ... + Z P^(m-1) + P^m Z[[t]].  Membership
at a finite truncation is three-valued and read in one pass over that form:
a coefficient that no element of it can absorb refutes membership at any
order; otherwise the series agrees with a ring element through the
truncation order, a certificate once the order reaches t^(2m), where the
ideal P^m Z[[t]] begins, and inconclusive below it.
"""

from __future__ import annotations

from math import gcd

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
    and N = P[2] != 0; membership decided by one pass of leading-coefficient
    divisions by N^j through the truncation order, which refutes at the
    first coefficient the unrolled form cannot absorb."""

    def __init__(self, generator: PowerSeries, m: int):
        if m < 0:
            raise DomainError("multiplicity must be non-negative")
        self.n_b = _leading_n(generator)
        self.generator = generator
        self.m = m
        self.order = generator.order
        self._powers = [PowerSeries([1], self.order)]
        for _ in range(m):
            self._powers.append(self._powers[-1] * generator)
        self.recursion_verified = self._verify_recursion()

    def _verify_recursion(self) -> bool:
        # Z + Z P + ... + P^m Z[[t]] = Z + P (Z + Z P + ... + P^(m-1) Z[[t]]):
        # check on the generating elements up to the truncation
        if self.m == 0:
            return True
        for j in range(1, self.m):
            if self.membership(self._powers[j]) != MEMBER:
                return False
        return self.membership(self._powers[self.m]) == MEMBER

    def membership(self, f: PowerSeries) -> str:
        """Three-valued membership of f through the truncation order, by one
        pass over the unrolled form: its elements t^(i-2j) P^j, j = min(i//2, m),
        have their lowest terms N^j t^i at every i except the odd i < 2m, so the
        coefficient at t^i, final once the pass reaches it, must be 0 at such
        an i and a multiple of N^j elsewhere."""
        _require_integers(f)
        if self.m == 0:
            return MEMBER
        D = min(self.order, f.order) - 1  # largest certified exponent
        r = [0, *f.coeffs[1 : D + 1]]  # the integer constant is always absorbable
        for i in range(1, D + 1):
            if not r[i]:
                continue
            j = min(i // 2, self.m)
            c, rem = divmod(r[i], self.n_b**j)
            if rem or i % 2 and j < self.m:
                return NON_MEMBER
            pj = self._powers[j].coeffs  # subtract c t^(i-2j) P^j from r[i:]
            for e in range(i, D + 1):
                r[e] -= c * pj[e - i + 2 * j]
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
