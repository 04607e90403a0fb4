"""Arithmetic of rank-one fake deloopings and their K-theory subrings.

The subrings live in Z[[t]] and are built from a generator series
P = N t^2 + O(t^3) by the recursion R_0 = Z[[t]], R_m = Z + P * R_(m-1),
whose unrolled form is Z + Z P + ... + Z P^(m-1) + P^m Z[[t]].  Membership
at a finite truncation is three-valued: integrality of the successive
leading coefficients can certify or refute agreement with a ring element
through the truncation order, or the order can be too small to decide.
"""

from __future__ import annotations

from math import gcd

from quasinv.errors import DomainError
from quasinv.laurent import LaurentElement

MEMBER = "member"
NON_MEMBER = "non-member"
INCONCLUSIVE = "inconclusive"

__all__ = [
    "IntSeries",
    "FakeKRing",
    "legendre",
    "n_b",
    "qmb",
    "distinguishing_invariant",
    "bg_series",
    "laurent_to_t_series",
    "MEMBER",
    "NON_MEMBER",
    "INCONCLUSIVE",
]


class IntSeries:
    """Integer power series in t, exact for exponents below `order`."""

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs, order: int):
        coeffs = list(coeffs[:order])
        for c in coeffs:
            if not isinstance(c, int):
                raise ValueError("IntSeries coefficients must be integers")
        coeffs += [0] * (order - len(coeffs))
        self.order = order
        self.coeffs = tuple(coeffs)

    @staticmethod
    def zero(order: int) -> "IntSeries":
        return IntSeries([], order)

    @staticmethod
    def monomial(k: int, order: int, c: int = 1) -> "IntSeries":
        return IntSeries([0] * k + [c], order)

    def __add__(self, other):
        if isinstance(other, int):
            other = IntSeries([other], self.order)
        n = min(self.order, other.order)
        return IntSeries([a + b for a, b in zip(self.coeffs[:n], other.coeffs[:n])], n)

    __radd__ = __add__

    def __neg__(self):
        return IntSeries([-c for c in self.coeffs], self.order)

    def __sub__(self, other):
        if isinstance(other, int):
            other = IntSeries([other], self.order)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return IntSeries([c * other for c in self.coeffs], self.order)
        n = min(self.order, other.order)
        out = [0] * n
        for i, a in enumerate(self.coeffs[:n]):
            if a:
                for j, b in enumerate(other.coeffs[: n - i]):
                    if b:
                        out[i + j] += a * b
        return IntSeries(out, n)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        out = IntSeries([1], self.order)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def shift(self, k: int) -> "IntSeries":
        """Multiply by t^k."""
        return IntSeries([0] * k + list(self.coeffs), self.order)

    def inverse(self) -> "IntSeries":
        """Inverse of a series with unit constant term."""
        if not self.coeffs or self.coeffs[0] not in (1, -1):
            raise ValueError("only unit series are invertible over Z")
        n = self.order
        inv = [0] * n
        inv[0] = self.coeffs[0]
        for k in range(1, n):
            acc = 0
            for j in range(1, k + 1):
                acc += self.coeffs[j] * inv[k - j] if j < n else 0
            inv[k] = -acc * self.coeffs[0]
        return IntSeries(inv, n)

    def valuation(self):
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return None

    def __eq__(self, other):
        if not isinstance(other, IntSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __bool__(self):
        return any(self.coeffs)

    def __repr__(self):
        parts = [
            (f"{c}" if k == 0 else (f"{c}*t" if k == 1 else f"{c}*t^{k}"))
            for k, c in enumerate(self.coeffs)
            if c
        ]
        return (" + ".join(parts) if parts else "0") + f" + O(t^{self.order})"


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
    and N = P[2] != 0; membership decided by successive leading-coefficient
    division through the truncation order."""

    def __init__(self, generator: IntSeries, m: int):
        if m < 0:
            raise DomainError("multiplicity must be non-negative")
        if generator.order < 3:
            raise DomainError("the truncation order must be at least 3 to hold N t^2")
        if generator.coeffs[0] != 0 or generator.coeffs[1] != 0 or generator.coeffs[2] == 0:
            raise DomainError("generator series must be N t^2 + higher order, N != 0")
        self.generator = generator
        self.m = m
        self.order = generator.order
        self.n_b = generator.coeffs[2]
        self._powers = [IntSeries([1], self.order)]
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

    def membership(self, f: IntSeries) -> str:
        """Three-valued membership of f through the truncation order."""
        if self.m == 0:
            return MEMBER
        D = min(self.order, f.order) - 1  # largest certified exponent
        r = list(f.coeffs[: D + 1])
        r[0] = 0  # the integer constant is always absorbable
        verdict = MEMBER
        for j in range(1, self.m):
            if 2 * j > D:
                return INCONCLUSIVE
            den = self.n_b**j
            if r[2 * j] % den:
                return NON_MEMBER
            c = r[2 * j] // den
            if c:
                pj = self._powers[j].coeffs
                for i in range(2 * j, D + 1):
                    r[i] -= c * pj[i]
        if D < 2 * self.m:
            return INCONCLUSIVE
        den = self.n_b**self.m
        pm = self._powers[self.m].coeffs
        for k in range(D + 1 - 2 * self.m):
            num = r[2 * self.m + k]
            if num % den:
                return NON_MEMBER
            g = num // den
            if g:
                for i in range(2 * self.m + k, D + 1):
                    r[i] -= g * pm[i - k]
        if any(r):
            return NON_MEMBER
        return verdict

    def __repr__(self):
        return f"<FakeKRing m={self.m}, N_B={self.n_b}, order {self.order}>"


def qmb(generator: IntSeries, m: int, order: int) -> FakeKRing:
    """The m-th subring attached to a generator series, truncated at `order`
    (exponents below it are exact)."""
    return FakeKRing(IntSeries(list(generator.coeffs), min(order, generator.order)), m)


def distinguishing_invariant(generator: IntSeries, m: int, p: int) -> dict:
    """Image of the m-th subring in (Z/p)[t]/(t^3), the quotient by p and by
    the filtration layer that kills t-degrees >= 3 (t carries filtration 2).

    For m >= 1 the image is spanned by 1 and the square-zero class N t^2,
    so its rank is 2 exactly when p does not divide N; the answer depends
    only on N mod p.
    """
    if not _is_prime(p):
        raise DomainError(f"{p} is not prime")
    n = generator.coeffs[2]
    if n == 0:
        raise DomainError("generator series must be N t^2 + higher order, N != 0")
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


def bg_series(order: int) -> IntSeries:
    """The standard generator series t^2/(1+t) = t^2 - t^3 + t^4 - ...,
    which is the image of z - 2 + 1/z under z = 1 + t."""
    if order < 3:
        raise DomainError("need order >= 3 to see the quadratic leading term")
    t2 = IntSeries.monomial(2, order)
    unit = IntSeries([1, 1], order)
    series = t2 * unit.inverse()
    check = laurent_to_t_series(LaurentElement.delta(), order)
    if series != check:
        raise ArithmeticError("generator series disagrees with z - 2 + 1/z at z = 1 + t")
    return series


def laurent_to_t_series(f: LaurentElement, order: int) -> IntSeries:
    """Substitute z = 1 + t into an integral Laurent polynomial with integer
    z-exponents."""
    if not f.has_integer_z_exponents():
        raise DomainError("substitution needs integer z-exponents")
    if not f.is_integral():
        raise DomainError("substitution is defined on integer coefficients")
    unit = IntSeries([1, 1], order)
    unit_inv = unit.inverse()
    out = IntSeries.zero(order)
    for e, c in sorted(f.terms.items()):
        k = e // 2
        base = unit if k >= 0 else unit_inv
        out = out + (base ** abs(k)) * int(c)
    return out
