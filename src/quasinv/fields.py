"""Exact coefficient fields: rationals and cyclotomic extensions Q(zeta_n).

Rationals are `fractions.Fraction` (always reduced, denominator positive).
A `Cyclotomic` holds an element of Q(zeta_n) in the power basis 1, zeta,
..., zeta^(d-1) modulo the n-th cyclotomic polynomial, d = deg(Phi_n), as d
integer numerators over one positive integer denominator in lowest terms.
Its arithmetic runs on ints (products fold the convolution tail with the
integer rows x^(d+k) mod Phi_n) and reduces each result once; a rational
operand only scales or shifts the numerators.  The coefficient field of a
computation is fixed up front; mixing cyclotomic elements of different
orders is rejected.

`RingOps` derives the other operators of the ring-valued types over these
fields (`Polynomial`, `PowerSeries`, `ZQSeries`).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _phi_cache_get(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, n >= 1, low degree first, computed by
    dividing x^n - 1 by the product of Phi_d over proper divisors d of n."""
    phi = _PHI_CACHE.get(n)
    if phi is None:
        # Fraction coefficients: poly_divmod divides with `/`
        num = [Fraction(-1)] + [_ZERO] * (n - 1) + [Fraction(1)]
        for d in range(1, n):
            if n % d == 0:
                num, rem = poly_divmod(num, _phi_cache_get(d))
                if any(rem):
                    raise ArithmeticError("inexact polynomial division")
        phi = tuple(int(c) for c in num)
        _PHI_CACHE[n] = phi
    return phi


_PHI_CACHE: dict[int, tuple[int, ...]] = {}


def _reduction_rows(n: int, count: int) -> list[tuple[int, ...]]:
    """x^(d+k) mod Phi_n as integer coordinate rows, k = 0 .. count-1."""
    phi = _phi_cache_get(n)
    d = len(phi) - 1
    rows = _RED_CACHE.get(n)
    if rows is None:
        cur = [-c for c in phi[:d]]  # x^d
        rows = [tuple(cur)]
        _RED_CACHE[n] = rows
    while len(rows) < count:
        cur = rows[-1]
        nxt = [0] + list(cur[:-1])
        top = cur[-1]
        if top:
            for j in range(d):
                nxt[j] -= top * phi[j]
        rows.append(tuple(nxt))
    return rows


_RED_CACHE: dict[int, list[tuple[int, ...]]] = {}


class RingOps:
    """Operators of a commutative ring derived from `+`, unary `-`, `*`
    and `_one()`: a scalar on either side of `+`, `-` and `*`, subtraction
    as adding the negative, and `**` by square-and-multiply."""

    __slots__ = ()

    def __radd__(self, other):
        return self + other

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __rmul__(self, other):
        return self * other

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError(f"negative power of a {type(self).__name__}")
        out = self._one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out


class Cyclotomic:
    """An element of Q(zeta_n): integer numerators `nums` in the power basis
    over one positive integer denominator `den`, in lowest terms
    (gcd(den, *nums) == 1), so equal elements have equal fields.

    Every operation works on ints and reduces its result once.  Instances
    are immutable, so an operation may return an operand itself (x + 0,
    x * 1).  `coords` gives the Fraction coordinates."""

    __slots__ = ("n", "den", "nums")

    def __init__(self, n: int, coords):
        d = len(_phi_cache_get(n)) - 1
        coords = [Fraction(c) for c in coords]
        den = lcm(*(c.denominator for c in coords))
        e = _element(n, den, _fold(n, d, [c.numerator * (den // c.denominator) for c in coords]))
        self.n, self.den, self.nums = n, e.den, e.nums

    @property
    def coords(self) -> tuple:
        den = self.den
        return tuple(Fraction(x, den) for x in self.nums)

    @staticmethod
    def zeta(n: int, power: int = 1) -> "Cyclotomic":
        d = len(_phi_cache_get(n)) - 1
        return _element(n, 1, _fold(n, d, [0] * (power % n) + [1]))

    @staticmethod
    def from_rational(n: int, q) -> "Cyclotomic":
        return Cyclotomic(n, [q])

    def _operand(self, other):
        """(den, nums) of `other` if it is a rational or lies in the same
        field; None for any other type."""
        if isinstance(other, Cyclotomic):
            if other.n != self.n:
                raise ValueError(
                    f"mixed coefficient fields: Q(zeta_{self.n}) vs Q(zeta_{other.n})"
                )
            return other.den, other.nums
        if isinstance(other, (int, Fraction)):
            return other.denominator, (other.numerator,) + (0,) * (len(self.nums) - 1)
        return None

    def _plus(self, db, nb, sign):
        da = self.den
        if da == db:
            return _element(self.n, da, [a + sign * b for a, b in zip(self.nums, nb)])
        g = gcd(da, db)
        fa, fb = db // g, sign * (da // g)
        return _element(self.n, da * fa, [a * fa + b * fb for a, b in zip(self.nums, nb)])

    def __add__(self, other):
        if isinstance(other, (int, Fraction)) and not other:
            return self
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return self._plus(o[0], o[1], 1)

    __radd__ = __add__

    def __neg__(self):
        return _element(self.n, self.den, [-a for a in self.nums])

    def __sub__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return self._plus(o[0], o[1], -1)

    def __rsub__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return (-self)._plus(o[0], o[1], 1)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            # a rational scales the numerators and the denominator
            if other == 1:
                return self
            return _element(
                self.n, self.den * other.denominator, [a * other.numerator for a in self.nums]
            )
        o = self._operand(other)
        if o is None:
            return NotImplemented
        den = self.den * o[0]
        na, nb = self.nums, o[1]
        if not any(na[1:]):
            na, nb = nb, na
        if not any(nb[1:]):  # a factor in Q (most products) scales the other
            b = nb[0]
            return _element(self.n, den, [a * b for a in na])
        d = len(nb)
        conv = [0] * (2 * d - 1)
        for i, ai in enumerate(na):
            if ai:
                for j, bj in enumerate(nb):
                    if bj:
                        conv[i + j] += ai * bj
        return _element(self.n, den, _fold(self.n, d, conv))

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        """Field inverse: the product P of the Galois conjugates of self
        other than self makes self * P the rational norm N, so 1/self is
        P / N, computed with the integer product."""
        nums = self.nums
        if not any(nums[1:]):  # a value in Q (most inverses) inverts directly
            if not nums[0]:
                raise ZeroDivisionError("inverse of zero cyclotomic element")
            sign = 1 if nums[0] > 0 else -1
            return _element(self.n, sign * nums[0], [sign * self.den] + [0] * (len(nums) - 1))
        n = self.n
        prod = 1
        for k in range(2, n):
            if gcd(k, n) == 1:
                prod = self._galois(k) * prod
        norm = self * prod  # lies in Q: only norm.nums[0] is nonzero
        sign = 1 if norm.nums[0] > 0 else -1
        return _element(n, prod.den * sign * norm.nums[0], [sign * norm.den * x for x in prod.nums])

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (_ONE / other)
        if self._operand(other) is None:  # raises first on a different field
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.inverse() * other
        return NotImplemented

    def _galois(self, k: int) -> "Cyclotomic":
        """The automorphism zeta -> zeta^k, k a unit mod n."""
        n, d = self.n, len(self.nums)
        vec = [0] * n
        for j, a in enumerate(self.nums):
            vec[k * j % n] += a
        return _element(n, self.den, _fold(n, d, vec))

    def __bool__(self):
        return any(self.nums)

    def __eq__(self, other):
        if isinstance(other, Cyclotomic):
            if other.n != self.n:
                return NotImplemented
            return self.den == other.den and self.nums == other.nums
        if isinstance(other, (int, Fraction)):
            nums = self.nums
            return (
                self.den == other.denominator
                and nums[0] == other.numerator
                and not any(nums[1:])
            )
        return NotImplemented

    def __hash__(self):
        if not any(self.nums[1:]):  # a value in Q hashes as the rational it equals
            return hash(self.nums[0] if self.den == 1 else Fraction(self.nums[0], self.den))
        return hash((self.n, self.den, self.nums))

    def __repr__(self):
        terms = []
        for k, c in enumerate(self.coords):
            if not c:
                continue
            if k == 0:
                terms.append(str(c))
            elif k == 1:
                terms.append(f"{c}*z{self.n}")
            else:
                terms.append(f"{c}*z{self.n}^{k}")
        return " + ".join(terms) if terms else "0"


def _element(n: int, den: int, nums: list) -> Cyclotomic:
    """The element nums/den of Q(zeta_n), den > 0 and nums reduced mod
    Phi_n, brought to lowest terms."""
    g = gcd(den, *nums) if den != 1 else 1
    out = object.__new__(Cyclotomic)
    out.n = n
    if g == 1:
        out.den = den
        out.nums = tuple(nums)
    else:
        out.den = den // g
        out.nums = tuple(x // g for x in nums)
    return out


def _fold(n: int, d: int, vec: list) -> list:
    """Reduce integer power-basis coordinates of any length modulo Phi_n of
    degree d, in place, to exactly d entries."""
    if len(vec) < d:
        vec += [0] * (d - len(vec))
    elif len(vec) > d:
        rows = _RED_CACHE.get(n)
        if rows is None or len(rows) < len(vec) - d:
            rows = _reduction_rows(n, len(vec) - d)
        for k in range(d, len(vec)):
            c = vec[k]
            if c:
                for j, r in enumerate(rows[k - d]):
                    if r:
                        vec[j] += c * r
        del vec[d:]
    return vec


def rational_value(c):
    """c as an int when it is an integer and as a Fraction when it lies in Q
    otherwise (a Cyclotomic in Q included); an irrational c as it is."""
    if c.__class__ is Cyclotomic:
        if any(c.nums[1:]):
            return c
        return c.nums[0] if c.den == 1 else Fraction(c.nums[0], c.den)
    return c.numerator if c.__class__ is Fraction and c.denominator == 1 else c


def poly_divmod(a: list, b: list):
    """Dense division with remainder, coefficients low degree first; b's
    leading coefficient is nonzero.  The remainder keeps a's length."""
    a = list(a)
    db = len(b) - 1
    lead = b[-1]
    q = [_ZERO] * max(len(a) - db, 1)
    for i in range(len(a) - 1, db - 1, -1):
        if a[i]:
            c = a[i] / lead
            q[i - db] = c
            for j in range(db + 1):
                a[i - db + j] -= c * b[j]
    return q, a
