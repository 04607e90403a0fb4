"""Exact coefficient fields: rationals and cyclotomic extensions Q(zeta_n).

Rationals are `fractions.Fraction` (always reduced, denominator positive).
A `Cyclotomic` holds an element of Q(zeta_n) as a coordinate vector in the
power basis 1, zeta, ..., zeta^(d-1) modulo the n-th cyclotomic polynomial,
d = deg(Phi_n).  The coefficient field of a computation is fixed up front;
mixing cyclotomic elements of different orders is rejected.
"""

from __future__ import annotations

from fractions import Fraction

Rational = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def cyclotomic_polynomial(n: int) -> list[int]:
    """Integer coefficients of Phi_n, low degree first, computed by dividing
    x^n - 1 by the product of Phi_d over proper divisors d of n."""
    if n < 1:
        raise ValueError("order must be positive")
    return list(_phi_cache_get(n))


def _phi_cache_get(n: int) -> tuple[int, ...]:
    phi = _PHI_CACHE.get(n)
    if phi is None:
        num = [0] * (n + 1)
        num[0], num[n] = -1, 1
        for d in range(1, n):
            if n % d == 0:
                num = _int_poly_divexact(num, _phi_cache_get(d))
        phi = tuple(num)
        _PHI_CACHE[n] = phi
    return phi


_PHI_CACHE: dict[int, tuple[int, ...]] = {}


def _int_poly_divexact(num: list[int], den: tuple[int, ...]) -> list[int]:
    # den is monic; division of integer polynomials stays integral here
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c == 0:
            continue
        out[i - dd] = c
        for j, dj in enumerate(den):
            num[i - dd + j] -= c * dj
    if any(num):
        raise ArithmeticError("inexact polynomial division")
    return out


def _reduction_rows(n: int, count: int | None = None) -> list[tuple[int, ...]]:
    """x^(d+k) mod Phi_n as integer coordinate rows, k = 0 .. count-1."""
    phi = _phi_cache_get(n)
    d = len(phi) - 1
    if count is None:
        count = max(d - 1, 1)
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


class Cyclotomic:
    """An element of Q(zeta_n) in the power basis modulo Phi_n.

    Instances are immutable, so an operation may return an operand itself
    (x + 0, x * 1)."""

    __slots__ = ("n", "coords", "_ints")

    def __init__(self, n: int, coords):
        d = len(_phi_cache_get(n)) - 1
        coords = [Fraction(c) for c in coords]
        if len(coords) > d:
            extra = coords[d:]
            coords = coords[:d]
            rows = _reduction_rows(n, len(extra))
            for k, c in enumerate(extra):
                if c:
                    row = rows[k]
                    for j in range(d):
                        if row[j]:
                            coords[j] += c * row[j]
        else:
            coords = coords + [_ZERO] * (d - len(coords))
        self.n = n
        self.coords = tuple(coords)
        self._ints = None

    @staticmethod
    def _raw(n: int, coords: tuple) -> "Cyclotomic":
        """Fast constructor for already-reduced Fraction tuples."""
        out = object.__new__(Cyclotomic)
        out.n = n
        out.coords = coords
        out._ints = None
        return out

    def _int_form(self):
        """(common denominator, integer numerators); cached."""
        if self._ints is None:
            den = 1
            for c in self.coords:
                den = den * c.denominator // _gcd(den, c.denominator)
            self._ints = (den, tuple(c.numerator * (den // c.denominator) for c in self.coords))
        return self._ints

    @staticmethod
    def zeta(n: int, power: int = 1) -> "Cyclotomic":
        power %= n
        return Cyclotomic(n, [_ZERO] * power + [_ONE])

    @staticmethod
    def from_rational(n: int, q) -> "Cyclotomic":
        return Cyclotomic(n, [Fraction(q)])

    def _coerce(self, other):
        if isinstance(other, Cyclotomic):
            if other.n != self.n:
                raise ValueError(
                    f"mixed coefficient fields: Q(zeta_{self.n}) vs Q(zeta_{other.n})"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return Cyclotomic._raw(self.n, (Fraction(other),) + (_ZERO,) * (len(self.coords) - 1))
        return None

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            # a rational only moves the constant coordinate
            if not other:
                return self
            return Cyclotomic._raw(self.n, (self.coords[0] + other,) + self.coords[1:])
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Cyclotomic._raw(self.n, tuple(a + b for a, b in zip(self.coords, o.coords)))

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic._raw(self.n, tuple(-a for a in self.coords))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Cyclotomic._raw(self.n, tuple(a - b for a, b in zip(self.coords, o.coords)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            # a rational scales every coordinate
            if other == 1:
                return self
            return Cyclotomic._raw(self.n, tuple(a * other for a in self.coords))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        da, na = self._int_form()
        db, nb = o._int_form()
        d = len(na)
        conv = [0] * (2 * d - 1)
        for i, ai in enumerate(na):
            if ai:
                for j, bj in enumerate(nb):
                    if bj:
                        conv[i + j] += ai * bj
        # fold the tail back with the integer reduction rows of Phi_n
        rows = _reduction_rows(self.n)
        out = conv[:d]
        for k in range(d, 2 * d - 1):
            c = conv[k]
            if c:
                row = rows[k - d]
                for j in range(d):
                    if row[j]:
                        out[j] += c * row[j]
        den = da * db
        return Cyclotomic._raw(self.n, tuple(Fraction(x, den) for x in out))

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        """Field inverse via the extended Euclidean algorithm in Q[x] mod Phi_n."""
        if not self:
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        phi = [Fraction(c) for c in _phi_cache_get(self.n)]
        r0, r1 = phi, list(self.coords)
        s0, s1 = [_ZERO], [_ONE]
        while True:
            while r1 and not r1[-1]:
                r1.pop()
            if len(r1) == 1:
                inv = [c / r1[0] for c in s1]
                return Cyclotomic(self.n, inv)
            q, r = poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def conjugate(self) -> "Cyclotomic":
        """The automorphism zeta -> zeta^(-1)."""
        n, d = self.n, len(self.coords)
        out = Cyclotomic.from_rational(n, self.coords[0])
        for k in range(1, d):
            if self.coords[k]:
                out = out + self.coords[k] * Cyclotomic.zeta(n, n - k)
        return out

    def rational_part(self):
        """Return self as a Fraction if it lies in Q, else None."""
        if any(self.coords[1:]):
            return None
        return self.coords[0]

    def __bool__(self):
        return any(self.coords)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyclotomic.from_rational(self.n, other)
        if not isinstance(other, Cyclotomic) or other.n != self.n:
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash((self.n, self.coords))

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


def field_inverse(c):
    """1/c for a rational or cyclotomic element."""
    return _ONE / c if isinstance(c, Fraction) else c.inverse()


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


def _poly_mul(a: list, b: list) -> list:
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _poly_sub(a: list, b: list) -> list:
    m = max(len(a), len(b))
    a = a + [_ZERO] * (m - len(a))
    b = b + [_ZERO] * (m - len(b))
    return [x - y for x, y in zip(a, b)]
