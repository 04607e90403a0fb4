"""Truncated series: one-variable power series, and series in z and q.

A PowerSeries is a power series in one variable, exact for exponents below
its certified `order`.  Its coefficients stay of the type they are given
in, so a series with integer coefficients stays integral; it carries the
K-theory of the fake spaces (in t), the exponential map into completed
power series (in x) and pure q-series such as the Euler product (in q).

A ZQSeries is exact: its support in z is finite and fully stored (`z_window`
reads its bounds off the terms), while in q only exponents below `q_order`
are retained.  Operations propagate the largest q-order on which the result
is exact.  Its coefficients are ints where integral, as every theta and
Jacobi coefficient is, so products run on integer arithmetic; a Fraction
appears only where a division or a rational factor brings one in.

z-exponents are stored as integers in w = z^(1/2).  A character of the
rank-one torus is a ZQSeries at q-order 1 (`quasinv.laurent`).  Both types
compare equal only at equal certified orders, never to a scalar.
"""

from __future__ import annotations

from fractions import Fraction

from quasinv.fields import RingOps


class PowerSeries(RingOps):
    """sum c_k var^k + O(var^order): `coeffs` holds c_0 .. c_(order-1);
    `var` only names the variable in repr.  Equal only at equal order."""

    __slots__ = ("coeffs", "order", "var")

    def __init__(self, coeffs, order: int, var: str = "t"):
        if order < 0:
            raise ValueError(f"negative truncation order {order}")
        coeffs = list(coeffs[:order])
        self.coeffs = tuple(coeffs + [0] * (order - len(coeffs)))
        self.order = order
        self.var = var

    def _one(self) -> "PowerSeries":
        return PowerSeries([1], self.order, self.var)

    def __add__(self, other):
        if not isinstance(other, PowerSeries):
            other = PowerSeries([other], self.order)
        n = min(self.order, other.order)
        return PowerSeries([a + b for a, b in zip(self.coeffs[:n], other.coeffs)], n, self.var)

    def __neg__(self):
        return PowerSeries([-c for c in self.coeffs], self.order, self.var)

    def __mul__(self, other):
        if not isinstance(other, PowerSeries):
            return PowerSeries([c * other for c in self.coeffs], self.order, self.var)
        n = min(self.order, other.order)
        out = [0] * n
        for i, a in enumerate(self.coeffs[:n]):
            if a:
                for j, b in enumerate(other.coeffs[: n - i]):
                    if b:
                        out[i + j] += a * b
        return PowerSeries(out, n, self.var)

    def inverse(self) -> "PowerSeries":
        """Inverse of a series with constant term 1 or -1, the units of
        Z[[var]]: no division happens, so integer series stay integral."""
        a = self.coeffs
        if not a or a[0] not in (1, -1):
            raise ValueError("only series with constant term 1 or -1 are inverted")
        inv = [a[0]]  # a unit is its own inverse
        for k in range(1, self.order):
            inv.append(-a[0] * sum(a[j] * inv[k - j] for j in range(1, k + 1)))
        return PowerSeries(inv, self.order, self.var)

    def __eq__(self, other):
        if not isinstance(other, PowerSeries):
            return NotImplemented
        # equal certified orders only, as for ZQSeries
        return self.order == other.order and self.coeffs == other.coeffs

    def __bool__(self):
        return any(self.coeffs)

    def __repr__(self):
        v = self.var
        parts = [
            (f"{c}" if k == 0 else (f"{c}*{v}" if k == 1 else f"{c}*{v}^{k}"))
            for k, c in enumerate(self.coeffs)
            if c
        ]
        return (" + ".join(parts) if parts else "0") + f" + O({v}^{self.order})"


class ZQSeries(RingOps):
    """coeffs: map (w_exponent, q_exponent) -> coefficient, q_exponent < q_order.

    A coefficient is stored as an int when it is integral and as a Fraction
    only where a division made it one; `q_slice` and `coefficient` return
    Fractions either way.  Equal only at equal q-order (`a == b.truncate_q(n)`
    compares across orders), never to a scalar."""

    __slots__ = ("coeffs", "q_order")

    def __init__(self, coeffs=None, q_order: int = 0):
        self.q_order = q_order
        clean = {}
        if coeffs:
            for (w, s), c in coeffs.items():
                if type(c) is not int:  # an integral Fraction is stored as its int
                    c = c if isinstance(c, Fraction) else Fraction(c)
                    if c.denominator == 1:
                        c = c.numerator
                if c and s < q_order:
                    clean[(int(w), int(s))] = c
        self.coeffs = clean

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(q_order: int) -> "ZQSeries":
        return ZQSeries({}, q_order)

    @staticmethod
    def one(q_order: int) -> "ZQSeries":
        return ZQSeries({(0, 0): 1}, q_order)

    def _one(self) -> "ZQSeries":
        return ZQSeries.one(self.q_order)

    @staticmethod
    def from_q_coeffs(qcoeffs, q_order: int) -> "ZQSeries":
        """Pure q-series from a coefficient list."""
        return ZQSeries({(0, s): c for s, c in enumerate(qcoeffs)}, q_order)

    # -- window bookkeeping -------------------------------------------------

    def w_window(self):
        if not self.coeffs:
            return (0, 0)
        ws = [w for (w, _) in self.coeffs]
        return (min(ws), max(ws))

    def z_window(self):
        lo, hi = self.w_window()
        return (Fraction(lo, 2), Fraction(hi, 2))

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ZQSeries({(0, 0): other}, self.q_order)
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            out[key] = out.get(key, 0) + c
        return ZQSeries(out, min(self.q_order, other.q_order))

    def __neg__(self):
        return ZQSeries({k: -c for k, c in self.coeffs.items()}, self.q_order)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return ZQSeries({k: c * other for k, c in self.coeffs.items()}, self.q_order)
        N = min(self.q_order, other.q_order)
        right = _q_levels(other.coeffs, N)
        acc: dict = {}  # q-exponent -> {w-exponent: coefficient}
        for s1, row1 in _q_levels(self.coeffs, N):
            for s2, row2 in right:
                s = s1 + s2
                if s >= N:
                    break  # the levels are sorted: the rest is truncated too
                level = acc.setdefault(s, {})
                for w1, c1 in row1:
                    for w2, c2 in row2:
                        w = w1 + w2
                        level[w] = level.get(w, 0) + c1 * c2
        return ZQSeries({(w, s): c for s, level in acc.items() for w, c in level.items()}, N)

    def truncate_q(self, N: int) -> "ZQSeries":
        return ZQSeries(self.coeffs, min(self.q_order, N))

    # -- substitutions --------------------------------------------------------

    def involution(self) -> "ZQSeries":
        """z -> 1/z.  Valid because the full z-support is stored."""
        return ZQSeries({(-w, s): c for (w, s), c in self.coeffs.items()}, self.q_order)

    def mul_monomial(self, z_exp, q_exp: int) -> "ZQSeries":
        """Multiply by z^(z_exp) q^(q_exp); for q_exp >= 0 the certified
        q-order grows with the shift."""
        if q_exp < 0:
            raise ValueError("negative q-shifts are not certified")
        w = _as_w(z_exp)
        return ZQSeries(
            {(w1 + w, s + q_exp): c for (w1, s), c in self.coeffs.items()},
            self.q_order + q_exp,
        )

    # -- extraction -------------------------------------------------------------

    def q_slice(self, s: int) -> dict:
        """Map w-exponent -> coefficient (a Fraction) at q^s."""
        return {w: Fraction(c) for (w, s2), c in self.coeffs.items() if s2 == s}

    def coefficient(self, z_exp, q_exp: int) -> Fraction:
        return Fraction(self.coeffs.get((_as_w(z_exp), q_exp), 0))

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, ZQSeries):
            return NotImplemented
        # equal certified orders only: truncate_q the longer one first to compare
        return self.q_order == other.q_order and self.coeffs == other.coeffs

    def __repr__(self):
        n = len(self.coeffs)
        lo, hi = self.z_window()
        return f"<ZQSeries {n} terms, z-window [{lo}, {hi}], exact below q^{self.q_order}>"


def _q_levels(coeffs: dict, N: int) -> list:
    """The terms below q^N grouped by q-exponent: sorted (s, [(w, c), ...])."""
    levels: dict = {}
    for (w, s), c in coeffs.items():
        if s < N:
            levels.setdefault(s, []).append((w, c))
    return sorted(levels.items())


def _as_w(z_exp) -> int:
    if type(z_exp) is int:
        return 2 * z_exp
    w = Fraction(z_exp) * 2
    if w.denominator != 1:
        raise ValueError("z-exponents must be half-integers")
    return int(w)
