"""Rational Hilbert series P(t) / prod_i (1 - t^(d_i)) with certificates.

A series is only ever produced together with the degree range over which its
expansion was matched against actually computed graded dimensions; failed
reconstructions raise instead of returning a wrong series.
"""

from __future__ import annotations

from quasinv.errors import ReconstructionError


class HilbertSeries:
    """P(t) over prod (1 - t^(d_i)), with numerator stored low degree first."""

    __slots__ = ("numerator", "denominator_exponents", "verified_through")

    def __init__(self, numerator, denominator_exponents, verified_through):
        num = list(numerator)
        while num and num[-1] == 0:
            num.pop()
        self.numerator = tuple(num)
        self.denominator_exponents = tuple(sorted(denominator_exponents))
        self.verified_through = verified_through

    def dims(self, through: int):
        """Coefficients of the expansion up to the given degree."""
        out = list(self.numerator) + [0] * max(0, through + 1 - len(self.numerator))
        out = out[: through + 1]
        for d in self.denominator_exponents:
            # multiply by 1/(1 - t^d): prefix sums with stride d
            for i in range(d, through + 1):
                out[i] += out[i - d]
        return out

    def numerator_degree(self) -> int:
        return len(self.numerator) - 1 if self.numerator else 0

    def numerator_at_one(self) -> int:
        return sum(self.numerator)

    def is_palindromic(self) -> bool:
        return bool(self.numerator) and tuple(reversed(self.numerator)) == self.numerator

    def numerator_string(self) -> str:
        if not self.numerator:
            return "0"
        parts = []
        for k, c in enumerate(self.numerator):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                mono = "t" if k == 1 else f"t^{k}"
                if c == 1:
                    parts.append(mono)
                elif c == -1:
                    parts.append(f"-{mono}")
                else:
                    parts.append(f"{c}*{mono}")
        s = " + ".join(parts)
        return s.replace("+ -", "- ")

    def denominator_string(self) -> str:
        return "".join(f"(1-t^{d})" for d in self.denominator_exponents)

    def __repr__(self):
        return f"({self.numerator_string()}) / {self.denominator_string()}"


def hilbert_from_basis(dims, invariant_degrees) -> HilbertSeries:
    """Reconstruct the rational generating function of a graded module free
    over an invariant ring with the given degrees.

    `dims` are the dimensions in degrees 0..D.  The numerator is the exact
    product dims(t) * prod(1 - t^(d_i)) truncated at D; reconstruction
    succeeds only if that product vanishes on the top `max(d_i)` degrees, so
    the answer is never silently wrong.
    """
    dims = list(dims)
    degrees = sorted(invariant_degrees)
    if not degrees:
        raise ValueError("need at least one invariant degree")
    D = len(dims) - 1
    if D < 2 * sum(degrees):
        raise ReconstructionError(
            f"degree bound too small: need dims through {2 * sum(degrees)}, got {D}"
        )
    num = list(dims)
    for d in degrees:
        nxt = num[:]
        for i in range(d, D + 1):
            nxt[i] -= num[i - d]
        num = nxt
    tail = max(degrees)
    if any(num[D - tail + 1 :]):
        raise ReconstructionError(
            "degree bound too small: numerator has not stabilized"
        )
    series = HilbertSeries(num[: D - tail + 1], degrees, verified_through=D)
    if series.dims(D) != dims:
        raise ReconstructionError("reconstructed series does not reproduce dims")
    return series


def gorenstein_shift(series: HilbertSeries, dim_v: int):
    """The integer a in the functional equation relating H(1/t) to H(t) for a
    graded Gorenstein algebra, or None when the numerator is not palindromic
    (no such a exists).

    For H = P(t)/prod(1-t^(d_i)) with one degree per dimension, the equation
    holds exactly when P is palindromic, and then a = sum(d_i) - deg P.  The
    polynomial ring (P = 1, degrees all 1) has a = dim V.
    """
    if len(series.denominator_exponents) != dim_v:
        raise ValueError("expected one invariant degree per dimension")
    if not series.is_palindromic():
        return None
    return sum(series.denominator_exponents) - series.numerator_degree()
