"""Sparse multivariate polynomials over an exact field.

Terms are stored as a map from exponent vectors (tuples of non-negative
integers) to nonzero coefficients, which may be Fractions or Cyclotomic
elements of one fixed order.  Instances are value-like: no operation mutates
its arguments.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import add

from quasinv.fields import Cyclotomic, RingOps

INFINITE_ORDER = math.inf


def _as_coeff(c):
    if isinstance(c, int):
        return Fraction(c)
    return c


class Polynomial(RingOps):
    __slots__ = ("vars", "terms")

    def __init__(self, variables, terms=None):
        self.vars = tuple(variables)
        clean = {}
        if terms:
            for exp, c in terms.items():
                c = _as_coeff(c)
                if c:
                    clean[tuple(exp)] = c
        self.terms = clean

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(variables) -> "Polynomial":
        return Polynomial(variables)

    @staticmethod
    def constant(variables, c) -> "Polynomial":
        n = len(tuple(variables))
        return Polynomial(variables, {(0,) * n: c})

    @staticmethod
    def variable(variables, name) -> "Polynomial":
        variables = tuple(variables)
        i = variables.index(name)
        exp = [0] * len(variables)
        exp[i] = 1
        return Polynomial(variables, {tuple(exp): 1})

    @staticmethod
    def monomial(variables, exp, c=1) -> "Polynomial":
        return Polynomial(variables, {tuple(exp): c})

    def _one(self) -> "Polynomial":
        return Polynomial.constant(self.vars, 1)

    # -- ring operations ----------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.vars != other.vars:
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction, Cyclotomic)):
            other = Polynomial.constant(self.vars, other)
        self._check(other)
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            s = terms.get(exp, 0) + c
            if s:
                terms[exp] = s
            else:
                terms.pop(exp, None)
        out = Polynomial(self.vars)
        out.terms = terms
        return out

    def __neg__(self):
        out = Polynomial(self.vars)
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Cyclotomic)):
            other = _as_coeff(other)
            out = Polynomial(self.vars)
            out.terms = {e: c * other for e, c in self.terms.items()} if other else {}
            return out
        self._check(other)
        out = Polynomial(self.vars)
        out.terms = multiply_terms(self.terms.items(), other.terms.items())
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Cyclotomic)):  # a constant hashes as it too
            return self.terms == ({(0,) * len(self.vars): other} if other else {})
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        zero = (0,) * len(self.vars)
        if self.terms.keys() <= {zero}:
            return hash(self.terms.get(zero, 0))
        return hash((self.vars, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    # -- structure ------------------------------------------------------

    def degree(self):
        """Total degree; -inf for the zero polynomial."""
        if not self.terms:
            return -INFINITE_ORDER
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def homogeneous_component(self, d: int) -> "Polynomial":
        out = Polynomial(self.vars)
        out.terms = {e: c for e, c in self.terms.items() if sum(e) == d}
        return out

    def coefficient(self, exp):
        return self.terms.get(tuple(exp), Fraction(0))

    def sorted_terms(self):
        """Terms sorted in graded-lexicographic exponent order."""
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]))

    def substitute(self, images: dict, cache: dict | None = None) -> "Polynomial":
        """Replace each variable by the given polynomial image.

        Variables absent from `images` keep their exponents in place.
        `cache` memoizes powers of the images across repeated calls; reuse
        one cache together with stable image dictionaries for speed.
        """
        touched = [i for i, name in enumerate(self.vars) if name in images]
        if not touched or not self.terms:
            return self
        if cache is None:
            cache = {}
        images_id = id(images)
        out = Polynomial(self.vars)
        for exp, c in self.terms.items():
            kept = list(exp)
            term = None
            for i in touched:
                e = kept[i]
                if e:
                    kept[i] = 0
                    name = self.vars[i]
                    power = _cached_power(images[name], e, cache, (images_id, name))
                    term = power if term is None else term * power
            base = Polynomial.monomial(self.vars, kept, c)
            contrib = base if term is None else base * term
            out = out + contrib
        return out

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for exp, c in self.sorted_terms():
            mono = "*".join(
                f"{v}^{e}" if e > 1 else v
                for v, e in zip(self.vars, exp)
                if e
            )
            if mono:
                parts.append(f"({c})*{mono}" if c != 1 else mono)
            else:
                parts.append(f"({c})")
        return " + ".join(parts)


def multiply_terms(left, right, columns=None) -> dict:
    """The product of two re-iterable term lists of (exponent, nonzero
    coefficient) pairs as `{e1 + e2: sum of c1 * c2}` without the entries
    that cancel, keyed by `columns[e1 + e2]` when `columns` is given.  A left
    coefficient equal to the rational 1 is not multiplied: 1 * c2 is c2."""
    terms: dict = {}
    for e1, c1 in left:
        unit = c1.__class__ is Fraction and c1 == 1
        for e2, c2 in right:
            e = tuple(map(add, e1, e2))
            if columns is not None:
                e = columns[e]
            c = c2 if unit else c1 * c2
            s = terms.get(e)
            if s is None:
                terms[e] = c
            elif s := s + c:
                terms[e] = s
            else:
                del terms[e]
    return terms


def _cached_power(p: Polynomial, e: int, cache: dict, key) -> Polynomial:
    powers = cache.get(key)
    if powers is None:
        powers = [Polynomial.constant(p.vars, 1), p]
        cache[key] = powers
    while len(powers) <= e:
        powers.append(powers[-1] * p)
    return powers[e]


# -- linear forms and divisibility --------------------------------------


def linear_coefficients(alpha: Polynomial):
    """Coefficient vector of a nonzero homogeneous linear form."""
    if not alpha or alpha.degree() != 1 or not alpha.is_homogeneous():
        raise ValueError("expected a nonzero homogeneous linear form")
    coeffs = []
    for i in range(len(alpha.vars)):
        exp = [0] * len(alpha.vars)
        exp[i] = 1
        coeffs.append(alpha.coefficient(exp))
    return coeffs


def adapted_substitution(alpha: Polynomial) -> dict:
    """A deterministic invertible change of variables adapted to alpha.

    With c the coefficient vector of alpha and p its leftmost nonzero index
    (the pivot), the new coordinates are y_p = alpha and y_j = x_j for
    j != p: the form is completed to a coordinate system by the standard
    basis vectors of the remaining slots.  The returned images express the
    old variables in the new ones (reusing the same variable names), so that
    q(x) is divisible by alpha^k exactly when every term of the substituted
    polynomial has exponent >= k in the pivot slot.
    """
    cached = _ADAPTED_MEMO.get(alpha)
    if cached is not None:
        return cached
    coeffs = linear_coefficients(alpha)
    pivot = next(i for i, c in enumerate(coeffs) if c)
    variables = alpha.vars
    y = [Polynomial.variable(variables, v) for v in variables]
    # x_j = y_j off the pivot; x_pivot = (y_pivot - sum_j c_j y_j) / c_pivot
    acc = y[pivot]
    for j, c in enumerate(coeffs):
        if j != pivot and c:
            acc = acc - c * y[j]
    images = {variables[pivot]: acc * (Fraction(1) / coeffs[pivot])}
    _ADAPTED_MEMO[alpha] = images
    return images


_ADAPTED_MEMO: dict = {}


def divisibility_order(p: Polynomial, alpha: Polynomial, _cache: dict | None = None):
    """Largest k with alpha^k dividing p exactly; 0 if alpha does not divide p
    and the infinite sentinel for p = 0.

    Computed through the deterministic coordinate change of
    `adapted_substitution`, which turns divisibility into vanishing of all
    terms of low order in the first coordinate.
    """
    images = adapted_substitution(alpha)
    if not p:
        return INFINITE_ORDER
    q = p.substitute(images, cache=_cache)
    coeffs = linear_coefficients(alpha)
    pivot = next(i for i, c in enumerate(coeffs) if c)
    # after substitution, "y_1" occupies the pivot variable's slot
    return min(exp[pivot] for exp in q.terms)


def divide_by_linear(p: Polynomial, alpha: Polynomial):
    """Synthetic division of p by a linear form: returns (quotient, remainder)
    with p = quotient * alpha + remainder and the remainder free of the pivot
    variable of alpha.  Independent of `divisibility_order`.
    """
    coeffs = linear_coefficients(alpha)
    pivot = next(i for i, c in enumerate(coeffs) if c)
    inv = Fraction(1) / coeffs[pivot]
    # view p as a polynomial in x_pivot; peel the top x_pivot-degree each round
    quotient = Polynomial(alpha.vars)
    rem = p
    while True:
        top = max((e[pivot] for e in rem.terms), default=0)
        if top == 0:
            break
        piece = Polynomial(alpha.vars)
        piece.terms = {
            e[:pivot] + (top - 1,) + e[pivot + 1:]: c * inv
            for e, c in rem.terms.items()
            if e[pivot] == top
        }
        quotient = quotient + piece
        rem = rem - piece * alpha
    return quotient, rem


def exact_quotient_by_power(p: Polynomial, alpha: Polynomial, k: int) -> Polynomial:
    """p / alpha^k, raising if the division is not exact."""
    q = p
    for _ in range(k):
        q, r = divide_by_linear(q, alpha)
        if r:
            raise ArithmeticError("division by linear form is not exact")
    return q


def monomials_of_degree(variables, d: int):
    """All exponent vectors of total degree d, in graded-lex order."""
    variables = tuple(variables)
    n = len(variables)
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(tuple(prefix) + (remaining,))
            return
        for e in range(remaining + 1):
            rec(prefix + [e], remaining - e, slots - 1)

    rec([], d, n)
    out.sort()
    return out


@lru_cache(maxsize=256)
def monomial_index(variables: tuple, d: int) -> dict:
    """Position of each degree-d exponent vector in `monomials_of_degree`
    order.  Shared between callers: read it, never mutate it."""
    return {m: i for i, m in enumerate(monomials_of_degree(variables, d))}

