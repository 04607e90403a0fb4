"""Sparse multivariate polynomials over an exact field.

Terms are stored as a map from exponent vectors (tuples of non-negative
integers) to nonzero coefficients, which may be Fractions or Cyclotomic
elements of one fixed order.  Instances are value-like: no operation mutates
its arguments.  Divisibility by a linear form has one algorithm, the
synthetic division of `divide_by_linear`.
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

    def coefficient(self, exp):
        return self.terms.get(tuple(exp), Fraction(0))

    def sorted_terms(self):
        """Terms sorted in graded-lexicographic exponent order."""
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]))

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


def divide_by_linear(p: Polynomial, alpha: Polynomial):
    """Synthetic division of p by a linear form: returns (quotient, remainder)
    with p = quotient * alpha + remainder and the remainder free of the pivot
    variable of alpha (its first variable with a nonzero coefficient).  Both
    are linear in p.
    """
    coeffs = linear_coefficients(alpha)
    p._check(alpha)
    pivot = next(i for i, c in enumerate(coeffs) if c)
    inv = Fraction(1) / coeffs[pivot]
    others = [(e, c) for e, c in alpha.terms.items() if not e[pivot]]
    # view p as a polynomial in x_pivot; peel the top x_pivot-degree each
    # round in place: its terms move to the quotient, and q * alpha minus
    # the peeled terms is subtracted from the rest
    quotient, remainder = Polynomial(alpha.vars), Polynomial(alpha.vars)
    rem = remainder.terms = dict(p.terms)
    for top in range(max((e[pivot] for e in rem), default=0), 0, -1):
        piece = [(e[:pivot] + (top - 1,) + e[pivot + 1:], rem.pop(e) * inv)
                 for e in [e for e in rem if e[pivot] == top]]
        quotient.terms.update(piece)
        for e, c in multiply_terms(piece, others).items():
            if c := rem.get(e, 0) - c:
                rem[e] = c
            else:
                rem.pop(e, None)
    return quotient, remainder


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

