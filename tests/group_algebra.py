"""The group algebra of a reflection group, as the reference route for the
defining congruences.

The library imposes the congruences through eigen-coordinates of each
hyperplane and never forms a group algebra element.  The oracle and the
reference solvers in the tests apply the reflection minus one and the
character idempotents of each stabilizer literally, with the classes here.
"""

from fractions import Fraction

from quasinv.fields import Cyclotomic
from quasinv.poly import Polynomial


def product(group, i: int, j: int) -> int:
    """Index of w_i w_j, read off the group's multiplication table."""
    return group._mul_table[i][j]


def inverse(group, i: int) -> int:
    """Index of w_i^(-1), read off the group's table of inverses."""
    return group._inv_table[i]


class GroupAlgebraElement:
    """Element of the group algebra: map from element index to coefficient."""

    __slots__ = ("group", "coeffs")

    def __init__(self, group, coeffs: dict):
        self.group = group
        self.coeffs = {i: c for i, c in coeffs.items() if c}

    def __add__(self, other):
        out = dict(self.coeffs)
        for i, c in other.coeffs.items():
            s = out.get(i, 0) + c
            if s:
                out[i] = s
            else:
                out.pop(i, None)
        return GroupAlgebraElement(self.group, out)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Cyclotomic)):
            return GroupAlgebraElement(self.group, {i: c * other for i, c in self.coeffs.items()})
        out: dict = {}
        for i, ci in self.coeffs.items():
            for j, cj in other.coeffs.items():
                k = product(self.group, i, j)
                s = out.get(k, 0) + ci * cj
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        return GroupAlgebraElement(self.group, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, GroupAlgebraElement):
            return NotImplemented
        return self.coeffs == other.coeffs

    def apply(self, p: Polynomial) -> Polynomial:
        """sum_i c_i act(i, p), accumulated term by term in one dict."""
        group = self.group
        if p.vars != group.variables:
            raise ValueError("polynomial not in this group's coordinate ring")
        roots = group.roots
        out: dict = {}
        for i, c in self.coeffs.items():
            for (f, j), v in zip(group._moved(i, p.terms), p.terms.values()):
                s = out.get(f, 0) + (roots[j] * v if any(f) else v) * c
                if s:
                    out[f] = s
                else:
                    out.pop(f, None)
        acc = Polynomial(group.variables)
        acc.terms = out
        return acc

    def __repr__(self):
        return f"<GroupAlgebraElement {self.coeffs}>"


def determinant(group, i: int):
    """det w_i of a monomial matrix: the sign of its pattern times the
    product of its nonzero entries."""
    m = group.elements[i]
    perm = [next(col for col, c in enumerate(row) if c) for row in m]
    det = group.roots[0]
    for k, col in enumerate(perm):
        det = det * m[k][col]
    inversions = sum(a > b for k, a in enumerate(perm) for b in perm[k + 1:])
    return -det if inversions % 2 else det


def idempotent(group, h, i: int) -> GroupAlgebraElement:
    """The i-th character idempotent of the cyclic pointwise stabilizer of a
    hyperplane, built from powers of the determinant character.  Idempotency
    is verified on construction."""
    n_h = h.stabilizer_order
    if not 0 <= i < n_h:
        raise ValueError(f"character index {i} out of range for n_H = {n_h}")
    stab = group.stabilizer(h)
    if len(stab) != n_h:
        raise ValueError("stabilizer enumeration inconsistent with n_H")
    coeffs = {}
    inv_order = Fraction(1, n_h)
    roots = group.roots
    for w in stab:
        j = roots.index(determinant(group, w))
        coeffs[w] = roots[-i * j % len(roots)] * inv_order
    e = GroupAlgebraElement(group, coeffs)
    if e * e != e:
        raise ArithmeticError("constructed group algebra element is not idempotent")
    return e
