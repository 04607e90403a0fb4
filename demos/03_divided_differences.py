"""Divided differences, their exponential analogue, and exponentiation.

The multiplicity-m operator divides p - s(p) by the (2m+1)-st power of the
hyperplane form; on the character ring of the rank-one torus the analogous
operator divides by 1 - z^2, and its vanishing order at z = 1 cuts out the
exponential quasi-invariants.  Substituting z = exp(x) carries that ring
into the completed polynomial quasi-invariants.
"""

from fractions import Fraction

from quasinv import laurent
from quasinv.demazure import (
    chern_character,
    delta_classical,
    delta_m,
    exp_basis,
    is_exp_quasi_invariant,
    lambda_op,
)
from quasinv.groups import Multiplicity, parse_group
from quasinv.poly import Polynomial

A1 = parse_group("A1")
H = A1.hyperplanes[0]
x = Polynomial.variable(A1.variables, "x")

print("classical operator:")
for k in (1, 2, 3):
    print(f"  x^{k} ->", delta_classical(A1, H, x**k))

m1 = Multiplicity.constant(A1, 1)
print("multiplicity-1 operator (divides by x^3):")
for k in (4, 5, 7):
    print(f"  x^{k} ->", delta_m(A1, H, m1, x**k))
print()

z = laurent.z_power(1)
zi = laurent.z_power(-1)
delta = laurent.delta()  # z - 2 + 1/z, vanishing to order 2 at z = 1
terms = lambda_op(z).coeffs  # -1/z, keyed by (exponent of w = z^(1/2), q-exponent)
print("exponential operator on z:", " + ".join(f"{c}*z^{w // 2}" for (w, _), c in terms.items()))
print("z + 1/z is invariant:", not lambda_op(z + zi))
print("delta passes at multiplicity 1:", is_exp_quasi_invariant(1, delta))
print("z fails at multiplicity 1:", is_exp_quasi_invariant(1, z))
print()

ring = exp_basis(2, (-3, 3))
print("multiplicity-2 ring on the window [-3, 3]:")
for label in ring.labels[:5]:
    print("  ", label)
print("integral membership of delta:", ring.contains(delta))
print("integral membership of delta/2:", ring.contains(delta * Fraction(1, 2)))
print()

series, shape = chern_character(delta, 1, 10)
print("image of delta under z = exp(x):", series)
print("completed-ring shape:", shape)
