"""Arithmetic of the exotic rank-one deloopings and their K-theory subrings.

A family of spaces indexed by quadratic-residue signs at each prime carries
a numerical invariant N: the least common multiple of the local gluing
degrees.  Its K-theory generator series N t^2 + ... spawns a filtration of
subrings of Z[[t]], and reducing mod p and mod the cubic filtration layer
distinguishes the members whenever p misses N.
"""

from quasinv import laurent
from quasinv.demazure import exp_basis
from quasinv.fake_ktheory import (
    bg_series,
    distinguishing_invariant,
    laurent_to_t_series,
    legendre,
    n_b,
    qmb,
)
from quasinv.series import PowerSeries

print("quadratic residue signs:")
for k, p in ((2, 7), (3, 5), (17, 2), (5, 2)):
    print(f"  ({k} | {p}) = {legendre(k, p):+d}")
print()

print("local degrees {3: 2, 5: 3} combine to:", n_b({3: 2, 5: 3}))
print("empty assignment (the standard space):", n_b({}))
print()

# The standard generator series t^2/(1+t), which is z - 2 + 1/z at z = 1+t.
bg = bg_series(12)
print("standard generator series:", bg)
ring1 = qmb(bg, 1, 12)
print("truncation order reaches t^(2m):", ring1.recursion_verified)

z = laurent.z_power(1)
delta = laurent.delta()
print("image of delta is a member:",
      ring1.membership(laurent_to_t_series(delta, 12)))
print("image of z alone is not:   ",
      ring1.membership(laurent_to_t_series(z, 12)))

# the exponential ring maps into the filtration level by level
ring2 = qmb(bg, 2, 12)
images = [laurent_to_t_series(el, 12) for el in exp_basis(2, (-2, 2)).elements]
print("all multiplicity-2 characters land inside:",
      all(ring2.membership(f) == "member" for f in images))
print()

# A nonstandard generator 3 t^2 + t^3: the mod-p quotient sees the leading 3.
gen = PowerSeries([0, 0, 3, 1], 10)
print("p = 5 (coprime to 3):", distinguishing_invariant(gen, 2, 5))
print("p = 3 (divides 3):   ", distinguishing_invariant(gen, 2, 3))
