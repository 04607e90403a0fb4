"""Theta functions on the multiplicative torus and graded section modules.

All series are exact: full support in z, truncated in q with the certified
order tracked through every operation.  The odd theta function has its sum
and product normal forms compared coefficientwise; powers of the degree-two
bundle have section spaces cut out by a q-difference functional equation.
"""

from quasinv.elliptic import (
    check_functional_equation,
    ell_g_generator,
    ell_graded_dimension,
    ell_sheaf_dims,
    jacobi_theta,
    section_basis,
    theta,
    theta_divisibility,
)

N = 12
tp = theta("product", (-8, 8), N)
ts = theta("sum", (-8, 8), N)
print(f"sum form == product form through q^{N}:", ts == tp)

jac = jacobi_theta((-8, 8), N)
print("half-power variant at q^0:", sorted(jac.q_slice(0).items()))
print("inversion identity theta(1/z) = -theta(z)/z:",
      tp.involution() == tp.mul_monomial(-1, 0) * -1)
print()

# Sections of the n-th bundle power: solutions of f(qz) q^n z^(2n) = f(z).
for n in (1, 2, 3):
    space = section_basis(n, N)
    print(f"bundle power {n}: section space dimension {space.dim()}")
j2 = jac * jac
print("square of the half-power theta is a degree-1 section:",
      check_functional_equation(j2, 1))
print("and is divisible by the odd theta exactly twice (theta^2 / theta^3):",
      theta_divisibility(j2, 2)["verdict"], "/",
      theta_divisibility(j2, 3)["verdict"])
print()

# Graded dimensions of the invariant-plus-divisible-anti-invariant modules.
print("graded dimensions (rows: multiplicity m, columns: degree n):")
for m in range(3):
    row = [ell_graded_dimension(m, n, N)["dimension"] for n in range(1, 6)]
    print(f"  m={m}:", row)
print()

print("sheaf cohomology of the tower fibers:")
for m in range(4):
    r = ell_sheaf_dims(m)
    print(f"  m={m}: h0={r['h0']}, h1={r['h1']}, split={r['w_split']}")
print()

g = ell_g_generator(1, 10)
print("anti-invariant module generator at m=1:")
print("  simplification holds:", g["simplification_holds"])
print("  vanishing order along theta exactly 3:",
      g["vanishing_order_lower"] and g["vanishing_order_exact"])
