"""The fibre-cofibre tower in its algebraic form.

Each step rebuilds the next quasi-invariant algebra as a fiber product
Q_m x_(Q_m/(x^2)) k and projects back into Q_m; iterating from Q_0 walks the
whole filtration.  The same fiber-product shape over the truncated line
carries an involution whose fixed part recovers Q_m, and the first
cofibre-type algebra Q + <invariants> stops being free (equivalently
Cohen-Macaulay) the moment the rank exceeds one.
"""

from quasinv.groups import parse_group
from quasinv.tower import (
    coinvariant_dimension,
    fake_cohomology_ring,
    ganea_tower,
    h_t_invariants,
    presentation_check,
    x1_algebra,
)

result = ganea_tower(steps=4, max_degree=14)
print("tower stages (dims):")
for i, stage in enumerate(result["stages"]):
    print(f"  Q_{i}:", stage.dims())
print("each stage certified against the congruence solver:", result["certified"])
print("fiber algebra total dimensions:", result["fiber_total_dimensions"])
print()

# The torus-side model: pairs (p, q) agreeing modulo x^(2m+1), with the
# swap-and-flip involution; invariants match Q_m degree by degree.
ht = h_t_invariants(1, 10)
print("fiber product dims:   ", ht["fiber_dims"])
print("involution invariants:", ht["invariant_dims"])
print("agrees with Q_1:      ", ht["matches_quasi_invariants"])
print()

# Q + <positive-degree invariants>: equal to Q_1 in rank one, not free in
# higher rank -- the counterexample that separates rank one from the rest.
for spec in ("A1", "A1 x A1", "I2(3)"):
    W = parse_group(spec)
    basis, cert = x1_algebra(W, 12)
    print(f"{spec:8s} first-step algebra: {cert.status}"
          + (f" (relation at degree {cert.failure_degree})" if cert.failure_degree else ""))
    print("          coinvariant total dimension:", coinvariant_dimension(basis),
          "= |W| =", W.order)
print()

# Rank one admits the two-generator presentation u^2 = v^(2m+1).
print("presentation check m=2:", presentation_check(2, 14))

# Scaling the quadratic generator by an integer N changes the lattice but
# not the rational subspace.
ring = fake_cohomology_ring(3, 2, 8)
print("N=3, m=2 lattice coefficients:", ring["lattice_coefficients"])
print("equals Q_2 over the rationals:", ring["equals_quasi_invariants_over_Q"])
