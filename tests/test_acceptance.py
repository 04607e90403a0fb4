"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Everything here is exact arithmetic, so unless a runtime bound is stated the
tolerance is literal equality.  Run with `pytest tests/test_acceptance.py -v -s`
to see the per-criterion lines.
"""

import random
import time
from fractions import Fraction

from oracles import brute_quasi_dims, cw_valued_basis
from test_quasi import _certificate_outcome, _reference_outcome
from quasinv.demazure import (
    chern_character,
    delta_m,
    exp_basis,
    is_exp_quasi_invariant,
)
from quasinv.elliptic import (
    ell_graded_dimension,
    ell_sheaf_dims,
    jacobi_theta,
    section_basis,
    theta,
)
from quasinv.fake_ktheory import (
    MEMBER,
    NON_MEMBER,
    bg_series,
    distinguishing_invariant,
    laurent_to_t_series,
    qmb,
)
from quasinv.groups import Multiplicity, parse_group
from quasinv.laurent import delta, z_power
from quasinv.poly import Polynomial
from quasinv.quasi import (
    freeness_certificate,
    hilbert,
    quasi_basis,
)
from quasinv.series import PowerSeries, ZQSeries
from quasinv.tower import (
    fake_cohomology_ring,
    ganea_tower,
    h_t_invariants,
    x1_algebra,
)

A1 = parse_group("A1")


def report(number, description, ok, extra=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number:2d}: {description}"
    if extra:
        line += f" ({extra})"
    print(line)
    assert ok, line


def criterion_2_configurations():
    configs = []
    for m in range(6):
        configs.append((A1, Multiplicity.constant(A1, m)))
    w2 = parse_group("A1 x A1")
    for m1 in range(3):
        for m2 in range(3):
            configs.append((w2, Multiplicity(w2, {0: m1, 1: m2})))
    for spec in ("I2(3)", "I2(4)", "I2(5)"):
        w = parse_group(spec)
        orbits = sorted({h.orbit_id for h in w.hyperplanes})
        if len(orbits) == 1:
            for m in range(3):
                configs.append((w, Multiplicity.constant(w, m)))
        else:
            for m1 in range(3):
                for m2 in range(3):
                    configs.append((w, Multiplicity(w, {orbits[0]: m1, orbits[1]: m2})))
    return configs


def _max_entry(mult):
    out = 0
    for v in mult.values.values():
        out = max(out, v if not isinstance(v, tuple) else max(v, default=0))
    return int(out)


def test_criterion_01_rank_one_basis():
    start = time.time()
    ok = True
    for m in range(6):
        basis = quasi_basis(A1, Multiplicity.constant(A1, m), 20)
        for d in range(21):
            expected = 1 if (d % 2 == 0 or d >= 2 * m + 1) else 0
            layer = basis.layers[d]
            if len(layer) != expected:
                ok = False
            if layer:
                x = Polynomial.variable(A1.variables, "x")
                if layer[0] != x**d:
                    ok = False
        series = hilbert(A1, Multiplicity.constant(A1, m), 20)
        if list(series.numerator) != [1] + [0] * (2 * m) + [1]:
            ok = False
    elapsed = time.time() - start
    report(1, "rank-one monomial basis and numerator 1 + t^(2m+1), m <= 5",
           ok and elapsed < 1.0, f"{elapsed:.2f}s < 1s")


def test_criterion_02_freeness_and_gorenstein():
    start = time.time()
    ok = True
    for group, mult in criterion_2_configurations():
        bound = 4 * group.sum_invariant_degrees() + 4 * _max_entry(mult)
        cert = freeness_certificate(group, mult, bound)
        good = (
            cert.status == "free"
            and cert.rank == group.order
            and cert.hilbert.is_palindromic()
            and cert.gorenstein_shift == cert.predicted_shift
            and cert.predicted_shift == group.rank - 2 * mult.coxeter_total()
        )
        if not good:
            ok = False
    elapsed = time.time() - start
    report(2, "freeness, rank |W|, palindromic numerator, shift dimV - 2 sum m",
           ok and elapsed < 60.0, f"{elapsed:.1f}s < 60s, {len(criterion_2_configurations())} configs")


def larger_battery_configurations():
    """Past criterion 2: larger dihedral groups, rank four, and products with
    a cyclic factor (vector multiplicities), one or two multiplicities each."""
    i7, i8, a4 = parse_group("I2(7)"), parse_group("I2(8)"), parse_group("A1^4")
    z34, a1z3 = parse_group("Z/3 x Z/4"), parse_group("A1 x Z/3")
    values = [
        (i7, {0: 1}), (i7, {0: 2}), (i8, {0: 1, 1: 0}), (i8, {0: 1, 1: 1}),
        (a4, {0: 1, 1: 1, 2: 1, 3: 1}),
        (z34, {0: (1, 0, 1), 1: (1, 1)}), (z34, {0: (0, 1, 0), 1: (2, 1)}),
        (a1z3, {0: (1, 0), 1: 1}), (a1z3, {0: (1, 2), 1: 2}),
    ]
    return [(group, Multiplicity(group, vals)) for group, vals in values]


def test_larger_freeness_battery_at_the_criterion_2_degree():
    """Free of rank |W| at the criterion-2 degree, within a wall-time bound;
    graded dimensions equal the brute force through degree 10; and, where
    the every-product reference is fast (all but A1^4, where it takes about
    40 s), the certificate equals it."""
    configs = [(group, mult, 4 * group.sum_invariant_degrees() + 4 * _max_entry(mult))
               for group, mult in larger_battery_configurations()]
    start = time.time()
    certs = [freeness_certificate(group, mult, bound) for group, mult, bound in configs]
    elapsed = time.time() - start
    ok = True
    for (group, mult, bound), cert in zip(configs, certs):
        ok = ok and cert.status == "free" and cert.rank == group.order
        if group.is_coxeter():
            ok = ok and cert.gorenstein_shift == cert.predicted_shift
        ok = ok and quasi_basis(group, mult, 10).dims() == brute_quasi_dims(group, mult, 10)
        if group.spec != "A1^4":
            reference = _reference_outcome(group, quasi_basis(group, mult, bound))
            ok = ok and _certificate_outcome(cert) == reference
    report(2, f"larger battery: free of rank |W|, oracle and reference agree, {len(configs)} "
              "configs", ok and elapsed < 15.0, f"{elapsed:.1f}s < 15s")


def test_criterion_03_oracle_equivalence():
    ok = True
    for group, mult in criterion_2_configurations():
        engine = quasi_basis(group, mult, 10).dims()
        oracle = brute_quasi_dims(group, mult, 10)
        if engine != oracle:
            ok = False
    report(3, "degreewise dimensions equal an independent brute force through 10", ok)


def test_criterion_04_tower_reproduces_filtration():
    result = ganea_tower(5, 20)
    ok = all(result["certified"])
    ok = ok and all(d == 2 for d in result["fiber_total_dimensions"])
    for m in range(1, 6):
        expected = quasi_basis(A1, Multiplicity.constant(A1, m), 20).dims()
        if result["stages"][m].dims() != expected:
            ok = False
    report(4, "five tower steps rebuild the filtration; fiber algebras have dim 2", ok)


def test_criterion_05_fiber_product_model():
    ok = True
    for m in range(5):
        ht = h_t_invariants(m, 16)
        cw = cw_valued_basis(Fraction(2 * m + 1, 2), 16)
        if ht["fiber_dims"] != [len(layer) for layer in cw]:
            ok = False
        if not ht["matches_quasi_invariants"]:
            ok = False
    report(5, "fiber product has the half-integer module dims; invariants match Q_m", ok)


def test_criterion_06_non_free_counterexample():
    _, cert_a1 = x1_algebra(A1, 12)
    q1 = quasi_basis(A1, Multiplicity.constant(A1, 1), 12)
    basis_a1, _ = x1_algebra(A1, 12)
    ok = cert_a1.status == "free" and basis_a1.dims() == q1.dims()
    for spec in ("A1 x A1", "I2(3)"):
        w = parse_group(spec)
        _, cert = x1_algebra(w, 14)
        if cert.status != "not-free":
            ok = False
    report(6, "first-step algebra: free and equal to Q_1 in rank one, not free beyond", ok)


def test_criterion_07_divided_differences():
    h = A1.hyperplanes[0]
    x = Polynomial.variable(A1.variables, "x")
    ok = True
    for m in range(4):
        mult = Multiplicity.constant(A1, m)
        basis = quasi_basis(A1, mult, 20)
        for d in range(21):
            for p in basis.layers[d]:
                image = delta_m(A1, h, mult, p)
                if d % 2 == 0:
                    if image:
                        ok = False
                elif image != 2 * x ** (d - 2 * m - 1):
                    ok = False
    report(7, "operator kills even powers, maps x^(2k+2m+1) to 2 x^(2k), m <= 3", ok,
           "normalization constant 2")


def test_criterion_08_exponential_ring():
    ok = True
    for m in range(4):
        ring = exp_basis(m, (-8, 8))
        for el in ring.elements:
            if not is_exp_quasi_invariant(m, el):
                ok = False
        sample = ring.elements[:6]
        for a in sample:
            for b in sample:
                prod = a * b
                if not is_exp_quasi_invariant(m, prod):
                    ok = False
                if not ring.contains(prod):
                    ok = False
    if is_exp_quasi_invariant(1, z_power(1)):
        ok = False
    report(8, "exponential ring closed on the window; z fails at multiplicity 1", ok)


def test_criterion_09_chern_character():
    rng = random.Random(90210)
    ok = True
    for m in range(3):
        ring = exp_basis(m, (-3, 3))
        pairs = 0
        while pairs < 50:
            f = _random_combo(rng, ring)
            g = _random_combo(rng, ring)
            if not f or not g:
                continue
            pairs += 1
            sf, _ = chern_character(f, m, 10)
            sg, _ = chern_character(g, m, 10)
            sfg, _ = chern_character(f * g, m, 10)
            if sfg != sf * sg:
                ok = False
        probe = delta() ** m * (z_power(1) - z_power(-1))
        _, rep = chern_character(probe, m, 2 * m + 8)
        if rep["odd_valuation"] != 2 * m + 1:
            ok = False
    report(9, "exponentiation multiplicative on 50 random pairs; odd valuation exact", ok)


def _random_combo(rng, ring):
    acc = ZQSeries.zero(1)
    for el in ring.elements:
        acc = acc + el * Fraction(rng.randint(-2, 2))
    return acc


def test_criterion_10_fake_k_theory():
    ok = True
    pairs = [(n, p) for n in (1, 2, 3, 5, 6) for p in (2, 3, 5, 7)]
    assert len(pairs) == 20
    for n, p in pairs:
        gen = PowerSeries([0, 0, n, 1], 8)
        res = distinguishing_invariant(gen, 2, p)
        expected_rank = 2 if n % p else 1
        if res["rank"] != expected_rank:
            ok = False
    bg = bg_series(13)
    for m in range(3):
        ring = qmb(bg, m, 13)
        for el in exp_basis(m, (-3, 3)).elements:
            if ring.membership(laurent_to_t_series(el, 13)) != MEMBER:
                ok = False
    ring1 = qmb(bg, 1, 13)
    if ring1.membership(laurent_to_t_series(z_power(1), 13)) != NON_MEMBER:
        ok = False
    report(10, "rank-2 image iff p does not divide N_B (20 pairs); character images agree", ok)


def test_criterion_11_theta_identities():
    start = time.time()
    n = 12
    window = (-8, 8)
    tp = theta("product", window, n)
    ts = theta("sum", window, n)
    jac = jacobi_theta(window, n)
    ok = ts == tp
    ok = ok and jac == tp.mul_monomial(Fraction(-1, 2), 0) * -1
    ok = ok and tp.involution() == tp.mul_monomial(-1, 0) * -1
    elapsed = time.time() - start
    report(11, "triple product through q^12; jacobi and inversion identities",
           ok and elapsed < 5.0, f"{elapsed:.2f}s < 5s")


def test_criterion_12_elliptic_sections():
    ok = True
    for n in range(1, 6):
        if section_basis(n, 12).dim() != 2 * n:
            ok = False
    for m in range(4):
        for n in range(1, 6):
            result = ell_graded_dimension(m, n, 12)  # raises on formula mismatch
            if m == 0 and result["dimension"] != 2 * n:
                ok = False
    report(12, "section spaces have dim 2n; graded dimension formula matches directly", ok)


def test_criterion_13_sheaf_dimensions():
    ok = True
    for m in range(6):
        r = ell_sheaf_dims(m)
        if (r["h0"], r["h1"], r["w_split"]) != (1, 2 * m + 2, (m + 1, m + 1)):
            ok = False
        if not r["euler_consistent"]:
            ok = False
    report(13, "sheaf cohomology (1, 2m+2, (m+1, m+1)) with Euler additivity, m <= 5", ok)


def test_criterion_14_fake_cohomology():
    ok = True
    for nb in (1, 2, 3, 6):
        for m in range(4):
            result = fake_cohomology_ring(nb, m, 20)
            if not result["equals_quasi_invariants_over_Q"]:
                ok = False
    report(14, "recursive subring equals Q_m as graded rational subspaces through 20", ok)
