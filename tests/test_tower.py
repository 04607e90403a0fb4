from fractions import Fraction

import pytest

from quasinv.errors import DomainError
from quasinv.groups import Multiplicity, parse_group
from quasinv.linalg import span_of
from quasinv.poly import Polynomial, coordinate_vector
from quasinv.quasi import cw_valued_basis, quasi_basis
from quasinv.tower import (
    coinvariant_dimension,
    fake_cohomology_ring,
    fiber_product_basis,
    ganea_step,
    ganea_tower,
    h_t_invariants,
    line_layers,
    presentation_check,
    truncate_poly,
    truncated_line_layers,
    x1_algebra,
)

A1 = parse_group("A1")


def dimension_formula_holds(fp):
    """dim = dim A + dim B - dim C in every degree where both structure maps
    are onto."""
    return all(len(layer) == fp.dims_a[d] + fp.dims_b[d] - fp.dims_c[d]
               for d, layer in enumerate(fp.layers) if all(fp.surjective[d]))


def _pair_in_span(fp, d, a, b):
    """Whether the pair (a, b) lies in the span of the degree-d layer."""
    target = coordinate_vector(a, d) + coordinate_vector(b, d)
    vecs = [coordinate_vector(x, d) + coordinate_vector(y, d) for x, y in fp.layers[d]]
    return span_of(vecs, len(target)).contains(target)


def contains_unit(fp):
    one = Polynomial.constant(fp.variables, 1)
    return bool(fp.layers and fp.layers[0]) and _pair_in_span(fp, 0, one, one)


def product_in_span(fp, pair1, pair2):
    a, b = pair1[0] * pair2[0], pair1[1] * pair2[1]
    d = max(int(p.degree()) if p else -1 for p in (a, b))
    return d < 0 or _pair_in_span(fp, d, a, b)


def _plain_fiber_product(cut, D):
    variables = ("x",)
    return fiber_product_basis(
        variables,
        line_layers(variables, D),
        line_layers(variables, D),
        truncated_line_layers(variables, cut, D),
        lambda p: truncate_poly(p, cut),
        lambda p: truncate_poly(p, cut),
        D,
    )


def test_fiber_product_over_length_one_quotient():
    fp = _plain_fiber_product(1, 6)
    assert fp.dims() == [1, 2, 2, 2, 2, 2, 2]
    assert contains_unit(fp)
    assert dimension_formula_holds(fp)


def test_fiber_product_multiplicity_one():
    fp = _plain_fiber_product(3, 7)
    assert fp.dims() == [1, 1, 1, 2, 2, 2, 2, 2]
    # matches the half-integer module of weight 3/2
    cw = cw_valued_basis(Fraction(3, 2), 7)
    assert fp.dims() == [len(layer) for layer in cw]


def test_fiber_product_closed_under_products():
    fp = _plain_fiber_product(3, 8)
    assert product_in_span(fp, fp.layers[2][0], fp.layers[3][0])
    assert product_in_span(fp, fp.layers[1][0], fp.layers[1][0])


def test_ganea_step_from_zero():
    step = ganea_step(quasi_basis(A1, Multiplicity.constant(A1, 0), 10))
    assert step["certified"]
    assert step["fiber_total_dimension"] == 2
    assert step["next_basis"].dims() == quasi_basis(
        A1, Multiplicity.constant(A1, 1), 10
    ).dims()


def test_ganea_step_needs_rank_one():
    W = parse_group("I2(3)")
    with pytest.raises(DomainError):
        ganea_step(quasi_basis(W, Multiplicity.constant(W, 0), 6))


def test_ganea_tower_iteration():
    result = ganea_tower(4, 12)
    assert all(result["certified"])
    assert result["fiber_total_dimensions"] == [2, 2, 2, 2]
    assert all(result["strict_inclusions"])
    dims_last = result["stages"][-1].dims()
    assert dims_last == quasi_basis(A1, Multiplicity.constant(A1, 4), 12).dims()


def test_h_t_invariants_m0():
    report = h_t_invariants(0, 8)
    assert report["invariant_dims"] == [1] * 9
    assert report["matches_quasi_invariants"]


def test_h_t_invariants_m1():
    report = h_t_invariants(1, 9)
    assert report["fiber_dims"] == [1, 1, 1, 2, 2, 2, 2, 2, 2, 2]
    assert report["invariant_dims"] == [1, 0, 1, 1, 1, 1, 1, 1, 1, 1]
    assert report["matches_quasi_invariants"]


def test_h_t_invariant_pairs_are_mirror_pairs():
    report = h_t_invariants(2, 8)
    for d, a, b in report["invariant_pairs"]:
        flipped = Polynomial(
            a.vars, {e: (c if e[0] % 2 == 0 else -c) for e, c in a.terms.items()}
        )
        assert b == flipped


def test_x1_rank_one_equals_multiplicity_one():
    basis, cert = x1_algebra(A1, 10)
    q1 = quasi_basis(A1, Multiplicity.constant(A1, 1), 10)
    assert basis.dims() == q1.dims()
    assert cert.status == "free" and cert.rank == 2


def test_x1_not_free_in_higher_rank():
    W = parse_group("A1 x A1")
    _, cert = x1_algebra(W, 12)
    assert cert.status == "not-free"
    W3 = parse_group("I2(3)")
    _, cert3 = x1_algebra(W3, 14)
    assert cert3.status == "not-free"


def test_coinvariant_dimension_is_group_order():
    for spec in ("A1", "A1 x A1", "I2(3)", "I2(4)"):
        W = parse_group(spec)
        bound = sum(W.invariant_degrees) + 2
        assert coinvariant_dimension(W, bound) == W.order


@pytest.mark.parametrize("m", range(4))
def test_presentation_check(m):
    report = presentation_check(m, 14)
    assert report["ok"]


def test_fake_cohomology_rational_equality():
    result = fake_cohomology_ring(3, 2, 10)
    assert result["equals_quasi_invariants_over_Q"]
    assert result["dims"] == [1, 0, 1, 0, 1, 1, 1, 1, 1, 1, 1]


def test_fake_cohomology_lattice_differs():
    result = fake_cohomology_ring(3, 2, 6)
    # over Z the degree-2 lattice is generated by 3 x^2, not x^2
    assert result["lattice_coefficients"][2] == 3
    assert result["lattice_coefficients"][4] == 9
    trivial = fake_cohomology_ring(1, 2, 6)
    assert trivial["lattice_coefficients"][2] == 1


def test_fake_cohomology_rejects_bad_degree():
    with pytest.raises(DomainError):
        fake_cohomology_ring(0, 1, 6)


def test_ganea_next_basis_lies_in_q_m():
    q_1 = quasi_basis(A1, Multiplicity.constant(A1, 1), 10)
    step = ganea_step(q_1)
    layers = step["next_basis"].layers
    assert len(layers) == 11
    assert all(q_1.contains(p) for layer in layers for p in layer)
    # x^3 lies in Q_1 but not in Q_2, so the inclusion is strict
    x3 = Polynomial.variable(A1.variables, A1.variables[0]) ** 3
    assert q_1.contains(x3) and not step["next_basis"].contains(x3)
