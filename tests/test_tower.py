from fractions import Fraction

import pytest

from dense_reference import coordinate_vector, dense_coordinates, dense_rref
from oracles import cw_valued_basis, monomial
from quasinv.errors import DomainError
from quasinv.groups import Multiplicity, parse_group
from quasinv.linalg import IncrementalSpan, nullspace, span_of
from quasinv.poly import Polynomial, monomials_of_degree
from quasinv.quasi import module_certificate, quasi_basis
from quasinv.serialize import encode_hilbert, encode_polynomial
from quasinv.tower import (
    coinvariant_dimension,
    fake_cohomology_ring,
    fiber_product_basis,
    ganea_step,
    ganea_tower,
    h_t_invariants,
    presentation_check,
    truncate_poly,
    truncated_line_layers,
    x1_algebra,
    x1_layers,
)
from span_matrix import layers_basis, rank, span_membership

A1 = parse_group("A1")


def dimension_formula_holds(fp, layers_a, layers_b, layers_c, f, g):
    """dim = dim A + dim B - dim C in every degree where both structure maps
    f: A -> C and g: B -> C are onto."""
    for d, layer in enumerate(fp):
        A, B, C = layers_a[d], layers_b[d], layers_c[d]
        onto = all(not C or rank([coordinate_vector(h(p), d) for p in P]) == len(C)
                   for h, P in ((f, A), (g, B)))
        if onto and len(layer) != len(A) + len(B) - len(C):
            return False
    return True


def _pair_in_span(fp, d, a, b):
    """Whether the pair (a, b) lies in the span of the degree-d layer."""
    target = coordinate_vector(a, d) + coordinate_vector(b, d)
    vecs = [coordinate_vector(x, d) + coordinate_vector(y, d) for x, y in fp[d]]
    return span_of(vecs, len(target)).contains(target)


def contains_unit(fp, variables):
    one = Polynomial.constant(variables, 1)
    return bool(fp and fp[0]) and _pair_in_span(fp, 0, one, one)


def product_in_span(fp, pair1, pair2):
    a, b = pair1[0] * pair2[0], pair1[1] * pair2[1]
    d = max(int(p.degree()) if p else -1 for p in (a, b))
    return d < 0 or _pair_in_span(fp, d, a, b)


def _line_fiber_product_data(cut, D):
    """Q[x], Q[x], Q[x]/(x^cut) through degree D and the truncations."""
    variables = ("x",)
    line = truncated_line_layers(variables, D + 1, D)

    def truncate(p):
        return truncate_poly(p, cut)

    return line, line, truncated_line_layers(variables, cut, D), truncate, truncate


def _plain_fiber_product(cut, D):
    return fiber_product_basis(("x",), *_line_fiber_product_data(cut, D))


def test_fiber_product_over_length_one_quotient():
    fp = _plain_fiber_product(1, 6)
    assert [len(layer) for layer in fp] == [1, 2, 2, 2, 2, 2, 2]
    assert contains_unit(fp, ("x",))
    assert dimension_formula_holds(fp, *_line_fiber_product_data(1, 6))


def test_fiber_product_multiplicity_one():
    fp = _plain_fiber_product(3, 7)
    assert [len(layer) for layer in fp] == [1, 1, 1, 2, 2, 2, 2, 2]
    # matches the half-integer module of weight 3/2
    cw = cw_valued_basis(Fraction(3, 2), 7)
    assert [len(layer) for layer in fp] == [len(layer) for layer in cw]


def test_fiber_product_closed_under_products():
    fp = _plain_fiber_product(3, 8)
    assert product_in_span(fp, fp[2][0], fp[3][0])
    assert product_in_span(fp, fp[1][0], fp[1][0])


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
        assert coinvariant_dimension(x1_layers(W, sum(W.invariant_degrees) + 2)) == W.order


def _dense_x1_layers(W, D):
    """X_1 built the dense way: each product f x^e of a fundamental invariant
    and a monomial as a polynomial, every degree's coordinate rows brought
    to reduced echelon form by `dense_rref`, each row read back as a
    polynomial, and the constant in degree 0."""
    layers = [[Polynomial.constant(W.variables, 1)]]
    for d in range(1, D + 1):
        rows = [coordinate_vector(f * monomial(W.variables, e), d)
                for f in W.fundamental_invariants if f.degree() <= d
                for e in monomials_of_degree(W.variables, d - int(f.degree()))]
        monos = monomials_of_degree(W.variables, d)
        layers.append([Polynomial(W.variables, dict(zip(monos, row)))
                       for row in (dense_rref(rows)[0] if rows else [])])
    return layers


@pytest.mark.parametrize("spec", ["A1", "A1^2", "A1^3", "I2(3)", "I2(4)", "I2(5)", "I2(6)",
                                  "Z/3", "Z/3 x Z/4", "A1 x Z/3"])
def test_x1_layers_match_the_dense_echelon_form_of_the_products(spec):
    W = parse_group(spec)
    for D in (0, 2 * sum(W.invariant_degrees)):
        basis = x1_layers(W, D)
        layers = basis.layers
        assert basis.dims() == [len(layer) for layer in layers]
        assert [[encode_polynomial(p) for p in layer] for layer in layers] == \
            [[encode_polynomial(p) for p in layer] for layer in _dense_x1_layers(W, D)]


def _encoded_certificate(cert):
    return (cert.status, cert.failure_degree, encode_hilbert(cert.hilbert),
            cert.gorenstein_shift, [(d, encode_polynomial(g)) for d, g in cert.generators])


def test_x1_certificate_builds_no_layer_above_its_failure_degree(monkeypatch):
    built = []
    rref = IncrementalSpan.rref
    monkeypatch.setattr(IncrementalSpan, "rref", lambda span: built.append(span) or rref(span))
    W = parse_group("A1^4")
    basis, cert = x1_algebra(W, 32)
    assert cert.status == "not-free" and cert.failure_degree == 5
    # degrees 3-5: the invariants fill degree 2, degree 1 is empty and 0 the constant
    assert len(built) == 3
    assert coinvariant_dimension(basis) == W.order and len(built) == 3
    eager = layers_basis(W, None, basis.layers)
    assert len(built) == 32
    assert _encoded_certificate(module_certificate(W, eager)) == _encoded_certificate(cert)


@pytest.mark.parametrize("m", range(4))
def test_presentation_check(m):
    report = presentation_check(m, 14)
    assert report["ok"]


@pytest.mark.parametrize("m", range(4))
def test_presentation_check_sees_the_wrong_quasi_invariants(monkeypatch, m):
    # the presentation of Q_m against the dims of Q_(m+1): they part at x^(2m+1)
    from quasinv import tower

    higher = Multiplicity.constant(A1, m + 1)
    monkeypatch.setattr(tower, "quasi_basis", lambda group, mult, D: quasi_basis(group, higher, D))
    report = presentation_check(m, 14)
    assert not report["dims_match"] and report["kernel_is_principal_ideal"]


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
    in_q_1 = span_membership(q_1.layers)
    assert all(in_q_1(p) for layer in layers for p in layer)
    # x^3 lies in Q_1 but not in Q_2, so the inclusion is strict
    x3 = Polynomial.variable(A1.variables, A1.variables[0]) ** 3
    assert in_q_1(x3) and not span_membership(layers)(x3)


# -- the coordinate-solve tower as the reference ---------------------------------------


def _combination(vec, polys, variables):
    out = Polynomial.zero(variables)
    for coef, p in zip(vec, polys):
        if coef:
            out = out + p * coef
    return out


def _dense_kernel(matrix, ncols):
    """The `nullspace` vectors as dense lists, zeros as int 0."""
    return [[vec.get(j, 0) for j in range(ncols)] for vec in nullspace(matrix, ncols)]


def _fiber_product_by_coordinates(variables, layers_a, layers_b, layers_c, f, g, max_degree):
    """The equalizer written in coordinates of the quotient basis: each image
    is solved for in the basis of C, and the layer is the kernel of
    [F | -G] on those coordinates."""
    layers = []
    for d in range(max_degree + 1):
        A, B, C = layers_a[d], layers_b[d], layers_c[d]
        basis_c = [coordinate_vector(c, d) for c in C]
        rows_f = [dense_coordinates(basis_c, coordinate_vector(f(a), d)) for a in A]
        rows_g = [dense_coordinates(basis_c, coordinate_vector(g(b), d)) for b in B]
        matrix = [[rf[ci] for rf in rows_f] + [-rg[ci] for rg in rows_g]
                  for ci in range(len(C))]
        layers.append([(_combination(vec[: len(A)], A, variables),
                        _combination(vec[len(A):], B, variables))
                       for vec in _dense_kernel(matrix, len(A) + len(B))])
    return layers


def _ganea_fiber_product_by_coordinates(q_m):
    """The fibre product of `ganea_step`, with each residue solved for in
    the basis of residues and ideal elements."""
    variables, D = A1.variables, q_m.max_degree
    x2 = Polynomial.variable(variables, variables[0]) ** 2
    ideal = [[x2 * p for p in q_m.layers[d - 2]] if d >= 2 else [] for d in range(D + 1)]
    in_ideal = span_membership(ideal)
    reps = [[p for p in layer if not in_ideal(p)] for layer in q_m.layers]

    def project(p):
        out = Polynomial.zero(variables)
        for d in sorted({sum(e) for e in p.terms}):
            basis = [coordinate_vector(r, d) for r in reps[d] + ideal[d]]
            component = Polynomial(variables, {e: c for e, c in p.terms.items() if sum(e) == d})
            coords = dense_coordinates(basis, coordinate_vector(component, d))
            out = out + _combination(coords[: len(reps[d])], reps[d], variables)
        return out

    const = [[Polynomial.constant(variables, 1)]] + [[] for _ in range(D)]
    return _fiber_product_by_coordinates(variables, q_m.layers, const, reps, project,
                                         lambda b: b, D)


def _encoded_pairs(layers):
    return [[(encode_polynomial(a), encode_polynomial(b)) for a, b in layer]
            for layer in layers]


@pytest.mark.parametrize("m", range(6))
def test_ganea_step_matches_the_coordinate_solve(m):
    for D in (14, 33):
        q_m = quasi_basis(A1, Multiplicity.constant(A1, m), D)
        step = ganea_step(q_m)
        reference = _ganea_fiber_product_by_coordinates(q_m)
        assert _encoded_pairs(step["fiber_product"]) == _encoded_pairs(reference), D
        assert step["certified"], D
        assert ([[encode_polynomial(a) for a in layer] for layer in step["next_basis"].layers]
                == [[encode_polynomial(a) for a, _ in layer] for layer in reference]), D


@pytest.mark.parametrize("m", range(4))
def test_h_t_invariants_match_the_coordinate_solve(m):
    D, cut, variables = 12, 2 * m + 1, ("x",)
    report = h_t_invariants(m, D)
    line = truncated_line_layers(variables, D + 1, D)
    fp = _fiber_product_by_coordinates(variables, line, line,
                                       truncated_line_layers(variables, cut, D),
                                       lambda p: truncate_poly(p, cut),
                                       lambda p: truncate_poly(p, cut), D)
    assert _encoded_pairs(report["fiber_product"]) == _encoded_pairs(fp)
    # the involution (p, q) -> (s(q), s(p)) in coordinates of each layer
    s = A1.reflection(A1.hyperplanes[0])
    pairs = []
    for d, layer in enumerate(fp):
        vectors = [coordinate_vector(a, d) + coordinate_vector(b, d) for a, b in layer]
        coords = [dense_coordinates(vectors, coordinate_vector(A1.act(s, b), d)
                                    + coordinate_vector(A1.act(s, a), d))
                  for a, b in layer]
        n = len(layer)
        rows = [[coords[j][i] - (i == j) for j in range(n)] for i in range(n)]
        for vec in (_dense_kernel(rows, n) if n else []):
            pairs.append((d, *(_combination(vec, side, variables) for side in zip(*layer))))
    assert ([(d, encode_polynomial(a), encode_polynomial(b)) for d, a, b in pairs]
            == [(d, encode_polynomial(a), encode_polynomial(b))
                for d, a, b in report["invariant_pairs"]])


def test_fiber_product_refuses_an_image_outside_the_quotient():
    variables, D = ("x",), 4
    line = truncated_line_layers(variables, D + 1, D)
    with pytest.raises(ValueError, match="outside span"):
        # x^3 survives the map but the quotient only keeps degrees below 2
        fiber_product_basis(variables, line, line, truncated_line_layers(variables, 2, D),
                            lambda p: p, lambda p: truncate_poly(p, 2))
