import cmath
import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from divisibility import divisibility_order
from group_algebra import GroupAlgebraElement, idempotent, inverse, product
from oracles import brute_invariant_dims, brute_orbit_count
from quasinv.errors import ParseError
from quasinv.fields import Cyclotomic, _phi_cache_get
from quasinv.groups import Multiplicity, ReflectionGroup, parse_group
from quasinv.hilbert import HilbertSeries
from quasinv.poly import Polynomial
from quasinv.quasi import freeness_certificate
from quasinv.serialize import encode_coeff, encode_polynomial


def test_parse_a1():
    W = parse_group("A1")
    assert W.order == 2
    assert len(W.hyperplanes) == 1
    assert W.invariant_degrees == (2,)


def test_parse_dihedral_3():
    W = parse_group("I2(3)")
    assert W.order == 6
    assert len(W.hyperplanes) == 3
    assert {h.orbit_id for h in W.hyperplanes} == {0}
    assert W.invariant_degrees == (2, 3)
    assert brute_orbit_count(W) == 1


def test_parse_cyclic_4():
    W = parse_group("Z/4")
    assert W.order == 4
    assert len(W.hyperplanes) == 1
    assert W.hyperplanes[0].stabilizer_order == 4
    assert W.invariant_degrees == (4,)


@pytest.mark.parametrize("spec, orders, n", [
    ("A1 x Z/3", (2, 3), 3), ("Z/2 x Z/3", (2, 3), 3), ("Z/3 x Z/4", (3, 4), 12),
])
def test_product_elements_are_roots_of_unity_in_order(spec, orders, n):
    # element (j_1, j_2) in lexicographic order is diag(e^(2 pi i j_k / l_k)),
    # every entry in Q(zeta_n) with n the lcm of the orders above 2
    W = parse_group(spec)
    assert W.field == ("zeta", n)
    assert W.invariant_degrees == orders
    x = [Polynomial.variable(W.variables, v) for v in W.variables]
    assert W.fundamental_invariants == (x[0] ** orders[0], x[1] ** orders[1])
    combos = list(itertools.product(*(range(ell) for ell in orders)))
    assert len(W.elements) == len(combos)
    for matrix, combo in zip(W.elements, combos):
        for i, row in enumerate(matrix):
            for k, entry in enumerate(row):
                assert type(entry) is Cyclotomic and entry.n == n
                value = sum(float(c) * cmath.exp(2j * cmath.pi * p / n)
                            for p, c in enumerate(entry.coords))
                expected = cmath.exp(2j * cmath.pi * combo[i] / orders[i]) if i == k else 0
                assert abs(value - expected) < 1e-9


def test_dihedral_orbit_parity():
    assert brute_orbit_count(parse_group("I2(4)")) == 2
    assert brute_orbit_count(parse_group("I2(5)")) == 1
    assert len({h.orbit_id for h in parse_group("I2(4)").hyperplanes}) == 2


def test_products_and_powers():
    W = parse_group("A1^3")
    assert W.order == 8 and W.rank == 3
    W2 = parse_group("A1 x Z/3")
    assert W2.order == 6 and W2.invariant_degrees == (2, 3)


@pytest.mark.parametrize("bad", ["I2(2)", "Z/1", "E8", "", "A1 x I2(3)", "A1^0",
                                 # just past the group-order cap of 64
                                 "I2(33)", "Z/65", "A1^7", "A1^3 x Z/9"])
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        parse_group(bad)


def test_one_spec_gives_one_shared_group():
    W = parse_group("I2(4)")
    assert parse_group("I2(4)") is W
    assert parse_group("I2(5)") is not W
    assert parse_group("A1^2") is not parse_group("A1 x A1")
    for field in ("forms", "elements", "hyperplanes", "fundamental_invariants"):
        assert type(getattr(W, field)) is tuple, field


def test_a_bad_spec_raises_on_every_call():
    for _ in range(3):
        with pytest.raises(ParseError, match="k >= 3"):
            parse_group("I2(2)")


def _snapshot(W):
    """The encoded matrices, hyperplanes and invariants of a group."""
    return repr((
        [[[encode_coeff(c) for c in row] for row in m] for m in W.elements],
        [(encode_polynomial(h.alpha), h.stabilizer_order, h.orbit_id, h.index)
         for h in W.hyperplanes],
        [encode_polynomial(f) for f in W.fundamental_invariants],
        W.invariant_degrees,
    ))


def test_shared_groups_are_unchanged_by_certifying_the_freeness_strata():
    # every per-orbit multiplicity with entries at most 2, at the criterion-2
    # bound 4 (sum of the invariant degrees) + 4 max m: the pairs the
    # freeness benchmark draws its queries from
    specs = ("A1 x A1", "A1^3", "I2(3)", "I2(4)", "I2(5)", "I2(6)")
    watched = {spec: _snapshot(parse_group(spec)) for spec in ("A1^3", "I2(6)")}
    for spec in specs:
        W = parse_group(spec)
        orbit_ids = sorted({h.orbit_id for h in W.hyperplanes})
        for values in itertools.product(range(3), repeat=len(orbit_ids)):
            mult = Multiplicity(W, dict(zip(orbit_ids, values)))
            degree = 4 * sum(W.invariant_degrees) + 4 * max(values)
            assert freeness_certificate(W, mult, degree).status == "free"
    for spec, before in watched.items():
        assert _snapshot(parse_group(spec)) == before, spec


def test_sign_action():
    W = parse_group("A1")
    x = Polynomial.variable(W.variables, "x")
    s = 1 - W.identity_index()  # the non-identity element
    assert W.act(s, x**3) == -(x**3)
    assert W.act(W.identity_index(), x**3) == x**3


def test_action_is_homomorphism():
    W = parse_group("I2(4)")
    rng = random.Random(41)
    z1 = Polynomial.variable(W.variables, "z1")
    z2 = Polynomial.variable(W.variables, "z2")
    p = z1**2 * z2 + 3 * z2**3
    for _ in range(10):
        i, j = rng.randrange(W.order), rng.randrange(W.order)
        assert W.act(product(W, i, j), p) == W.act(i, W.act(j, p))


def test_degree_two_invariant_of_dihedral():
    W = parse_group("I2(5)")
    z1 = Polynomial.variable(W.variables, "z1")
    z2 = Polynomial.variable(W.variables, "z2")
    p = z1 * z2
    for i in range(W.order):
        assert W.act(i, p) == p


def test_action_permutes_arrangement():
    W = parse_group("I2(3)")
    rng = random.Random(8)
    z1 = Polynomial.variable(W.variables, "z1")
    z2 = Polynomial.variable(W.variables, "z2")
    p = z1**2 * z2 - z2**3 + W.hyperplanes[1].alpha ** 2
    for i in range(W.order):
        orders = sorted(divisibility_order(p, h.alpha) for h in W.hyperplanes)
        image = W.act(i, p)
        image_orders = sorted(divisibility_order(image, h.alpha) for h in W.hyperplanes)
        assert orders == image_orders


def test_idempotents_rank_one():
    W = parse_group("A1")
    h = W.hyperplanes[0]
    e0 = idempotent(W, h, 0)
    e1 = idempotent(W, h, 1)
    ident = W.identity_index()
    s = 1 - ident
    assert e0.coeffs == {ident: Fraction(1, 2), s: Fraction(1, 2)}
    assert e1.coeffs == {ident: Fraction(1, 2), s: Fraction(-1, 2)}
    total = e0 + e1
    assert total.coeffs == {ident: Fraction(1)}


def test_idempotents_cyclic_three():
    W = parse_group("Z/3")
    h = W.hyperplanes[0]
    for i in range(3):
        e = idempotent(W, h, i)
        assert e * e == e
    total = idempotent(W, h, 0) + idempotent(W, h, 1) + idempotent(W, h, 2)
    assert total.coeffs == {W.identity_index(): Fraction(1)}


def test_idempotent_index_out_of_range():
    W = parse_group("Z/3")
    with pytest.raises(ValueError):
        idempotent(W, W.hyperplanes[0], 3)


def test_chevalley_sanity():
    for spec in ("A1", "I2(3)", "I2(4)", "Z/3", "A1 x A1"):
        W = parse_group(spec)
        bound = 2 * max(W.invariant_degrees)
        series = HilbertSeries([1], W.invariant_degrees, verified_through=bound)
        assert brute_invariant_dims(W, bound) == series.dims(bound)


def test_multiplicity_validation():
    W = parse_group("I2(3)")
    with pytest.raises(ValueError):
        Multiplicity.constant(W, Fraction(1, 2))  # half-integers need rank one
    A1 = parse_group("A1")
    m = Multiplicity.constant(A1, Fraction(1, 2))
    assert not m.is_integer()
    Z3 = parse_group("Z/3")
    with pytest.raises(ValueError):
        Multiplicity(Z3, {0: (1,)})  # needs n_H - 1 = 2 entries
    ok = Multiplicity(Z3, {0: (1, 2)})
    assert ok.of(Z3.hyperplanes[0]) == (1, 2)
    integral = Multiplicity(Z3, {0: (Fraction(2), 1.0)})  # integral values become ints
    assert integral.values == {0: (2, 1)} and all(type(v) is int for v in integral.values[0])


@pytest.mark.parametrize("vector", [(Fraction(3, 2), 1.9), (Fraction(3, 2), 1), (1, 1.9), (1, "x")])
def test_multiplicity_vectors_refuse_non_integers(vector):
    with pytest.raises(ValueError):
        Multiplicity(parse_group("Z/3"), {0: vector})


def test_group_algebra_convolution():
    W = parse_group("A1")
    s = 1 - W.identity_index()
    g = GroupAlgebraElement(W, {s: Fraction(1)})
    assert (g * g).coeffs == {W.identity_index(): Fraction(1)}


def test_action_pairs_hyperplanes_exactly():
    # w sends the vanishing order along H to the order along w(H)
    W = parse_group("I2(4)")
    rng = random.Random(19)
    z1 = Polynomial.variable(W.variables, "z1")
    z2 = Polynomial.variable(W.variables, "z2")
    p = W.hyperplanes[0].alpha ** 2 * (z1 + 3 * z2)
    norm = {}
    for h in W.hyperplanes:
        norm[oracles._normalize(h.alpha)] = h
    for i in range(W.order):
        for h in W.hyperplanes:
            image_form = oracles._normalize(W.act(i, h.alpha))
            target = norm[image_form]
            assert divisibility_order(W.act(i, p), target.alpha) == divisibility_order(
                p, h.alpha
            )


# -- the closed-form monomial action ---------------------------------------------

CLOSED_FORM_SPECS = ("A1", "A1^3", "Z/3", "Z/4", "A1 x Z/3", "I2(3)", "I2(4)", "I2(5)", "I2(6)")
GROUPS = {spec: parse_group(spec) for spec in CLOSED_FORM_SPECS}


@st.composite
def _coefficient(draw, group):
    """A rational, or (over Q(zeta_n)) a random element of the field."""
    q = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
    if group.field == "Q" or draw(st.booleans()):
        return q
    n = group.field[1]
    d = len(_phi_cache_get(n)) - 1
    return Cyclotomic(n, draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d)))


@st.composite
def _polynomial(draw, group):
    exps = st.tuples(*[st.integers(0, 4)] * group.rank)
    return Polynomial(group.variables, draw(st.dictionaries(exps, _coefficient(group), max_size=5)))


@st.composite
def _action_case(draw):
    group = GROUPS[draw(st.sampled_from(CLOSED_FORM_SPECS))]
    return group, draw(st.integers(0, group.order - 1)), draw(_polynomial(group))


@st.composite
def _group_algebra_case(draw):
    group = GROUPS[draw(st.sampled_from(CLOSED_FORM_SPECS))]
    if draw(st.booleans()):
        h = draw(st.sampled_from(group.hyperplanes))
        element = idempotent(group, h, draw(st.integers(0, h.stabilizer_order - 1)))
    else:
        support = draw(st.lists(st.integers(0, group.order - 1), min_size=1, max_size=4, unique=True))
        element = GroupAlgebraElement(group, {i: draw(_coefficient(group)) for i in support})
    return group, element, draw(_polynomial(group))


@settings(max_examples=200, deadline=None)
@given(_action_case())
def test_closed_form_action_matches_substitution(case):
    # same coefficients in the same encoding as substituting the linear forms
    group, i, p = case
    assert encode_polynomial(group.act(i, p)) == encode_polynomial(oracles.act(group, i, p))


@settings(max_examples=150, deadline=None)
@given(_group_algebra_case())
def test_group_algebra_action_is_the_sum_of_element_actions(case):
    group, element, p = case
    expected = Polynomial.zero(group.variables)
    for i, c in element.coeffs.items():
        expected = expected + group.act(i, p) * c
    assert encode_polynomial(element.apply(p)) == encode_polynomial(expected)
    assert element.apply(p) == oracles.apply(element, p)


def monomial_blocks(group, exponents):
    """Partition of the exponent list into diagonal-character classes
    (`monomial_class_key`), as index lists ordered by first occurrence: the
    tests' fast partition, checked against `_character_blocks`."""
    blocks: dict = {}
    for idx, exp in enumerate(exponents):
        blocks.setdefault(group.monomial_class_key(exp), []).append(idx)
    return list(blocks.values())


def _character_blocks(group, exponents):
    """Reference partition keyed on the scalar characters prod_k m[k][k]^e_k
    of the diagonal inverses m, in first-occurrence order."""
    diagonal = [
        i for i, m in enumerate(group.elements)
        if not any(m[r][c] for r in range(group.rank) for c in range(group.rank) if r != c)
    ]
    blocks: dict = {}
    for idx, exp in enumerate(exponents):
        key = []
        for i in diagonal:
            m = group.elements[inverse(group, i)]
            scalar = group.roots[0]
            for k, e in enumerate(exp):
                for _ in range(e):
                    scalar = scalar * m[k][k]
            key.append(scalar)
        blocks.setdefault(tuple(key), []).append(idx)
    return list(blocks.values())


@st.composite
def _exponent_list(draw):
    group = GROUPS[draw(st.sampled_from(CLOSED_FORM_SPECS))]
    exps = st.tuples(*[st.integers(0, 9)] * group.rank)
    return group, draw(st.lists(exps, min_size=1, max_size=12))


@settings(max_examples=150, deadline=None)
@given(_exponent_list())
def test_monomial_blocks_match_scalar_characters(case):
    group, exponents = case
    assert monomial_blocks(group, exponents) == _character_blocks(group, exponents)


def test_root_tables():
    assert GROUPS["A1"].roots == (Fraction(1), Fraction(-1))
    assert len(GROUPS["I2(3)"].roots) == 6  # zeta_6 generates in Q(zeta_6)
    assert len(GROUPS["Z/4"].roots) == 4
    roots = GROUPS["A1 x Z/3"].roots  # -zeta_3 generates in Q(zeta_3)
    assert len(roots) == 6 and roots[3] == -1


# -- derived structure against matrix arithmetic -----------------------------------

STRUCTURE_SPECS = ("A1", "A1^3", "Z/3", "Z/4", "A1 x Z/3", "Z/3 x Z/4",
                   "I2(3)", "I2(4)", "I2(5)", "I2(6)", "I2(7)", "I2(8)", "I2(16)")


def _assert_structure_matches_matrices(W):
    products, inverses, identity = oracles.matrix_structure(W)
    assert W.identity_index() == identity
    assert [inverse(W, i) for i in range(W.order)] == inverses
    assert [[product(W, i, j) for j in range(W.order)] for i in range(W.order)] == products
    fixed = [oracles.fixed_hyperplane(W, i) for i in range(W.order)]
    forms = sorted({repr(encode_polynomial(a)) for a in fixed if a is not None})
    assert sorted(repr(encode_polynomial(h.alpha)) for h in W.hyperplanes) == forms
    for h in W.hyperplanes:
        stabilizer = oracles.pointwise_stabilizer(W, h.alpha)
        assert W.stabilizer(h) == stabilizer
        assert h.stabilizer_order == len(stabilizer) == 1 + fixed.count(h.alpha)


@pytest.mark.parametrize("spec", STRUCTURE_SPECS)
def test_derived_structure_matches_matrix_arithmetic(spec):
    _assert_structure_matches_matrices(parse_group(spec))


def test_signed_permutations_have_reflections_only_where_the_swap_product_is_one():
    # B2 over Q: the swaps with root product -1 are rotations by a quarter turn
    one, zero = Fraction(1), Fraction(0)
    matrices = [((a, zero), (zero, b)) for a in (one, -one) for b in (one, -one)]
    matrices += [((zero, a), (b, zero)) for a in (one, -one) for b in (one, -one)]
    forms = [(perm, (a, b)) for perm in ((0, 1), (1, 0)) for a in (0, 1) for b in (0, 1)]
    x1, x2 = (Polynomial.variable(("x1", "x2"), v) for v in ("x1", "x2"))
    W = ReflectionGroup(
        spec="B2", rank=2, field="Q", variables=("x1", "x2"), forms=forms,
        invariant_degrees=(2, 4), fundamental_invariants=[x1**2 + x2**2, x1**2 * x2**2],
    )
    assert W.elements == tuple(matrices)
    _assert_structure_matches_matrices(W)
    assert len(W.hyperplanes) == 4 and len({h.orbit_id for h in W.hyperplanes}) == 2


@pytest.mark.parametrize("spec", STRUCTURE_SPECS)
def test_orbit_ids_partition_the_arrangement(spec):
    W = parse_group(spec)
    by_form = {h.alpha: h for h in W.hyperplanes}
    for h in W.hyperplanes:
        for i in range(W.order):
            image = by_form[oracles._normalize(oracles.act(W, i, h.alpha))]
            assert image.orbit_id == h.orbit_id
    # ids number the orbits by first occurrence
    ids = [h.orbit_id for h in W.hyperplanes]
    assert list(dict.fromkeys(ids)) == list(range(oracles.brute_orbit_count(W)))


def test_constructor_refuses_elements_not_closed_under_products():
    # diag(1, 1), diag(1, -1) and diag(-1, 1) over Q, without diag(-1, -1)
    with pytest.raises(ValueError, match="not closed"):
        ReflectionGroup(
            spec="open", rank=2, field="Q", variables=("z1", "z2"),
            forms=[((0, 1), (0, 0)), ((0, 1), (0, 1)), ((0, 1), (1, 0))],
            invariant_degrees=(1, 3), fundamental_invariants=[],
        )


def test_constructor_refuses_duplicate_elements():
    with pytest.raises(ValueError, match="duplicate"):
        ReflectionGroup(
            spec="twice", rank=1, field="Q", variables=("x",),
            forms=[((0,), (0,)), ((0,), (1,)), ((0,), (1,))],
            invariant_degrees=(3,), fundamental_invariants=[],
        )


@pytest.mark.parametrize("spec", ["A1^6", "A1^5 x Z/2", "Z/4 x Z/4 x Z/4", "I2(32)"])
def test_order_64_groups_construct_within_a_second(spec):
    parse_group.cache_clear()  # time a construction, not a cache hit
    start = time.perf_counter()
    W = parse_group(spec)
    elapsed = time.perf_counter() - start
    assert W.order == 64
    assert elapsed < 1.0, f"{spec}: {elapsed:.2f}s < 1s"
