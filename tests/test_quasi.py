from collections import Counter
from fractions import Fraction
from functools import lru_cache
from operator import le

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import coordinate_vector
from group_algebra import GroupAlgebraElement, idempotent
from oracles import brute_is_quasi_invariant, brute_quasi_dims
from quasinv import quasi
from quasinv.errors import DomainError
from quasinv.fields import Cyclotomic
from quasinv.groups import Multiplicity, parse_group
from quasinv.hilbert import gorenstein_shift, hilbert_from_basis
from quasinv.linalg import IncrementalSpan, SparseRow, nullspace
from quasinv.poly import (
    Polynomial,
    divide_by_linear,
    monomial_index,
    monomials_of_degree,
    multiply_terms,
)
from quasinv.quasi import (
    CWValuedElement,
    GradedBasis,
    _constraint_entries,
    _hyperplane_conditions,
    _independent,
    _row,
    _solve_layer,
    closure_report,
    cw_valued_basis,
    filtration_check,
    freeness_certificate,
    hilbert,
    invariant_ring_dims,
    is_quasi_invariant,
    module_certificate,
    quasi_basis,
)
from quasinv.serialize import encode_polynomial
from quasinv.tower import x1_algebra
from span_matrix import rank, span_membership


A1 = parse_group("A1")
X = Polynomial.variable(A1.variables, "x")


def test_rank_one_membership():
    m2 = Multiplicity.constant(A1, 2)
    assert is_quasi_invariant(A1, m2, X**4)
    assert not is_quasi_invariant(A1, m2, X**3)
    assert is_quasi_invariant(A1, m2, X**5)


def test_invariants_always_pass():
    for spec in ("A1", "I2(3)", "Z/3"):
        W = parse_group(spec)
        m = Multiplicity.constant(W, 2)
        for f in W.fundamental_invariants:
            assert is_quasi_invariant(W, m, f)


def test_cyclic_membership_matches_congruence():
    # for the order-3 cyclic group with multiplicities (1, 1): monomials x^j
    # pass exactly when j = 0 mod 3 or j >= 3
    W = parse_group("Z/3")
    m = Multiplicity(W, {0: (1, 1)})
    x = Polynomial.variable(W.variables, "x")
    for j in range(13):
        expected = (j % 3 == 0) or j >= 3
        assert is_quasi_invariant(W, m, x**j) == expected, j


def test_rank_one_basis_layers():
    basis = quasi_basis(A1, Multiplicity.constant(A1, 1), 5)
    assert basis.dims() == [1, 0, 1, 1, 1, 1]
    assert basis.layers[3][0] == X**3
    basis0 = quasi_basis(A1, Multiplicity.constant(A1, 0), 3)
    assert basis0.dims() == [1, 1, 1, 1]


def test_half_integer_routed_away():
    m = Multiplicity.constant(A1, Fraction(1, 2))
    with pytest.raises(DomainError):
        quasi_basis(A1, m, 4)
    with pytest.raises(DomainError):
        is_quasi_invariant(A1, m, X)


def test_dihedral_dims_against_brute_force():
    W = parse_group("I2(3)")
    m = Multiplicity.constant(W, 1)
    assert quasi_basis(W, m, 8).dims() == brute_quasi_dims(W, m, 8)


def quasi_basis_unblocked(group, mult, max_degree):
    """`quasi_basis` with one matrix per degree over all monomials, each
    entry roots[u] * c as `_constraint_entries` gives it, unscaled: the
    reference for the block decomposition and the integer rows of
    `_solve_layer`."""
    conditions = _hyperplane_conditions(group, mult)
    layers = []
    for d in range(max_degree + 1):
        kept, rows = [], {}
        for e in monomials_of_degree(group.variables, d):
            entries = _constraint_entries(group, conditions, e)
            if entries is not None:
                for key, u, c in entries:
                    rows.setdefault(key, SparseRow())[len(kept)] = group.roots[u] * c
                kept.append(e)
        kernel = nullspace(list(rows.values()), len(kept))
        layer = [Polynomial(group.variables, {kept[i]: c for i, c in enumerate(vec) if c})
                 for vec in kernel]
        layers.append(sorted(layer, key=lambda p: min(p.terms)))
    return GradedBasis(group, mult, max_degree, layers)


def test_blocked_solver_agrees_with_unblocked():
    for spec, m, D in (("I2(3)", 2, 9), ("I2(4)", 1, 9), ("A1 x A1", 1, 8), ("Z/4", 2, 9)):
        W = parse_group(spec)
        mu = Multiplicity.constant(W, m)
        blocked = quasi_basis(W, mu, D)
        unblocked = quasi_basis_unblocked(W, mu, D)
        assert blocked.dims() == unblocked.dims()
        in_unblocked = span_membership(unblocked.layers)
        for d in range(D + 1):
            for p in blocked.layers[d]:
                assert in_unblocked(p)


def _group_algebra_conditions(group, mult):
    """Per hyperplane: (alpha, list of (group algebra element, required
    order)), the congruences as the paper states them: the reflection minus
    one, or the character idempotents of the stabilizer."""
    out = []
    for h in group.hyperplanes:
        m_h = mult.of(h)
        ops = []
        if h.stabilizer_order == 2:
            if m_h:
                one = GroupAlgebraElement(group, {group.reflection(h): Fraction(1),
                                                  group.identity_index(): Fraction(-1)})
                ops.append((one, 2 * m_h))
        else:
            for i in range(1, h.stabilizer_order):
                need = h.stabilizer_order * m_h[i - 1]
                if need:
                    ops.append((idempotent(group, h, (-i) % h.stabilizer_order), need))
        if ops:
            out.append((h.alpha, ops))
    return out


def quasi_basis_by_division(group, mult, max_degree):
    """`quasi_basis` with its rows built the direct way, the reference for
    the eigen-coordinate rows: each group algebra element is applied to each
    monomial, and the condition polynomial is divided by alpha as often as
    the required order K.  alpha^K divides it exactly when the K remainders
    of successive `divide_by_linear` calls vanish; each remainder is linear
    in the polynomial, so each remainder term gives one row."""
    conditions = _group_algebra_conditions(group, mult)
    layers = []
    for d in range(max_degree + 1):
        monos = monomials_of_degree(group.variables, d)
        layer = []
        for block in group.monomial_blocks(monos):
            rows = {}
            for ci, (alpha, ops) in enumerate(conditions):
                for oi, (op, need) in enumerate(ops):
                    for local, col in enumerate(block):
                        cond = op.apply(Polynomial.monomial(group.variables, monos[col]))
                        for k in range(need):
                            cond, rem = divide_by_linear(cond, alpha)
                            for exp, c in rem.terms.items():
                                row = rows.setdefault((ci, oi, k, exp), [Fraction(0)] * len(block))
                                row[local] = row[local] + c
            if rows:
                kernel = nullspace([rows[k] for k in sorted(rows)])
            else:
                kernel = [[Fraction(int(i == j)) for j in range(len(block))] for i in range(len(block))]
            for vec in kernel:
                terms = {monos[block[i]]: c for i, c in enumerate(vec) if c}
                layer.append(Polynomial(group.variables, terms))
        layer.sort(key=lambda p: min(p.terms))
        layers.append(layer)
    return GradedBasis(group, mult, max_degree, layers)


def _mixed_multiplicity(group):
    """Per-orbit values that differ between orbits and inside vectors."""
    values = {}
    for h in group.hyperplanes:
        k = h.orbit_id + 1
        if h.stabilizer_order == 2:
            values[h.orbit_id] = k
        else:
            values[h.orbit_id] = tuple((k + i) % 3 for i in range(h.stabilizer_order - 1))
    return Multiplicity(group, values)


@pytest.mark.parametrize("spec, D", [
    ("I2(3)", 12), ("I2(4)", 12), ("I2(5)", 12), ("I2(6)", 12), ("Z/4", 14), ("A1 x Z/3", 8),
])
def test_truncated_rows_give_the_layers_of_division(spec, D):
    W = parse_group(spec)
    for mu in (_mixed_multiplicity(W), Multiplicity.constant(W, 1)):
        assert quasi_basis(W, mu, D).layers == quasi_basis_by_division(W, mu, D).layers


@lru_cache(maxsize=None)
def _group(spec):
    return parse_group(spec)


@st.composite
def _multiplicity(draw, group, top):
    """Random per-orbit values of at most `top`, a vector of n_H - 1 of
    them on an orbit with n_H > 2."""
    values = {}
    for h in sorted(group.hyperplanes, key=lambda h: h.orbit_id):
        entries = st.integers(0, top)
        if h.orbit_id in values:
            continue
        if h.stabilizer_order == 2:
            values[h.orbit_id] = draw(entries)
        else:
            size = h.stabilizer_order - 1
            values[h.orbit_id] = tuple(draw(st.lists(entries, min_size=size, max_size=size)))
    return Multiplicity(group, values)


@st.composite
def _layer_case(draw, specs):
    """(group, random multiplicity, degree bound) for one of `specs`, given
    as (spec, largest entry, degree bound)."""
    spec, top, D = draw(st.sampled_from(specs))
    group = _group(spec)
    return group, draw(_multiplicity(group, top)), D


def _encoded_layers(basis):
    return [[encode_polynomial(p) for p in layer] for layer in basis.layers]


_REFERENCE_SPECS = (
    ("Z/3", 2, 12), ("Z/4", 2, 12), ("Z/6", 1, 12), ("A1 x Z/3", 2, 8), ("Z/3 x Z/4", 1, 7),
    ("I2(3)", 2, 12), ("I2(5)", 2, 12), ("I2(6)", 2, 12), ("I2(7)", 2, 12), ("I2(8)", 2, 11),
    ("I2(12)", 1, 14),
)


@settings(max_examples=40, deadline=None)
@given(_layer_case(_REFERENCE_SPECS))
def test_eigen_rows_give_the_layers_of_group_algebra_division(case):
    W, mult, D = case
    assert _encoded_layers(quasi_basis(W, mult, D)) == \
        _encoded_layers(quasi_basis_by_division(W, mult, D))


_SOLVER_SPECS = (
    ("A1 x A1", 3, 10), ("A1^3", 2, 7), ("I2(3)", 3, 12), ("I2(4)", 2, 12), ("I2(5)", 2, 12),
    ("I2(6)", 2, 12), ("Z/3", 2, 12), ("Z/4", 2, 12), ("A1 x Z/3", 2, 8),
    ("Z/3 x Z/4", 1, 7),
)


@settings(max_examples=40, deadline=None)
@given(_layer_case(_SOLVER_SPECS))
def test_blocked_solve_equals_unblocked_on_random_multiplicities(case):
    W, mult, D = case
    assert _encoded_layers(quasi_basis(W, mult, D)) == \
        _encoded_layers(quasi_basis_unblocked(W, mult, D))


_MEMBERSHIP_SPECS = (
    ("A1", 3, 9), ("A1 x A1", 2, 6), ("A1^3", 1, 4), ("I2(3)", 2, 7), ("I2(4)", 1, 6),
    ("I2(6)", 1, 6), ("Z/3", 2, 8), ("Z/4", 1, 7), ("A1 x Z/3", 1, 5),
)


@settings(max_examples=25, deadline=None)
@given(_layer_case(_MEMBERSHIP_SPECS), st.data())
def test_basis_elements_are_members_and_perturbed_elements_are_not(case, data):
    # both verdicts checked against the derivative route of the oracle,
    # which shares no code with the constraint rows
    W, mult, D = case
    basis = quasi_basis(W, mult, D)
    in_basis = span_membership(basis.layers)
    for d, layer in enumerate(basis.layers):
        monomials = [Polynomial.monomial(W.variables, e) for e in monomials_of_degree(W.variables, d)]
        outside = [x for x in monomials if not in_basis(x)]
        for p in layer:
            assert is_quasi_invariant(W, mult, p)
        for p in layer[:2]:
            assert brute_is_quasi_invariant(W, mult, p)
            if outside:
                q = p + data.draw(st.sampled_from(outside))
                assert not is_quasi_invariant(W, mult, q)
                assert not brute_is_quasi_invariant(W, mult, q)


# groups without hyperplanes x_k - r x_l, whose dims are counted, not solved
_COUNTED_SPECS = (
    ("A1", 3, 20), ("A1 x A1", 3, 12), ("A1^3", 3, 8), ("A1^4", 3, 6), ("Z/3", 3, 14),
    ("Z/4", 3, 14), ("Z/5", 3, 14), ("A1 x Z/3", 3, 9), ("Z/2 x Z/3", 3, 9),
    ("Z/3 x Z/4", 3, 8),
)


@settings(max_examples=60, deadline=None)
@given(_layer_case(_COUNTED_SPECS), st.data())
def test_counted_dims_equal_solved_layers_and_the_oracle(case, data):
    # the oracle's derivative route shares no code with the count or the solve
    W, mult, top = case
    D = data.draw(st.integers(0, top))
    basis = quasi_basis(W, mult, D)
    dims = basis.dims()
    assert len(dims) == D + 1
    assert dims == [len(layer) for layer in basis.layers]
    assert dims == brute_quasi_dims(W, mult, D)
    assert quasi_basis(W, mult, 0).dims() == [1]


def _typed_outcome(cert):
    """Everything a certificate reports, coefficient types included."""
    generators = [(d, sorted((e, type(c).__name__, c) for e, c in g.terms.items()))
                  for d, g in cert.generators]
    return (generators, cert.status, cert.failure_degree, cert.gorenstein_shift,
            cert.predicted_shift, cert.hilbert.numerator, cert.hilbert.denominator_exponents,
            cert.hilbert.verified_through)


def test_certificate_builds_only_the_layers_it_spans(monkeypatch):
    W = parse_group("A1^4")
    mult = Multiplicity.constant(W, 1)
    built = []
    solve = quasi._solve_layer

    def counted_solve(group, conditions, monos, blocks):
        built.append(sum(monos[0]))
        return solve(group, conditions, monos, blocks)

    monkeypatch.setattr(quasi, "_solve_layer", counted_solve)
    cert = freeness_certificate(W, mult, 44)
    assert cert.status == "free" and max(cert.generator_degrees()) == 12
    assert sorted(built) == list(range(13))
    monkeypatch.undo()
    basis = quasi_basis(W, mult, 44)
    eager = GradedBasis(W, mult, 44, basis.layers)
    assert _typed_outcome(module_certificate(W, eager, cert.predicted_shift)) == \
        _typed_outcome(cert)


def test_hilbert_rank_one():
    for m in range(4):
        series = hilbert(A1, Multiplicity.constant(A1, m), 12 + 2 * m)
        assert series.numerator_string() == ("1 + t" if m == 0 else f"1 + t^{2 * m + 1}")


def test_hilbert_product_group_squares():
    W = parse_group("A1 x A1")
    series = hilbert(W, Multiplicity(W, {0: 1, 1: 1}), 16)
    # ((1 + t^3)/(1 - t^2))^2
    assert list(series.numerator) == [1, 0, 0, 2, 0, 0, 1]
    assert series.denominator_exponents == (2, 2)


def test_hilbert_dihedral_rank_and_palindrome():
    W = parse_group("I2(3)")
    series = hilbert(W, Multiplicity.constant(W, 1), 20)
    assert series.numerator_at_one() == 6
    assert series.is_palindromic()
    assert list(series.numerator) == [1, 0, 0, 0, 2, 2, 0, 0, 0, 1]


def test_freeness_rank_one():
    for m in range(3):
        cert = freeness_certificate(A1, Multiplicity.constant(A1, m), 12)
        assert cert.status == "free"
        assert cert.rank == 2
        assert cert.generator_degrees() == [0, 2 * m + 1]
        assert cert.gorenstein_shift == 1 - 2 * m == cert.predicted_shift


def test_freeness_dihedral():
    W = parse_group("I2(3)")
    cert = freeness_certificate(W, Multiplicity.constant(W, 1), 20)
    assert cert.status == "free" and cert.rank == 6
    assert cert.gorenstein_shift == 2 - 2 * 3 == cert.predicted_shift
    assert cert.hilbert.numerator_at_one() == 6


def test_subalgebra_closure_spot_check():
    for spec, m in (("A1", 2), ("I2(3)", 1)):
        W = parse_group(spec)
        basis = quasi_basis(W, Multiplicity.constant(W, m), 8)
        report = closure_report(basis, max_pairs=12)
        assert report["closed"] is not False
        assert report["sampled"] and 0 < report["pairs_checked"] <= 12


def test_closure_report_gives_a_witness():
    # Z/3 with m = (0, 1) keeps x^e with e = 1 mod 3 and deletes x^e with
    # e = 2 mod 3 below 3, so x is in Q_m and the product x * x is not
    W = parse_group("Z/3")
    m = Multiplicity(W, {0: (0, 1)})
    basis = quasi_basis(W, m, 6)
    x = Polynomial.variable(W.variables, W.variables[0])
    assert basis.layer(1) == [x] and is_quasi_invariant(W, m, x)
    assert not is_quasi_invariant(W, m, x * x)
    report = closure_report(basis)
    assert report == {"closed": False, "pairs_checked": 1, "witness_degrees": (1, 1)}


def test_membership_refuses_a_polynomial_outside_the_coordinate_ring():
    W = parse_group("A1 x A1")
    m = Multiplicity.constant(W, 1)
    renamed = Polynomial(("a", "b"), {(2, 0): 1})  # x1^2 is in Q_1, under other names
    extra = Polynomial(W.variables + ("w",), {(2, 0, 0): 1})
    for p in (renamed, extra):
        with pytest.raises(ValueError, match="coordinate ring"):
            is_quasi_invariant(W, m, p)
    assert is_quasi_invariant(W, m, Polynomial(W.variables, {(2, 0): 1}))


def test_membership_refuses_a_coefficient_of_another_cyclotomic_field():
    W = parse_group("I2(3)")  # over Q(zeta_6)
    m = Multiplicity.constant(W, 1)
    foreign = Polynomial(W.variables, {(3, 0): Cyclotomic.zeta(5), (0, 3): 1})
    with pytest.raises(ValueError, match="mixed coefficient fields"):
        is_quasi_invariant(W, m, foreign)
    # an irrational multiple of the invariant z1^3 + z2^3 in the group's own field
    own = Polynomial(W.variables, {(3, 0): Cyclotomic.zeta(6), (0, 3): Cyclotomic.zeta(6)})
    assert is_quasi_invariant(W, m, own)
    assert not is_quasi_invariant(W, m, own + Polynomial(W.variables, {(2, 1): 1}))


def test_membership_over_q_accepts_cyclotomic_scalars():
    W = parse_group("A1 x A1")
    m = Multiplicity.constant(W, 1)
    member = Polynomial(W.variables, {(2, 0): Cyclotomic.zeta(5), (0, 3): Cyclotomic.zeta(5, 2)})
    assert is_quasi_invariant(W, m, member)
    outside = Polynomial(W.variables, {(1, 0): Cyclotomic.zeta(7)})
    assert not is_quasi_invariant(W, m, outside)


@pytest.mark.parametrize("spec", ["I2(3)", "I2(4)", "I2(5)", "I2(6)", "I2(7)", "I2(8)",
                                  "I2(9)", "I2(10)", "I2(11)", "I2(12)"])
def test_dihedral_constraint_rows_are_rational_and_distinct(spec, monkeypatch):
    # each row is scaled by the root of its first entry and repeated rows are
    # dropped, so the solver sees distinct rows of rational Cyclotomics
    W = parse_group(spec)
    matrices = []

    def recording(matrix, ncols=None):
        matrices.append(matrix)
        return nullspace(matrix, ncols)

    monkeypatch.setattr("quasinv.quasi.nullspace", recording)
    quasi_basis(W, _mixed_multiplicity(W), 3 * W.invariant_degrees[-1])
    assert matrices
    for matrix in matrices:
        for row in matrix:
            assert all(isinstance(c, Cyclotomic) and not any(c.coords[1:]) for c in row)
        distinct = {tuple(sorted(row.items())) for row in matrix}
        assert len(distinct) == len(matrix)


def test_a_block_across_characters_is_refused():
    # z1 and z2 have different rotation characters; in one block the row of
    # the swap with root index 2 holds root indices 4 and 0 of N = 6, which
    # are neither 0 nor N/2 apart
    W = parse_group("I2(3)")
    conditions = _hyperplane_conditions(W, Multiplicity.constant(W, 1))
    with pytest.raises(ArithmeticError, match="not rational up to sign"):
        _solve_layer(W, conditions, [(0, 1), (1, 0)], [range(2)])


@pytest.mark.parametrize("spec", ["I2(3)", "I2(4)", "I2(5)", "I2(6)", "I2(8)"])
def test_dihedral_layer_vectors_hold_one_fraction_one(spec):
    # the kernel's free slot is the rational 1 and every other entry keeps
    # the group's type; the encoded layers ("1" vs {"zeta_order": ...})
    # depend on this mix
    W = parse_group(spec)
    for layer in quasi_basis(W, Multiplicity.constant(W, 2), 20).layers:
        for p in layer:
            fractions = [c for c in p.terms.values() if c.__class__ is Fraction]
            assert fractions == [1]
            assert all(c.__class__ in (Fraction, Cyclotomic) for c in p.terms.values())


@pytest.mark.parametrize("spec", ["A1^3", "Z/3", "A1 x Z/3"])
def test_layer_vectors_without_dihedral_rows_are_fractions(spec):
    W = parse_group(spec)
    for layer in quasi_basis(W, Multiplicity.constant(W, 2), 20).layers:
        for p in layer:
            assert all(c.__class__ is Fraction for c in p.terms.values())


def test_module_certificate_takes_layer_vectors_across_characters():
    """The polynomial ring of A1 x A1 with degree-1 layer x1 + x2, x1 - x2,
    each across two diagonal characters: free on 1, x1 + x2, x1 - x2 and
    x1 x2.  The independence proof needs one character per generator, so
    every degree is spanned."""
    W = parse_group("A1 x A1")
    x1, x2 = (Polynomial.variable(W.variables, v) for v in W.variables)
    layers = [[Polynomial.monomial(W.variables, e) for e in monomials_of_degree(W.variables, d)]
              for d in range(9)]
    layers[1] = [x1 + x2, x1 - x2]
    cert = module_certificate(W, GradedBasis(W, None, 8, layers))
    assert cert.status == "free"
    assert cert.generator_degrees() == [0, 1, 1, 2]


def module_certificate_by_every_product(group, basis):
    """`module_certificate` with the submodule part spanned the direct way,
    the reference for the generator-product scheme: in degree d every
    fundamental invariant times every vector of the lower layer enters the
    block spans, then every layer vector does."""
    D = basis.max_degree
    dims = basis.dims()
    inv_dims = invariant_ring_dims(group, D)
    generators, status, failure_degree = [], None, None
    for d in range(D + 1):
        index = monomial_index(group.variables, d)
        blocks = group.monomial_blocks(list(index))
        col_block = {col: bi for bi, block in enumerate(blocks) for col in block}
        spans = [IncrementalSpan() for _ in blocks]

        def add(p):
            found = {col_block[index[exp]] for exp in p.terms}
            if len(found) != 1:
                raise ValueError("module vector does not lie in one diagonal-character block")
            (bi,) = found
            vec = coordinate_vector(p, d)
            return spans[bi].add([vec[col] for col in blocks[bi]])

        for f in group.fundamental_invariants:
            if d >= f.degree():
                for b in basis.layers[d - int(f.degree())]:
                    add(f * b)
        for p in basis.layers[d]:
            if add(p):
                generators.append((d, p))
        if sum(inv_dims[d - gd] for gd, _ in generators) != dims[d]:
            status, failure_degree = "not-free", d
            break
    series = hilbert_from_basis(dims, group.invariant_degrees)
    if status is None:
        status = "free" if len(generators) == group.order else "inconclusive"
    return generators, status, failure_degree, gorenstein_shift(series, group.rank)


def _certificate_outcome(cert):
    return ([(d, encode_polynomial(g)) for d, g in cert.generators], cert.status,
            cert.failure_degree, cert.gorenstein_shift)


def _reference_outcome(group, basis):
    generators, status, failure_degree, shift = module_certificate_by_every_product(group, basis)
    return [(d, encode_polynomial(g)) for d, g in generators], status, failure_degree, shift


@st.composite
def _certificate_case(draw):
    """A group with random multiplicities of at most `top` per orbit entry,
    and a degree bound past the top generator degree."""
    spec, top = draw(st.sampled_from([
        ("A1 x A1", 2), ("A1^3", 1), ("I2(3)", 2), ("I2(4)", 1), ("I2(5)", 1), ("I2(6)", 1),
        ("I2(7)", 1), ("I2(8)", 1), ("Z/4", 1), ("A1 x Z/3", 1),
    ]))
    W = parse_group(spec)
    values = {}
    for h in sorted(W.hyperplanes, key=lambda h: h.orbit_id):
        entries = st.integers(0, top)
        if h.stabilizer_order == 2:
            values.setdefault(h.orbit_id, draw(entries))
        else:
            values.setdefault(h.orbit_id, tuple(
                draw(st.lists(entries, min_size=h.stabilizer_order - 1,
                              max_size=h.stabilizer_order - 1))))
    mult = Multiplicity(W, values)
    weight = sum(h.stabilizer_order * max(values[h.orbit_id], default=0)
                 if h.stabilizer_order > 2 else 2 * values[h.orbit_id]
                 for h in W.hyperplanes)
    degrees = W.invariant_degrees
    return W, mult, max(2 * sum(degrees), weight + sum(degrees) + max(degrees))


@settings(max_examples=30, deadline=None)
@given(_certificate_case())
def test_generator_products_match_every_product(case):
    W, mult, D = case
    basis = quasi_basis(W, mult, D)
    assert _certificate_outcome(module_certificate(W, basis)) == _reference_outcome(W, basis)


def test_generator_products_match_every_product_on_a_non_free_module():
    W = parse_group("A1 x A1")
    basis, cert = x1_algebra(W, 14)
    assert cert.status == "not-free"
    assert _certificate_outcome(cert) == _reference_outcome(W, basis)


_X1_SPECS = ("A1", "A1 x A1", "A1^3", "I2(3)", "I2(4)", "I2(5)", "I2(6)", "Z/3", "Z/4",
             "A1 x Z/3", "Z/3 x Z/4")


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(_X1_SPECS), st.integers(0, 4))
def test_x1_certificates_match_every_product(spec, extra):
    """Free (rank one) and not-free modules alike: in rank two and up the
    generators outnumber |W| before the first relation."""
    W = _group(spec)
    basis, cert = x1_algebra(W, 2 * W.sum_invariant_degrees() + 4 + extra)
    assert cert.status == ("free" if W.rank == 1 else "not-free")
    assert _certificate_outcome(cert) == _reference_outcome(W, basis)


# -- the independence proof of |W| generators --------------------------------------


def _certificate_generators(spec, m, D):
    W = parse_group(spec)
    cert = freeness_certificate(W, Multiplicity.constant(W, m), D)
    assert cert.status == "free"
    return W, [g for _, g in cert.generators]


def test_independence_proof_holds_on_the_battery_generators():
    from test_acceptance import _max_entry, criterion_2_configurations, \
        larger_battery_configurations

    for group, mult in criterion_2_configurations() + larger_battery_configurations():
        cert = freeness_certificate(group, mult,
                                    4 * group.sum_invariant_degrees() + 4 * _max_entry(mult))
        assert _independent(group, [g for _, g in cert.generators]), group.spec


@pytest.mark.parametrize("spec", ["I2(3)", "I2(4)", "I2(6)"])
def test_independence_proof_fails_on_an_invariant_multiple(spec):
    """Two generators of one dihedral character, the second replaced by
    f_1 times the first: the character's 2 x 2 block is singular, since
    f_1 = z1 z2 takes one value on the whole orbit of x0."""
    W, gens = _certificate_generators(spec, 1, 40)
    key = W.monomial_class_key
    a, b = next(
        (i, j) for i in range(len(gens)) for j in range(i + 1, len(gens))
        if key(min(gens[i].terms)) == key(min(gens[j].terms))
    )
    assert _independent(W, gens)
    gens[b] = W.fundamental_invariants[0] * gens[a]
    assert not _independent(W, gens)


def test_independence_proof_fails_on_a_wrong_count_per_character():
    W, gens = _certificate_generators("A1 x A1", 0, 16)  # 1, x1, x2, x1 x2
    x1, _ = (Polynomial.variable(W.variables, v) for v in W.variables)
    assert _independent(W, gens)
    assert not _independent(W, gens[:3])  # a character holds none
    assert not _independent(W, gens[:3] + [x1**3])  # x1's character holds two
    assert not _independent(W, gens + [x1**3])  # one generator too many
    W, gens = _certificate_generators("I2(4)", 1, 40)
    key = W.monomial_class_key
    other = next(i for i, g in enumerate(gens) if key(min(g.terms)) != key((0, 0)))
    # z1^4 is diagonal-invariant: the character of 1 holds three, another one
    gens[other] = Polynomial.variable(W.variables, "z1") ** 4
    assert not _independent(W, gens)


def test_independence_proof_fails_on_a_generator_across_characters():
    W, gens = _certificate_generators("A1 x A1", 0, 16)
    x1, x2 = (Polynomial.variable(W.variables, v) for v in W.variables)
    assert not _independent(W, gens[:3] + [x1 + x2])


def test_generators_found_after_the_proof_match_every_product():
    """Q_1 of A1 x A1 plus the R-multiples of x1 x2^10 and x1^12 x2: four
    generators by degree 6 pass the proof, a fifth comes in degree 11, and
    in degree 13 a sixth and the first relation cancel in the dimension
    count, so only a spanned degree 13 sees that the module is not free."""
    W = parse_group("A1 x A1")

    def member(a, b):
        return ((a % 2 == 0 or a >= 3) and (b % 2 == 0 or b >= 3)
                or a % 2 and b % 2 == 0 and b >= 10 or b % 2 and a % 2 == 0 and a >= 12)

    layers = [[Polynomial.monomial(W.variables, e)
               for e in monomials_of_degree(W.variables, d) if member(*e)] for d in range(21)]
    basis = GradedBasis(W, None, 20, layers)
    cert = module_certificate(W, basis)
    assert (cert.status, cert.failure_degree) == ("not-free", 13)
    assert cert.generator_degrees() == [0, 3, 3, 6, 11, 13]
    assert _certificate_outcome(cert) == _reference_outcome(W, basis)


def test_no_span_row_above_the_last_generator_degree(monkeypatch):
    """A1^3 with m = (1, 1, 2) at D = 32: once its eight generators are
    proved independent, every later degree is certified by the count."""
    W = parse_group("A1^3")
    basis = quasi_basis(W, Multiplicity(W, {0: 1, 1: 1, 2: 2}), 32)
    degrees = []  # the degree of every row formed for a span

    def product(left, right, columns=None):
        if columns is not None:
            degrees.append(sum(left[0][0]) + sum(right[0][0]))
        return multiply_terms(left, right, columns)

    def row(p, columns):
        degrees.append(sum(min(p.terms)))
        return _row(p, columns)

    monkeypatch.setattr(quasi, "multiply_terms", product)
    monkeypatch.setattr(quasi, "_row", row)
    cert = module_certificate(W, basis)
    assert cert.status == "free" and cert.rank == 8
    assert max(degrees) == max(cert.generator_degrees()) < 32


def test_span_is_group_stable():
    W = parse_group("I2(3)")
    basis = quasi_basis(W, Multiplicity.constant(W, 1), 6)
    in_basis = span_membership(basis.layers)
    for d in range(7):
        for p in basis.layers[d]:
            for i in range(W.order):
                assert in_basis(W.act(i, p))


def test_cw_valued_layers():
    half = cw_valued_basis(Fraction(1, 2), 4)
    assert [len(layer) for layer in half] == [1, 2, 2, 2, 2]
    zero = cw_valued_basis(0, 3)
    assert [len(layer) for layer in zero] == [2, 2, 2, 2]
    m_half = cw_valued_basis(Fraction(3, 2), 5)
    assert [len(layer) for layer in m_half] == [1, 1, 1, 2, 2, 2]


def _parity_part(p, parity):
    return Polynomial(p.vars, {e: c for e, c in p.terms.items() if e[0] % 2 == parity})


def e0_projection(el):
    """Left multiplication by e0: keeps the even part on e0 and the odd part
    on e1."""
    return CWValuedElement(_parity_part(el.p, 0), _parity_part(el.q, 1))


def x_action(el):
    x = Polynomial.variable(CWValuedElement.VARS, "x")
    return CWValuedElement(x * el.p, x * el.q)


def s_action(el):
    s = A1.reflection(A1.hyperplanes[0])
    return CWValuedElement(A1.act(s, el.p), -A1.act(s, el.q))


def test_cw_valued_e0_projection_matches_quasi():
    for m in range(3):
        layers = cw_valued_basis(m, 9)
        e0_dims = []
        for layer in layers:
            vecs = [e0_projection(el) for el in layer]
            e0_dims.append(sum(1 for el in vecs if el.p or el.q))
        q_dims = quasi_basis(A1, Multiplicity.constant(A1, m), 9).dims()
        assert e0_dims == q_dims


def test_cw_valued_action_closes():
    layers = cw_valued_basis(Fraction(3, 2), 6)
    threshold = 3
    for layer in layers:
        for el in layer:
            for img in (x_action(el), s_action(el)):
                # q-part stays divisible by x^3
                for exp in img.q.terms:
                    assert exp[0] >= threshold


def test_filtration_rank_one():
    report = filtration_check(
        A1, Multiplicity.constant(A1, 1), Multiplicity.constant(A1, 2), 8
    )
    assert report["included"]
    assert report["strict_witness"] == X**3
    assert report["intersection_equals_invariants"]


def test_filtration_equal_multiplicities():
    m = Multiplicity.constant(A1, 2)
    report = filtration_check(A1, m, m, 8)
    assert report["included"]
    assert all(c == 0 for c in report["codims"])


def test_filtration_dihedral_strict():
    W = parse_group("I2(3)")
    report = filtration_check(
        W, Multiplicity.constant(W, 0), Multiplicity.constant(W, 1), 6
    )
    assert report["included"]
    m0 = brute_quasi_dims(W, Multiplicity.constant(W, 0), 6)
    m1 = brute_quasi_dims(W, Multiplicity.constant(W, 1), 6)
    assert report["codims"] == [a - b for a, b in zip(m0, m1)]
    assert report["intersection_equals_invariants"]


@pytest.mark.parametrize("spec, low, high, D", [
    ("Z/3", {0: (0, 1)}, {0: (1, 1)}, 6),
    ("Z/3", {0: (1, 0)}, {0: (1, 2)}, 9),
    ("A1 x Z/3", {0: (0, 1), 1: 0}, {0: (1, 1), 1: 1}, 6),
    ("Z/3 x Z/4", {0: (1, 0, 0), 1: (0, 1)}, {0: (1, 0, 1), 1: (1, 1)}, 6),
])
def test_filtration_on_non_coxeter_groups(spec, low, high, D):
    # every congruence of these groups is a deletion; inclusion, codims and
    # witness are checked against the oracle's derivative route
    W = parse_group(spec)
    m_low, m_high = Multiplicity(W, low), Multiplicity(W, high)
    report = filtration_check(W, m_low, m_high, D)
    assert report["included"]
    codims = [a - b for a, b in zip(brute_quasi_dims(W, m_low, D), brute_quasi_dims(W, m_high, D))]
    assert report["codims"] == codims and any(codims)
    witness = report["strict_witness"]
    assert brute_is_quasi_invariant(W, m_low, witness)
    assert not brute_is_quasi_invariant(W, m_high, witness)


def _maximal_weight_vectors(sizes, D: int):
    """Componentwise-maximal integer vectors m with sum(sizes_i * m_i) <= D."""
    out = []

    def rec(prefix, budget):
        i = len(prefix)
        if i == len(sizes):
            out.append(tuple(prefix))
            return
        if i == len(sizes) - 1:
            rec(prefix + [budget // sizes[i]], 0)
            return
        for v in range(budget // sizes[i], -1, -1):
            rec(prefix + [v], budget - sizes[i] * v)

    rec([], D)
    return [v for v in out if not any(v != w and all(map(le, v, w)) for w in out)]


def _intersect_spans(A, B):
    """Basis of the intersection of two row spans (each given by a basis)."""
    if not A or not B:
        return []
    n = len(A[0])
    dimsum = rank(A + B)
    # the kernel of [A^T | -B^T]; intersection vectors are A^T * (a-part),
    # reduced to a basis through one span
    cols = [[a[j] for a in A] + [-b[j] for b in B] for j in range(n)]
    span = IncrementalSpan()
    basis = []
    for k in (nullspace(cols) if cols else []):
        v = [sum((c * a[j] for c, a in zip(k, A) if c), Fraction(0)) for j in range(n)]
        if span.add(v):
            basis.append(v)
    assert len(basis) == len(A) + len(B) - dimsum
    return basis


def _intersection_dims_by_spans(group, D: int):
    """The intersection of Q_m over every maximal weight vector of total
    weight <= D, one pair of dense layer spans at a time."""
    orbit_sizes = Counter(h.orbit_id for h in group.hyperplanes)
    orbit_nh = {h.orbit_id: h.stabilizer_order for h in group.hyperplanes}
    orbit_ids = sorted(orbit_sizes)
    spans = None
    for vec in _maximal_weight_vectors([orbit_sizes[o] for o in orbit_ids], D):
        values = {o: m if orbit_nh[o] == 2 else (m,) * (orbit_nh[o] - 1)
                  for o, m in zip(orbit_ids, vec)}
        basis = quasi_basis(group, Multiplicity(group, values), D)
        vecs = [[coordinate_vector(p, d) for p in basis.layers[d]] for d in range(D + 1)]
        spans = vecs if spans is None else [_intersect_spans(a, b) for a, b in zip(spans, vecs)]
    return [len(s) for s in spans]


@pytest.mark.parametrize("spec, D", [
    ("A1", 5), ("A1", 8), ("A1 x A1", 8), ("A1^3", 6), ("I2(3)", 8), ("I2(3)", 12),
    ("I2(4)", 10), ("I2(5)", 10), ("I2(6)", 12), ("Z/3", 8), ("Z/4", 8), ("A1 x Z/3", 7),
    ("Z/3 x Z/4", 6),
])
def test_intersection_is_the_layer_at_the_componentwise_maximum(spec, D):
    W = parse_group(spec)
    zero = Multiplicity.constant(W, 0)
    report = filtration_check(W, zero, zero, D)
    assert report["intersection_dims"] == _intersection_dims_by_spans(W, D)


def test_invariant_ring_dims():
    W = parse_group("I2(3)")
    assert invariant_ring_dims(W, 6) == [1, 0, 1, 1, 1, 1, 2]


def test_basis_elements_pass_direct_membership():
    # solver output against the membership test, which evaluates the same
    # constraint rows; the oracle checks both on random multiplicities
    for spec, m in (("I2(3)", 1), ("Z/3", 1), ("A1 x A1", 2)):
        W = parse_group(spec)
        mult = Multiplicity.constant(W, m)
        basis = quasi_basis(W, mult, 6)
        for layer in basis.layers:
            for p in layer:
                assert is_quasi_invariant(W, mult, p)


def test_oracle_equivalence_cyclic_and_mixed():
    for spec in ("Z/3", "Z/4", "A1 x Z/3"):
        W = parse_group(spec)
        for m in range(3):
            mult = Multiplicity.constant(W, m)
            assert quasi_basis(W, mult, 8).dims() == brute_quasi_dims(W, mult, 8)


def test_tower_convergence_to_invariants():
    # once 2m+1 exceeds the degree bound, the truncated layer equals the
    # invariants
    D = 9
    inv = invariant_ring_dims(A1, D)
    stabilized = quasi_basis(A1, Multiplicity.constant(A1, 5), D).dims()
    assert stabilized == inv
    not_yet = quasi_basis(A1, Multiplicity.constant(A1, 4), D).dims()
    assert not_yet != inv
