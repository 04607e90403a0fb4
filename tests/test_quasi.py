import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, prod
from operator import add, le

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import coordinate_vector
from group_algebra import GroupAlgebraElement, idempotent
from oracles import (
    CWValuedElement,
    brute_is_quasi_invariant,
    brute_quasi_dims,
    cw_valued_basis,
    monomial,
)
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
    GradedBasis,
    _constraint_entries,
    _hyperplane_conditions,
    _odd_alpha_coefficients,
    _primitive,
    _proof_row,
    _row,
    closure_report,
    filtration_check,
    freeness_certificate,
    hilbert,
    invariant_ring_dims,
    is_quasi_invariant,
    module_certificate,
    quasi_basis,
)
from quasinv.serialize import encode_coeff, encode_polynomial
from quasinv.tower import ganea_step, x1_algebra, x1_layers
from span_matrix import layers_basis, rank, span_membership
from test_groups import _character_blocks, monomial_blocks


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


def _entry_kernels(group, conditions, monos, blocks):
    """Each block of columns solved alone over the rows of `conditions` as
    `_constraint_entries` gives them, each entry roots[u] * c unscaled: a
    pair (kept monomials, `nullspace` kernel over their positions).  The
    reference for the blocks `quasi_basis` solves off its frames."""
    out = []
    for block in blocks:
        kept, rows = [], {}
        for col in block:
            entries = _constraint_entries(group, conditions, monos[col])
            if entries is not None:
                for key, u, c in entries:
                    rows.setdefault(key, SparseRow())[len(kept)] = group.roots[u] * c
                kept.append(monos[col])
        out.append((kept, nullspace(list(rows.values()), len(kept))))
    return out


def quasi_basis_unblocked(group, mult, max_degree):
    """`quasi_basis` with one matrix per degree over all monomials and the
    rows of every swap (`_entry_kernels`): the reference for the block
    decomposition, the swap-orbit cut and the frame rows."""
    conditions = _hyperplane_conditions(group, mult)
    layers = []
    for d in range(max_degree + 1):
        monos = monomials_of_degree(group.variables, d)
        [(kept, kernel)] = _entry_kernels(group, conditions, monos, [range(len(monos))])
        layer = [Polynomial(group.variables, {kept[i]: c for i, c in vec.items()})
                 for vec in kernel]
        layers.append(sorted(layer, key=lambda p: min(p.terms)))
    return layers_basis(group, mult, layers)


def _blocked_cases():
    """(group, multiplicity, D): I2(3)-I2(8) and I2(12) at m = 1, 2, 3 and,
    for even k, two per-orbit values, then the rational groups."""
    for k in (3, 4, 5, 6, 7, 8, 12):
        W = parse_group(f"I2({k})")
        mults = [Multiplicity.constant(W, m) for m in (1, 2, 3)]
        if k % 2 == 0:
            mults += [Multiplicity(W, {0: 1, 1: 3}), Multiplicity(W, {0: 2, 1: 0})]
        yield from ((W, mu, 14) for mu in mults)
    for spec, m, D in (("A1 x A1", 1, 8), ("Z/4", 2, 9)):
        W = parse_group(spec)
        yield W, Multiplicity.constant(W, m), D


def test_blocked_solver_agrees_with_unblocked():
    # the blocked solve keeps one swap per rotation orbit; the reference
    # solves every swap on one block per degree
    for W, mu, D in _blocked_cases():
        blocked = quasi_basis(W, mu, D)
        unblocked = quasi_basis_unblocked(W, mu, D)
        assert _encoded_layers(blocked) == _encoded_layers(unblocked), (W.spec, mu)
        in_unblocked = span_membership(unblocked.layers)
        for d in range(D + 1):
            for p in blocked.layers[d]:
                assert in_unblocked(p)


def _odd_alpha_by_binomials(a, b, top):
    """The reference for `_odd_alpha_coefficients`: each coefficient as its
    sum over the binomial expansions of both factors."""
    out = []
    for t in range(1, min(top, a + b + 1), 2):
        c = sum(comb(a, i) * comb(b, t - i) * (-1) ** (t - i)
                for i in range(max(0, t - b), min(a, t) + 1))
        if c:
            out.append((t, c))
    return tuple(out)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 80), st.integers(0, 80), st.integers(0, 65))
def test_odd_alpha_recurrence_matches_the_binomial_sums(a, b, top):
    assert _odd_alpha_coefficients(a, b, top) == _odd_alpha_by_binomials(a, b, top)


@pytest.mark.parametrize("spec", ["I2(3)", "I2(4)", "I2(5)", "I2(6)", "I2(8)"])
def test_membership_keeps_the_hyperplanes_a_solve_drops(spec):
    # beta = 2 z1 - alpha is fixed by the reflection in the first hyperplane,
    # so it meets that swap's rows, the one a solve keeps for its rotation
    # orbit; it lies across the characters of z1 and z2 and fails the others
    W = parse_group(spec)
    first = W.hyperplanes[0]
    mult = Multiplicity(W, {h.orbit_id: int(h.orbit_id == first.orbit_id) for h in W.hyperplanes})
    z1 = Polynomial.variable(W.variables, "z1")
    beta = z1 * 2 - first.alpha
    assert W.monomial_class_key((1, 0)) != W.monomial_class_key((0, 1))
    deletions, swaps = _hyperplane_conditions(W, mult)
    assert len(swaps) > 1 and quasi._satisfies(W, (deletions, swaps[:1]), beta)
    assert not is_quasi_invariant(W, mult, beta)
    assert not brute_is_quasi_invariant(W, mult, beta)


@pytest.mark.parametrize("spec", ["I2(3)", "I2(4)", "I2(5)", "I2(6)", "I2(7)", "I2(8)",
                                  "I2(12)"])
def test_dihedral_solves_take_one_swap_per_rotation_orbit(spec, monkeypatch):
    # the rotations join all hyperplanes of odd k and each of the two orbits
    # of even k, so every matrix handed to `nullspace`, for the dims or for
    # a layer, has at most sum over those swaps of m_H rows
    W = parse_group(spec)
    mult = _mixed_multiplicity(W)
    swaps, sizes = [], []
    chain_rows = quasi._chain_rows

    def counted_rows(group, kept_swaps, deltas, series):
        swaps.append(len(kept_swaps))
        return chain_rows(group, kept_swaps, deltas, series)

    def recording(matrix, ncols=None):
        sizes.append(len(matrix))
        return nullspace(matrix, ncols)

    monkeypatch.setattr(quasi, "_chain_rows", counted_rows)
    monkeypatch.setattr(quasi, "nullspace", recording)
    basis = quasi_basis(W, mult, 3 * W.invariant_degrees[-1])
    dims_calls = len(sizes)
    basis.layers
    orbits = {h.orbit_id: mult.of(h) for h in W.hyperplanes}
    assert set(swaps) == {len(orbits)} and len(orbits) == 2 - W.invariant_degrees[-1] % 2
    assert 0 < dims_calls < len(sizes) and max(sizes) <= sum(orbits.values())


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
        for block in monomial_blocks(group, monos):
            rows = {}
            for ci, (alpha, ops) in enumerate(conditions):
                for oi, (op, need) in enumerate(ops):
                    for local, col in enumerate(block):
                        cond = op.apply(monomial(group.variables, monos[col]))
                        for k in range(need):
                            cond, rem = divide_by_linear(cond, alpha)
                            for exp, c in rem.terms.items():
                                row = rows.setdefault((ci, oi, k, exp), [Fraction(0)] * len(block))
                                row[local] = row[local] + c
            if rows:
                kernel = nullspace([rows[k] for k in sorted(rows)])
            else:
                kernel = [{i: Fraction(1)} for i in range(len(block))]
            for vec in kernel:
                terms = {monos[block[i]]: c for i, c in vec.items()}
                layer.append(Polynomial(group.variables, terms))
        layer.sort(key=lambda p: min(p.terms))
        layers.append(layer)
    return layers_basis(group, mult, layers)


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
        monomials = [monomial(W.variables, e) for e in monomials_of_degree(W.variables, d)]
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


def _record_first_reads(monkeypatch, read: list) -> None:
    """Patch `GradedBasis.layer` to append (degree, key) to `read` at the
    first read of each layer (key None) and each character block."""
    layer = GradedBasis.layer

    def counted_layer(basis, d, key=None):
        if (basis._layers[d] if key is None else basis._block_layers.get((d, key))) is None:
            read.append((d, key))
        return layer(basis, d, key)

    monkeypatch.setattr(GradedBasis, "layer", counted_layer)


def _generator_blocks(W, cert) -> list:
    """The (degree, character) block of each generator: its terms share one
    character of the diagonal subgroup."""
    return [(d, W.monomial_class_key(min(g.terms))) for d, g in cert.generators]


def test_certificate_builds_only_the_layers_it_spans(monkeypatch):
    W = parse_group("A1^4")
    mult = Multiplicity.constant(W, 1)
    built = []
    _record_first_reads(monkeypatch, built)
    cert = freeness_certificate(W, mult, 44)
    assert cert.status == "free" and max(cert.generator_degrees()) == 12
    # the blocks the products leave short: each of the 16 characters of
    # (Z/2)^4 holds one generator, and no other block of degrees 0-12 is formed
    assert sorted(built) == sorted(_generator_blocks(W, cert))
    assert {d for d, _ in built} == {0, 3, 6, 9, 12} and len(built) == 16
    monkeypatch.undo()
    basis = quasi_basis(W, mult, 44)
    eager = layers_basis(W, mult, basis.layers)
    assert _typed_outcome(module_certificate(W, eager, cert.predicted_shift)) == \
        _typed_outcome(cert)


@pytest.mark.parametrize("spec", ["I2(3)", "I2(4)", "I2(5)", "I2(6)", "I2(7)", "I2(8)", "A1^3"])
def test_certificate_forms_only_the_layers_the_products_leave_short(spec, monkeypatch):
    # a character block that the invariant products fill holds no
    # generator, so it is never formed; a short block gains at least one
    # generator.  The eager basis, one block per degree, gives the same
    # certificate
    W = parse_group(spec)
    D = 4 * sum(W.invariant_degrees)
    for mult in (Multiplicity.constant(W, 1), _mixed_multiplicity(W)):
        built = []
        _record_first_reads(monkeypatch, built)
        cert = freeness_certificate(W, mult, D)
        monkeypatch.undo()
        basis = quasi_basis(W, mult, D)
        assert cert.status == "free"
        assert sorted(built) == sorted(set(_generator_blocks(W, cert)))
        top = max(d for d, _ in built)
        assert len(built) < sum(len(basis.blocks(d)) for d in range(top + 1))
        eager = layers_basis(W, mult, basis.layers)
        assert _typed_outcome(module_certificate(W, eager, cert.predicted_shift)) == \
            _typed_outcome(cert)


# -- swap layers kept as kernels, polynomials formed on first read ----------------------


def _typed_terms(layer):
    """Each polynomial of a layer as its terms in their own order: exponent,
    coefficient type and JSON encoding."""
    return [[(e, type(c).__name__, encode_coeff(c)) for e, c in p.terms.items()] for p in layer]


def _eagerly_solved_layers(group, mult, D):
    """Every layer of a full eager solve, the reference for the layers read
    on demand: each block of every degree solved over every swap's rows
    (`_entry_kernels`), with the blocks computed afresh (the kernel, hence
    the layer, is the same)."""
    conditions = _hyperplane_conditions(group, mult)
    layers = []
    for d in range(D + 1):
        monos = monomials_of_degree(group.variables, d)
        kernels = _entry_kernels(group, conditions, monos, monomial_blocks(group, monos))
        layers.append(quasi._layer(group.variables, kernels))
    return layers


@pytest.mark.parametrize("spec", ["I2(3)", "I2(4)", "I2(5)", "I2(6)", "I2(12)"])
def test_swap_layers_read_in_any_order_equal_the_eager_solve(spec, monkeypatch):
    W = parse_group(spec)
    D = 3 * W.invariant_degrees[-1]
    for mult in (Multiplicity.constant(W, 1), _mixed_multiplicity(W)):
        reference = [_typed_terms(layer) for layer in _eagerly_solved_layers(W, mult, D)]
        built = []
        form = quasi._layer

        def counted_layer(variables, kernels):
            built.append(kernels)
            return form(variables, kernels)

        monkeypatch.setattr(quasi, "_layer", counted_layer)
        basis = quasi_basis(W, mult, D)
        assert built == []  # no polynomial is formed before a read
        order = list(range(D + 1))
        random.Random(spec).shuffle(order)
        for d in order[: len(order) // 2]:
            assert _typed_terms(basis.layer(d)) == reference[d]
            assert basis.layer(d) is basis.layer(d)
        assert len(built) == len(order) // 2  # a layer is formed once
        assert [_typed_terms(layer) for layer in basis.layers] == reference
        assert len(built) == D + 1
        monkeypatch.undo()


@pytest.mark.parametrize("spec", ["I2(3)", "I2(4)", "I2(5)", "I2(6)", "I2(12)"])
def test_swap_dims_are_the_sizes_of_the_layers(spec):
    W = parse_group(spec)
    D = 2 * W.invariant_degrees[-1] + 8
    mults = [Multiplicity.constant(W, m) for m in (0, 1, 2)] + [_mixed_multiplicity(W)]
    for mult in mults:
        basis = quasi_basis(W, mult, D)
        dims = basis.dims()  # read before any layer is formed
        assert dims == [len(basis.layer(d)) for d in range(D + 1)]
        assert dims == quasi_basis(W, mult, D).dims()


# -- blocks read off their chain's frame -------------------------------------------------


def _encoded_blocks(kernels):
    """A degree's (kept, kernel) blocks as the terms of their polynomials:
    (exponent, coefficient type, JSON encoding) in the vector's order."""
    return [[[(kept[i], type(c).__name__, encode_coeff(c)) for i, c in vec.items()]
             for vec in kernel]
            for kept, kernel in kernels]


def _has_pure_power(monos, block) -> bool:
    d = sum(monos[0])
    return any(monos[c] in ((d, 0), (0, d)) for c in block)


@pytest.mark.parametrize("spec", ["I2(3)", "I2(4)", "I2(5)", "I2(6)", "I2(7)", "I2(8)",
                                  "I2(12)"])
def test_inherited_blocks_equal_solved_blocks(spec, monkeypatch):
    # a block without z1^d or z2^d holds its chain's levels <= d - 2, the
    # columns of the same character's block at d - 2, and shares its kernel;
    # each formed block, matched by its character, is compared with its own
    # solve over the rows of every swap
    W, D = parse_group(spec), 40
    for mult in (Multiplicity.constant(W, 1), Multiplicity.constant(W, 3),
                 _mixed_multiplicity(W)):
        conditions = _hyperplane_conditions(W, mult)
        formed = []
        form = quasi._layer

        def recording_layer(variables, kernels):
            formed.append(kernels)
            return form(variables, kernels)

        monkeypatch.setattr(quasi, "_layer", recording_layer)
        quasi_basis(W, mult, D).layers
        monkeypatch.undo()
        inherited, by_character = 0, []
        for d in range(D + 1):
            monos = monomials_of_degree(W.variables, d)
            blocks = monomial_blocks(W, monos)
            by_character.append({W.monomial_class_key(kept[0]): (kept, kernel)
                                 for kept, kernel in formed[d]})
            assert len(by_character[d]) == len(formed[d]) == len(blocks)
            for block, solved in zip(blocks, _entry_kernels(W, conditions, monos, blocks)):
                key = W.monomial_class_key(monos[block[0]])
                kept, kernel = by_character[d][key]
                assert kept == solved[0] == [monos[c] for c in block]
                assert _encoded_blocks([(kept, kernel)]) == _encoded_blocks([solved]), \
                    (spec, mult, d)
                if not _has_pure_power(monos, block):
                    assert kernel is by_character[d - 2][key][1]
                    inherited += 1
        assert inherited >= D // 2  # I2(4) inherits the fewest: one block of each even d


@pytest.mark.parametrize("spec", ["I2(3)", "I2(4)", "I2(5)", "I2(6)", "I2(7)", "I2(8)",
                                  "I2(12)"])
def test_chain_prefixes_are_the_character_blocks(spec, monkeypatch):
    # the lemma the layers rest on: the degree-d block of a character holds
    # the z1^a z2^b of its chain (character, d mod 2) of level |a - b| <= d,
    # checked against the partition by scalar characters, both as `_chains`
    # lists the chains and as a layer read forms the blocks
    W, D = parse_group(spec), 24
    formed = []
    form = quasi._layer

    def recording_layer(variables, kernels):
        formed.append([kept for kept, _ in kernels])
        return form(variables, kernels)

    monkeypatch.setattr(quasi, "_layer", recording_layer)
    quasi_basis(W, Multiplicity.constant(W, 1), D).layers
    monkeypatch.undo()
    chains = quasi._chains(W, D)
    for d in range(D + 1):
        monos = monomials_of_degree(W.variables, d)
        expected = sorted([monos[c] for c in block] for block in _character_blocks(W, monos))
        prefixes = ([((d + delta) // 2, (d - delta) // 2) for delta in sorted(deltas)
                     if abs(delta) <= d] for (_, parity), deltas in chains.items()
                    if parity == d % 2)
        assert sorted(prefix for prefix in prefixes if prefix) == expected, (spec, d)
        assert sorted(formed[d]) == expected, (spec, d)


@pytest.mark.parametrize("spec", ["I2(3)", "I2(4)", "I2(6)", "A1^3", "Z/3"])
def test_layers_read_out_of_order_equal_an_in_order_read(spec):
    # a kernel kept per (chain, block size) is solved at the first degree
    # read that needs it, so reads from the top down or shuffled must give
    # the layers of an in-order read
    W, D = parse_group(spec), 24
    mult = _mixed_multiplicity(W)
    in_order = [_typed_terms(layer) for layer in quasi_basis(W, mult, D).layers]
    shuffled = list(range(D + 1))
    random.Random(1).shuffle(shuffled)
    for order in (range(D, -1, -1), shuffled):
        basis = quasi_basis(W, mult, D)
        read = {d: _typed_terms(basis.layer(d)) for d in order}
        assert [read[d] for d in range(D + 1)] == in_order, (spec, list(order))


@pytest.mark.parametrize("spec", ["I2(3)", "I2(4)", "I2(6)", "I2(8)", "I2(12)", "I2(32)"])
def test_dihedral_nullspace_runs_only_on_blocks_with_a_pure_power(spec, monkeypatch):
    # the dims take one `nullspace` per conjugate class of chains
    # (character, parity of d), the chain of z1^a z2^b with that of z1^b z2^a,
    # and form no layer; reading every layer then solves exactly the blocks
    # that hold z1^d or z2^d, the others sharing the kernel of d - 2
    W = parse_group(spec)
    D = 2 * W.invariant_degrees[-1] + 12
    calls, formed = [], []
    form = quasi._layer

    def recording(matrix, ncols=None):
        calls.append(ncols)
        return nullspace(matrix, ncols)

    def recording_layer(variables, kernels):
        formed.append(len(kernels))
        return form(variables, kernels)

    monkeypatch.setattr(quasi, "nullspace", recording)
    monkeypatch.setattr(quasi, "_layer", recording_layer)
    blocks = []  # (degree, monomials, block)
    for d in range(D + 1):
        monos = monomials_of_degree(W.variables, d)
        blocks += [(d, monos, block) for block in monomial_blocks(W, monos)]
    chains = {(W.monomial_class_key(monos[block[0]]), d % 2) for d, monos, block in blocks}
    classes = {frozenset((W.monomial_class_key(e), d % 2) for e in (monos[block[0]],
                                                                   monos[block[0]][::-1]))
               for d, monos, block in blocks}
    basis = quasi_basis(W, _mixed_multiplicity(W), D)
    dims = basis.dims()
    assert len(calls) == len(classes) < len(chains) and formed == []
    basis.layers
    pure = sum(_has_pure_power(monos, block) for _, monos, block in blocks)
    assert len(formed) == D + 1 and 0 < len(calls) - len(classes) == pure < len(blocks)
    assert dims == [len(layer) for layer in basis.layers]


@pytest.mark.parametrize("spec", ["I2(3)", "I2(4)", "I2(5)", "I2(6)", "I2(7)", "I2(8)",
                                  "I2(12)"])
def test_frame_columns_are_the_unit_times_the_constraint_columns(spec):
    # the frame lemma: times the root r^((d - delta_0)/2) and the even unit
    # (1 - alpha^2)^(-(d - p)/2) mod alpha^(2m), the odd alpha-coefficients
    # of each column z1^a z2^b of a degree-d block, as `_constraint_entries`
    # gives them, are its chain's frame column, whatever d
    W = parse_group(spec)
    for mult in (Multiplicity.constant(W, 1), Multiplicity.constant(W, 4),
                 _mixed_multiplicity(W)):
        _check_frame_columns(W, mult, 24)


def _check_frame_columns(W, mult, D):
    _, swaps = _hyperplane_conditions(W, mult)
    n = len(W.roots)
    series = quasi._frame_series(max(top for *_, top in swaps), D)
    for (_, parity), deltas in quasi._chains(W, D).items():
        for swap in swaps:
            _, _, j, top = swap
            frame = quasi._chain_rows(W, [swap], deltas, series)
            for d in range(abs(deltas[0]), D + 1, 2):
                q = (d - parity) // 2  # (1 - x)^(-q) = sum_i comb(q + i - 1, i) x^i
                unit = [comb(q + i - 1, i) if q else int(i == 0) for i in range(top)]
                scale = W.roots[j * ((d - deltas[0]) // 2) % n]
                columns = {}
                for delta in deltas:
                    if abs(delta) <= d:
                        old = {f[0]: W.roots[u] * c for (_, f), u, c in
                               _constraint_entries(W, ([], [swap]), ((d + delta) // 2,
                                                                     (d - delta) // 2))}
                        columns[delta] = {t: scale * sum(unit[i] * old.get(t - 2 * i, 0)
                                                         for i in range(t // 2 + 1))
                                          for t in range(1, top, 2)}
                expected = [{delta: col[t] for delta, col in columns.items() if col[t]}
                            for t in range(1, top, 2)]
                got = [{delta: c for delta, c in row.items() if abs(delta) <= d} for row in frame]
                assert [r for r in got if r] == [r for r in expected if r], (W.spec, d, deltas)


def _direct_frame_series(level, top):
    """The coefficients below alpha^top of (1 - alpha^2)^(-q) (1 + alpha)^level,
    q = level // 2, by binomial sums."""
    q = level // 2
    return [sum((comb(q + i - 1, i) if q else int(i == 0)) * comb(level, t - 2 * i)
                for i in range(t // 2 + 1)) for t in range(top)]


def test_frame_series_are_the_direct_series_products():
    series = quasi._frame_series(41, 60)
    assert series == [_direct_frame_series(level, 41) for level in range(61)]
    assert quasi._frame_series(2, 0) == [[1, 0]]


@pytest.mark.parametrize("spec", ["I2(3)", "I2(4)", "I2(5)", "I2(6)", "I2(7)", "I2(8)",
                                  "I2(12)", "I2(32)"])
def test_conjugate_chains_are_mirrored_frames_with_equal_free_columns(spec):
    # the lemma that lets the dims solve one chain per conjugate pair: the
    # chain of the mirrored monomials z1^b z2^a, when it is another chain,
    # has the negated deltas, and its frame over every swap is -1 times the
    # first frame under delta -> -delta, so the two kernels have the same
    # free columns
    W, D = parse_group(spec), 40
    for mult in (Multiplicity.constant(W, 2), _mixed_multiplicity(W)):
        _, swaps = _hyperplane_conditions(W, mult)
        series = quasi._frame_series(max(top for *_, top in swaps), D)
        chains = quasi._chains(W, D)
        pairs = 0
        for chain, deltas in chains.items():
            pure = (deltas[0], 0) if deltas[0] > 0 else (0, -deltas[0])
            twin = (W.monomial_class_key(pure[::-1]), chain[1])
            if twin == chain:
                continue
            assert chains[twin] == [-delta for delta in deltas]
            frame = quasi._chain_rows(W, swaps, deltas, series)
            twin_frame = quasi._chain_rows(W, swaps, chains[twin], series)
            assert frame == [{-delta: -c for delta, c in row.items()} for row in twin_frame]
            assert nullspace(quasi._block_rows(frame, deltas), len(deltas)).free_columns() == \
                nullspace(quasi._block_rows(twin_frame, chains[twin]),
                          len(deltas)).free_columns()
            pairs += 1
        assert pairs >= 2  # each pair is met from both sides


@pytest.mark.parametrize("spec", ["I2(3)", "I2(4)", "I2(5)", "I2(6)", "I2(7)", "I2(8)",
                                  "I2(12)", "I2(32)", "A1^3", "Z/3 x Z/4", "A1 x Z/3"])
def test_block_dims_are_the_layer_grouped_by_character(spec):
    # the blocks the certificate reads: a degree's block dims sum to its dim
    # and count the layer's elements of each character of the diagonal
    # subgroup, and a block read, on a basis that forms no layer, gives
    # those elements
    W, D = parse_group(spec), 18
    for mult in (Multiplicity.constant(W, 1), _mixed_multiplicity(W)):
        basis, split = quasi_basis(W, mult, D), quasi_basis(W, mult, D)
        for d, dim in enumerate(basis.dims()):
            grouped = {}
            for p in basis.layer(d):
                [key] = {W.monomial_class_key(e) for e in p.terms}
                grouped.setdefault(key, []).append(p)
            blocks = split.blocks(d)
            assert sum(blocks.values()) == dim, (spec, d)
            assert blocks == {key: len(layer) for key, layer in grouped.items()}, (spec, d)
            assert {key: _typed_terms(split.layer(d, key)) for key in blocks} == \
                {key: _typed_terms(layer) for key, layer in grouped.items()}, (spec, d)
        assert split._layers == [None] * (D + 1)


def _constant_basis(spec, m, D):
    W = parse_group(spec)
    return quasi_basis(W, Multiplicity.constant(W, m), D)


@pytest.mark.parametrize("make", [
    lambda: _constant_basis("A1", 1, 10),
    lambda: _constant_basis("I2(3)", 1, 6),
    lambda: x1_layers(parse_group("A1^2"), 6),
    lambda: ganea_step(_constant_basis("A1", 0, 9))["next_basis"],
], ids=["deletions", "swaps", "x1", "tower-step"])
def test_degrees_outside_the_range_are_refused(make):
    # a negative degree was once read as a Python index: layer(-1) of a lazy
    # basis cached its layer in the top degree's slot, and the tower step's
    # basis answered with its top layer; layer(max_degree + 1) raised a bare
    # IndexError
    basis = make()
    basis.layer(2)
    cached = list(basis._layers)
    for d in (-1, basis.max_degree + 1):
        with pytest.raises(ValueError, match=f"degree {d} outside 0..{basis.max_degree}$"):
            basis.layer(d)
    assert basis._layers == cached
    assert basis.layers == make().layers


def test_a_refused_negative_degree_leaves_the_top_layer():
    basis = _constant_basis("A1", 1, 10)
    with pytest.raises(ValueError):
        basis.layer(-1)
    assert basis.layer(10) == [X**10]


_FRESH_ENCODING = """
import sys
from quasinv.groups import Multiplicity, parse_group
from quasinv.quasi import quasi_basis
from quasinv.serialize import encode_coeff
W = parse_group(sys.argv[1])
basis = quasi_basis(W, Multiplicity.constant(W, int(sys.argv[2])), int(sys.argv[3]))
print(repr([[[(e, type(c).__name__, encode_coeff(c)) for e, c in p.terms.items()]
             for p in layer] for layer in basis.layers]))
"""


def test_swap_bases_of_one_group_match_fresh_processes():
    # the blocks of each degree are built once per group and shared by every
    # basis of it, so a basis read after another must not see them changed
    W, D = parse_group("I2(6)"), 18
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.join(os.path.dirname(__file__), "..", "src"),
                      os.environ.get("PYTHONPATH")])))
    for m in (2, 0, 1):
        basis = quasi_basis(W, Multiplicity.constant(W, m), D)
        fresh = subprocess.run([sys.executable, "-c", _FRESH_ENCODING, W.spec, str(m), str(D)],
                               env=env, capture_output=True, text=True, check=True)
        assert repr([_typed_terms(layer) for layer in basis.layers]) == fresh.stdout.strip()


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
    # z1 and z2 have different rotation characters; in one chain the columns
    # delta = 1 and -1 of the swap with root index 2 carry root indices 4
    # and 0 of N = 6 (their z2-exponents at degree 1 are 0 and 1), which are
    # neither 0 nor N/2 apart
    W = parse_group("I2(3)")
    _, swaps = _hyperplane_conditions(W, Multiplicity.constant(W, 1))
    assert [j for _, _, j, _ in swaps] == [0, 2, 4]
    series = quasi._frame_series(2, 1)
    assert quasi._chain_rows(W, swaps[:1], [1, -1], series) == [{1: 1, -1: -1}]
    with pytest.raises(ArithmeticError, match="not rational up to sign"):
        quasi._chain_rows(W, swaps, [1, -1], series)


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
    layers = [[monomial(W.variables, e) for e in monomials_of_degree(W.variables, d)]
              for d in range(9)]
    layers[1] = [x1 + x2, x1 - x2]
    cert = module_certificate(W, layers_basis(W, None, layers))
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
        blocks = monomial_blocks(group, list(index))
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


def _pattern_elements(group, last=False):
    """The first (or last) element of each permutation pattern."""
    reps = {}
    for i, (perm, _) in enumerate(group.forms):
        if last or perm not in reps:
            reps[perm] = i
    return list(reps.values())


def _independent(group, generators) -> bool:
    """The proof that `module_certificate` runs one generator at a time,
    taken at once: every proof row enlarges the span, and the rows fill its
    |W| columns, one per diagonal character and permutation pattern."""
    span, reps = IncrementalSpan(), _pattern_elements(group)
    return all(span.add(_proof_row(group, reps, _primitive(g))) for g in generators) and \
        span.dim() == group.order


def test_proof_rows_equal_the_moved_generators_at_x0():
    """Each battery generator g lies in one diagonal character, and its
    proof row, formed from its integer term list, is the value
    sum_e c s(x^e)(x0) of each element s on g, times the scale of
    `_primitive`: integers for the first element of each pattern, and for
    the last, whose roots of unity are not all 1 in I2(k), Cyclotomics.
    Like every row handed to a span, it iterates over its entries, which
    is how `perfbench/fieldbench.harvest` reads the rows it samples."""
    from test_acceptance import _max_entry, criterion_2_configurations, \
        larger_battery_configurations

    for group, mult in criterion_2_configurations() + larger_battery_configurations():
        cert = freeness_certificate(group, mult,
                                    4 * group.sum_invariant_degrees() + 4 * _max_entry(mult))
        x0 = range(2, group.rank + 2)
        for _, g in cert.generators:
            terms = _primitive(g)
            e0, c0 = terms[0]
            key = group.monomial_class_key(e0)
            for reps in (_pattern_elements(group), _pattern_elements(group, last=True)):
                row = _proof_row(group, reps, terms)
                assert row.keys() == {(key, i) for i in reps}, group.spec
                assert list(row) == list(row.values()), group.spec
                for i in reps:
                    value = sum(c * prod(map(pow, x0, e))
                                for e, c in group.act(i, g).terms.items())
                    assert row[key, i] * g.terms[e0] == c0 * value, group.spec
            first = _proof_row(group, _pattern_elements(group), terms)
            assert all(value.__class__ is int for value in first.values()), group.spec


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

    layers = [[monomial(W.variables, e)
               for e in monomials_of_degree(W.variables, d) if member(*e)] for d in range(21)]
    basis = layers_basis(W, None, layers)
    cert = module_certificate(W, basis)
    assert (cert.status, cert.failure_degree) == ("not-free", 13)
    assert cert.generator_degrees() == [0, 3, 3, 6, 11, 13]
    assert _certificate_outcome(cert) == _reference_outcome(W, basis)


def test_no_span_row_above_the_last_generator_degree(monkeypatch):
    """Every generator is proved independent as it is found, so a degree
    that holds none is certified by the count, before the last generator as
    after it: A1^3 with m = (1, 1, 2) spans no degree above its last
    generator's, I2(6) with m = (1, 2) spans 8 of 41 degrees, and I2(4) at
    m = 32 none of degrees 1..128 below its first generator of positive
    degree.  Every span row is formed in a degree that holds a generator."""
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
    for spec, values, D, status, spanned in [
        ("A1^3", {0: 1, 1: 1, 2: 2}, 32, "free", {0, 3, 5, 6, 8, 11}),
        ("I2(6)", {0: 1, 1: 2}, 40, "free", {0, 9, 10, 11, 13, 14, 15, 24}),
        ("I2(4)", {0: 32, 1: 32}, 256, "inconclusive", {0, 129, 130, 131}),
    ]:
        W = parse_group(spec)
        basis = quasi_basis(W, Multiplicity(W, values), D)
        degrees.clear()
        cert = module_certificate(W, basis)
        assert cert.status == status, spec
        assert set(degrees) == set(cert.generator_degrees()) == spanned, spec


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


def test_filtration_refuses_a_low_multiplicity_not_below_the_high_one():
    # m = (2, 0) and m' = (1, 1) on the two orbits of I2(4): neither is below the other
    W = parse_group("I2(4)")
    low, high = Multiplicity(W, {0: 2, 1: 0}), Multiplicity(W, {0: 1, 1: 1})
    with pytest.raises(DomainError, match="need componentwise m <= m'"):
        filtration_check(W, low, high, 8)


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


def test_filtration_compares_half_integer_conditions_before_any_basis():
    # A1 with m = 1/2: refused against m' = 0, and against m' = 2 the pair
    # passes the comparison and the basis refuses the half-integer
    half = Multiplicity(A1, {0: Fraction(1, 2)})
    with pytest.raises(DomainError, match="need componentwise m <= m'"):
        filtration_check(A1, half, Multiplicity.constant(A1, 0), 8)
    with pytest.raises(DomainError, match="quasi_basis needs integer multiplicities"):
        filtration_check(A1, half, Multiplicity.constant(A1, 2), 8)


def _componentwise_le(low: Multiplicity, high: Multiplicity) -> bool:
    """The reference order: m <= m' on every orbit, entry by entry on the
    vector of an orbit with n_H > 2."""
    def entries(v):
        return v if isinstance(v, tuple) else (v,)
    return all(all(map(le, entries(v), entries(high.values[o]))) for o, v in low.values.items())


def _included_by_elements(group, low: Multiplicity, high: Multiplicity, D: int) -> bool:
    """The reference inclusion Q_(m') <= Q_m through degree D: every element
    of every layer of Q_(m') meets the congruences of m."""
    return all(is_quasi_invariant(group, low, p)
               for layer in quasi_basis(group, high, D).layers for p in layer)


def _orbit_grid(group, top: int, nonzero: int):
    """The multiplicities with entries in 0..top and at most `nonzero`
    nonzero entries over all orbits."""
    orbits = sorted({(h.orbit_id, h.stabilizer_order) for h in group.hyperplanes})
    width = sum(n_h - 1 for _, n_h in orbits)
    out = []
    for flat in product(range(top + 1), repeat=width):
        if sum(map(bool, flat)) > nonzero:
            continue
        values, at = {}, 0
        for o, n_h in orbits:
            values[o] = flat[at] if n_h == 2 else flat[at:at + n_h - 1]
            at += n_h - 1
        out.append(Multiplicity(group, values))
    return out


@pytest.mark.parametrize("spec, top, nonzero, D", [
    ("A1", 2, 1, 8), ("I2(3)", 2, 1, 8), ("I2(4)", 2, 2, 8), ("Z/3", 2, 2, 8),
    ("A1 x Z/3", 1, 3, 6), ("Z/3 x Z/4", 1, 2, 6),
])
def test_filtration_reads_the_inclusion_off_the_congruences(spec, top, nonzero, D,
                                                             monkeypatch):
    # on every pair of the grid the refusal agrees with the reference order;
    # an accepted pair passes the element-by-element reference through D, and
    # no layer of Q_(m') is read
    W = parse_group(spec)
    grid = _orbit_grid(W, top, nonzero)
    read = []
    layer = GradedBasis.layer

    def counted_layer(basis, d):
        read.append(basis.multiplicity)
        return layer(basis, d)

    monkeypatch.setattr(GradedBasis, "layer", counted_layer)
    accepted = 0
    for low, high in product(grid, repeat=2):
        read.clear()
        if not _componentwise_le(low, high):
            with pytest.raises(DomainError, match="need componentwise m <= m'"):
                filtration_check(W, low, high, D)
            continue
        assert filtration_check(W, low, high, D)["included"]
        assert high not in read
        assert _included_by_elements(W, low, high, D)
        accepted += 1
    assert 0 < accepted < len(grid) ** 2


def _raised(group, low: Multiplicity, step: Multiplicity) -> Multiplicity:
    """low + step, orbit by orbit and entry by entry."""
    return Multiplicity(group, {o: tuple(map(add, v, step.values[o])) if isinstance(v, tuple)
                                else v + step.values[o] for o, v in low.values.items()})


_DEEPER_SPECS = (("A1", 3), ("I2(3)", 2), ("I2(4)", 2), ("Z/3", 2), ("A1 x Z/3", 1))


@st.composite
def _filtration_case(draw):
    """(group, m, m' >= m, D, D' > D) on a small group."""
    spec, top = draw(st.sampled_from(_DEEPER_SPECS))
    group = _group(spec)
    low = draw(_multiplicity(group, top))
    high = _raised(group, low, draw(_multiplicity(group, top)))
    D = draw(st.integers(1, 8))
    return group, low, high, D, D + draw(st.integers(1, 6))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_filtration_case())
def test_a_deeper_filtration_never_contradicts_a_shallower_one(case):
    # `intersection_equals_invariants` carries its bound and is left out
    W, low, high, D, deeper = case
    shallow = filtration_check(W, low, high, D)
    deep = filtration_check(W, low, high, deeper)
    assert shallow["included"] == deep["included"]
    assert deep["codims"][:D + 1] == shallow["codims"]
    witness = deep["strict_witness"]
    if witness is not None and witness.degree() > D:
        witness = None
    assert shallow["strict_witness"] == witness


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
        v = [sum((c * A[i][j] for i, c in k.items() if i < len(A)), Fraction(0))
             for j in range(n)]
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
