"""Graded fiber products and the algebra-level fibre-cofibre tower.

The tower step rebuilds Q_(m+1) from Q_m as the fiber product
Q_m x_(Q_m/(x^2)) k and certifies the result against the congruence solver;
it is defined for the rank-one group only, where flatness of Q_m over the
invariants makes the plain fiber product the right object.  All tower
modules work in polynomial x-degree; comparisons against presentations with
doubled (cohomological) degrees rescale explicitly.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from quasinv.errors import DomainError
from quasinv.groups import Multiplicity, ReflectionGroup, parse_group
from quasinv.linalg import IncrementalSpan, SparseRow, nullspace, span_of
from quasinv.poly import Polynomial, monomial_index, multiply_terms
from quasinv.quasi import (_ONE, GradedBasis, _hyperplane_conditions, _primitive, _row,
                           _satisfies, module_certificate, quasi_basis)

__all__ = [
    "FiberProductAlgebra",
    "fiber_product_basis",
    "truncated_line_layers",
    "ganea_step",
    "ganea_tower",
    "h_t_invariants",
    "x1_algebra",
    "presentation_check",
    "fake_cohomology_ring",
]


class FiberProductAlgebra:
    """Degreewise basis of {(a, b) : f(a) = g(b) in C} with componentwise
    product."""

    def __init__(self, variables, layers):
        self.variables = variables
        self.layers = layers  # layers[d] = list of (Polynomial, Polynomial)

    def dims(self):
        return [len(layer) for layer in self.layers]


def fiber_product_basis(variables, layers_a, layers_b, layers_c, f, g,
                        max_degree: int) -> FiberProductAlgebra:
    """Equalizer of two degree-preserving maps into a common graded quotient.

    `f` and `g` are callables on polynomials.  In each degree the equalizer
    is the kernel of [F | -G] on rows indexed by the monomials of the images;
    an image outside the span of the quotient basis means the input maps
    were not well formed and raises a ValueError.
    """
    layers = []
    for d in range(max_degree + 1):
        A = layers_a[d]
        B = layers_b[d]
        index = monomial_index(tuple(variables), d)
        span_c = span_of([_row(c, index) for c in layers_c[d]], len(index))
        rows: dict = {}  # monomial column -> {kernel column: entry}
        for col, p in enumerate(A + B):
            sign, h = (1, f) if col < len(A) else (-1, g)
            image = _row(h(p), index)
            if image and not span_c.contains(image):
                raise ValueError("element outside span")
            for j, c in image.items():
                rows.setdefault(j, SparseRow())[col] = sign * c
        layers.append([(_combination(vec[: len(A)], A, variables),
                        _combination(vec[len(A) :], B, variables))
                       for vec in nullspace(list(rows.values()), len(A) + len(B))])
    return FiberProductAlgebra(variables, layers)


def _combination(coefficients, polys, variables) -> Polynomial:
    """The sum of c * p over the nonzero coefficients c and their polynomials."""
    out = Polynomial.zero(variables)
    for coef, p in zip(coefficients, polys):
        if coef:
            out = out + p * coef
    return out


def truncated_line_layers(variables, cut: int, max_degree: int):
    """Q[x]/(x^cut) with monomial representatives below the cut."""
    name = variables[0]
    x = Polynomial.variable(variables, name)
    return [[x**d] if d < cut else [] for d in range(max_degree + 1)]


def truncate_poly(p: Polynomial, cut: int) -> Polynomial:
    return Polynomial(p.vars, {e: c for e, c in p.terms.items() if sum(e) < cut})


# -- the rank-one tower ------------------------------------------------------------


def _require_a1(group: ReflectionGroup):
    if group.rank != 1 or not group.is_coxeter() or group.order != 2:
        raise DomainError(
            "the fibre-cofibre step is defined for the rank-one reflection "
            "group only; higher-rank groups do not reproduce the filtration "
            "this way"
        )


def ganea_step(q_m: GradedBasis) -> dict:
    """One tower step: Q_m x_(Q_m/(x^2)) k, projected into the first factor.

    `q_m` is the congruence-solver basis of Q_m for the rank-one group, as
    `quasi_basis` returns it (tagged with its multiplicity); the step works
    through the same degree `q_m.max_degree`.  Returns the projected graded
    basis, certifies that it equals the congruence-solver basis of
    multiplicity m+1 (returned as "expected_basis", the input of the next
    step), and reports the total dimension of the fiber algebra Q_m/(x^2).
    """
    group = q_m.group
    _require_a1(group)
    max_degree = q_m.max_degree
    variables = group.variables
    x = Polynomial.variable(variables, variables[0])
    x2 = x * x
    # the ideal x^2 Q_m, one span per degree, and the 2-dimensional quotient algebra
    ideal, quot_reps = [], []
    for d in range(max_degree + 1):
        index = monomial_index(variables, d)
        span = span_of([_row(x2 * p, index) for p in q_m.layer(d - 2)] if d >= 2 else [],
                       len(index))
        ideal.append(span)
        quot_reps.append([p for p in q_m.layer(d) if not span.contains(_row(p, index))])
    fiber_total = sum(len(r) for r in quot_reps)

    def project(p: Polynomial) -> Polynomial:
        """Reduction mod x^2 Q_m: what is left of p after elimination against
        the ideal's span.  Each layer of the rank-one Q_m is one monomial, so
        the remainder is the residue; `fiber_product_basis` refuses any
        remainder outside the span of the residues."""
        terms = {}
        for d in {sum(e) for e in p.terms}:
            if not quot_reps[d]:  # the layer lies in the ideal
                continue
            index = monomial_index(variables, d)
            exps = list(index)
            rest = ideal[d].reduce(_row(p.homogeneous_component(d), index))
            terms.update((exps[j], c) for j, c in rest.items())
        return Polynomial(variables, terms)

    const_layers = [[Polynomial.constant(variables, 1)]] + [[] for _ in range(max_degree)]
    fp = fiber_product_basis(
        variables,
        q_m.layers,
        const_layers,
        quot_reps,
        project,
        lambda b: b,
        max_degree,
    )
    next_layers = []
    for d, layer in enumerate(fp.layers):
        index = monomial_index(variables, d)
        span = IncrementalSpan()
        next_layers.append([a for a, _ in layer if span.add(_row(a, index))])
    projected = GradedBasis(group, None, max_degree, next_layers)
    expected = quasi_basis(group, Multiplicity.constant(group, q_m_mult(q_m) + 1), max_degree)
    certified = _same_spans(projected, expected)
    return {
        "next_basis": projected,
        "expected_basis": expected,
        "certified": certified,
        "fiber_total_dimension": fiber_total,
        "fiber_product": fp,
    }


def q_m_mult(basis: GradedBasis) -> int:
    if not isinstance(basis.multiplicity, Multiplicity):
        raise DomainError("tower steps need a basis tagged with its multiplicity")
    vals = list(basis.multiplicity.values.values())
    return int(vals[0])


def _same_spans(a: GradedBasis, b: GradedBasis) -> bool:
    """Whether the graded basis a, independent in every degree, spans the
    `quasi_basis` b degree by degree: with equal dimensions, that holds
    exactly when every element of a satisfies the congruences of b."""
    if a.dims() != b.dims():
        return False
    conditions = _hyperplane_conditions(b.group, b.multiplicity)
    return all(_satisfies(a.group, conditions, p) for layer in a.layers for p in layer)


def ganea_tower(steps: int, max_degree: int) -> dict:
    """Iterate the tower from Q_0, certifying each stage."""
    group = parse_group("A1")
    current = quasi_basis(group, Multiplicity.constant(group, 0), max_degree)
    stages = [current]
    certified = []
    fiber_dims = []
    for _ in range(steps):
        step = ganea_step(current)
        certified.append(step["certified"])
        fiber_dims.append(step["fiber_total_dimension"])
        stages.append(step["next_basis"])
        current = step["expected_basis"]
    strict = []
    for i in range(len(stages) - 1):
        witness_degree = 2 * i + 1  # x^(2i+1) leaves the filtration at stage i+1
        if witness_degree <= max_degree:
            strict.append(stages[i].dims() != stages[i + 1].dims())
    return {
        "stages": stages,
        "certified": certified,
        "fiber_total_dimensions": fiber_dims,
        "strict_inclusions": strict,
    }


# -- torus-side fiber product and its involution ---------------------------------------


def h_t_invariants(m: int, max_degree: int) -> dict:
    """The fiber product Q[x] x_(Q[x]/x^(2m+1)) Q[x] with the swap-and-flip
    action (p, q) -> (s(q), s(p)); its invariants match Q_m degree by degree
    and the matching is returned explicitly."""
    variables = ("x",)
    cut = 2 * m + 1
    line = truncated_line_layers(variables, max_degree + 1, max_degree)
    fp = fiber_product_basis(
        variables,
        line,
        line,
        truncated_line_layers(variables, cut, max_degree),
        lambda p: truncate_poly(p, cut),
        lambda p: truncate_poly(p, cut),
        max_degree,
    )
    group = parse_group("A1")
    s = group.reflection(group.hyperplanes[0])
    q_m = quasi_basis(group, Multiplicity.constant(group, m), max_degree)
    inv_dims = []
    iso_pairs = []
    for d, layer in enumerate(fp.layers):
        # sigma - 1 on the pairs, (p, q) -> (s(q) - p, s(p) - q), one row per
        # side and monomial
        rows: dict = {}
        for col, (a, b) in enumerate(layer):
            for side, diff in enumerate((group.act(s, b) - a, group.act(s, a) - b)):
                for e, c in diff.terms.items():
                    rows.setdefault((side, e), SparseRow())[col] = c
        kernel = nullspace(list(rows.values()), len(layer))
        inv_dims.append(len(kernel))
        iso_pairs += [(d, *(_combination(vec, side, variables) for side in zip(*layer)))
                      for vec in kernel]
    matches = inv_dims == q_m.dims()
    return {
        "fiber_dims": fp.dims(),
        "invariant_dims": inv_dims,
        "quasi_dims": q_m.dims(),
        "matches_quasi_invariants": matches,
        "invariant_pairs": iso_pairs,
        "fiber_product": fp,
    }


# -- the first-step algebra in any rank -----------------------------------------------


def x1_layers(group: ReflectionGroup, max_degree: int) -> GradedBasis:
    """Degreewise basis of Q + <positive-degree invariants>: the constant in
    degree 0, and above it the reduced echelon rows of the products f x^e of
    the fundamental invariants f (as `_primitive` term lists) and monomials
    x^e, formed by `multiply_terms`.  The dims are their ranks, counted up
    front by forward elimination; a layer spans its degree again when read."""
    variables = group.variables
    fund = [(int(f.degree()), _primitive(f)) for f in group.fundamental_invariants]

    def span(d: int) -> IncrementalSpan:
        index = monomial_index(variables, d)
        return span_of((multiply_terms([(e, _ONE)], f, index)
                        for fd, f in fund if fd <= d
                        for e in monomial_index(variables, d - fd)), len(index))

    def layer(d: int) -> list:
        exps = list(monomial_index(variables, d))
        return [Polynomial(variables, {exps[j]: c for j, c in row.items()})
                for row in (span(d).rref()[0] if d else [{0: _ONE}])]
    dims = [1] + [span(d).dim() for d in range(1, max_degree + 1)]
    return GradedBasis(group, None, max_degree, layer, dims)


def x1_algebra(group: ReflectionGroup, max_degree: int):
    """The graded algebra Q + <positive-degree invariants> together with its
    module certificate over the invariant ring.  In rank one it equals Q_1;
    in higher rank the certificate comes back not-free."""
    basis = x1_layers(group, max_degree)
    cert = module_certificate(group, basis)
    return basis, cert


def coinvariant_dimension(basis: GradedBasis) -> int:
    """Total dimension of Q[V] / <positive-degree invariants> through the
    bound of `basis`, an `x1_layers` basis, read off its dims with no layer
    built; equals |W| once the bound passes the top coinvariant degree."""
    rank = basis.group.rank  # the constant is in dims()[0], outside the ideal
    return comb(basis.max_degree + rank, rank) - sum(basis.dims()) + 1


# -- presentations and fake cohomology --------------------------------------------------


def presentation_check(m: int, max_degree: int) -> dict:
    """Compare Q[u, v]/(u^2 - v^(2m+1)) with Q_m under u -> x^(2m+1),
    v -> x^2 (cohomological degrees are twice these x-degrees).

    Checks that the quotient's graded dimensions match Q_m and that the
    kernel of the naive evaluation is exactly the principal ideal, degreewise
    through the bound.
    """
    group = parse_group("A1")
    dims = quasi_basis(group, Multiplicity.constant(group, m), max_degree).dims()
    wu, wv = 2 * m + 1, 2
    dims_ok = True
    kernel_ok = True
    for d in range(max_degree + 1):
        monos = [(a, b) for a in range(d // wu + 1) for b in range(d // wv + 1)
                 if a * wu + b * wv == d]
        normal = [(a, b) for a, b in monos if a <= 1]
        if len(normal) != dims[d]:
            dims_ok = False
        # kernel of the naive map: all monomials hit x^d, so it is the
        # difference lattice; it must match the principal ideal in dimension
        # and reduce to zero in the normal form u^2 -> v^(2m+1)
        count = len(monos)
        ideal_count = len(
            [
                (a, b)
                for a in range((d - 2 * wu) // wu + 1)
                for b in range((d - 2 * wu) // wv + 1)
                if a * wu + b * wv == d - 2 * wu
            ]
        ) if d >= 2 * wu else 0
        kernel_dim = max(0, count - 1) if count else 0
        if kernel_dim != ideal_count and count:
            kernel_ok = False
        # normal-form reduction of the canonical kernel generators
        for i in range(1, count):
            diff = {monos[0]: Fraction(1), monos[i]: Fraction(-1)}
            reduced: dict = {}
            for (a, b), c in diff.items():
                key = (a % 2, b + (a // 2) * (2 * m + 1))
                reduced[key] = reduced.get(key, Fraction(0)) + c
            if any(reduced.values()):
                kernel_ok = False
    return {
        "dims_match": dims_ok,
        "kernel_is_principal_ideal": kernel_ok,
        "ok": dims_ok and kernel_ok,
    }


def fake_cohomology_ring(n_b: int, m: int, max_degree: int) -> dict:
    """The subring Q + N x^2 Q'_(m-1) (recursively, Q'_0 = Q[x]) as a graded
    lattice: over Q it coincides with Q_m; over Z the degree-d lattice is
    N^min(m, d//2) Z x^d on the degrees present."""
    if n_b < 1:
        raise DomainError("the invariant N_B is a positive integer")
    group = parse_group("A1")
    q_m = quasi_basis(group, Multiplicity.constant(group, m), max_degree)
    layers = []
    lattice = []
    for d in range(max_degree + 1):
        if d % 2 == 0:
            j = d // 2
            coef = n_b ** min(m, j)
            layers.append(1)
            lattice.append(coef)
        elif d >= 2 * m + 1:
            layers.append(1)
            lattice.append(n_b**m)
        else:
            layers.append(0)
            lattice.append(0)
    equal = layers == q_m.dims()
    return {
        "dims": layers,
        "lattice_coefficients": lattice,
        "equals_quasi_invariants_over_Q": equal,
        "quasi_dims": q_m.dims(),
    }
