"""Quasi-invariant algebras Q_m(W) computed degreewise from the defining
congruences.

A polynomial p is quasi-invariant of multiplicity m when, for every
reflection hyperplane H with stabilizer of order 2, the difference
s_H(p) - p is divisible by alpha_H^(2 m_H); for hyperplanes with cyclic
stabilizer of order n_H > 2 the conditions read
e_(H,-i)(p) = 0 mod alpha_H^(n_H m_(H,i)) for i = 1 .. n_H - 1, where
e_(H,j) = (1/n_H) sum_w det(w)^(-j) w, summed over the stabilizer, is the
projection onto a character.  Conditions are imposed for all hyperplanes, not
orbit representatives: a single solution need not be W-symmetric, only the
solution span is.

The conditions are linear in the coefficients of p and are written down
monomial by monomial in eigen-coordinates of each hyperplane, with no group
algebra element formed: a hyperplane x_k = 0 deletes the monomials that the
residue of their x_k-exponent rules out, and a hyperplane x_k = r x_l gives
rows of integer binomial sums times a root of unity.  `quasi_basis` solves
these rows and `_satisfies` evaluates them; every membership question about
Q_m (`is_quasi_invariant`, `closure_report`, `filtration_check`, the tower's
certification) goes through the rows, so membership and bases cannot
disagree.  On a diagonal-character block the root is one per row up
to sign (`_solve_layer`), so solves and freeness spans run on integer rows.
Without swap rows (A1^n, Z/l and their products) the kernel is spanned by
the surviving monomials: `quasi_basis` counts them and solves a layer when read.

For groups with stabilizers of order > 2 the solution space need not be
closed under multiplication; closure is reported when checked, never assumed.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import comb, prod

from quasinv.errors import DomainError
from quasinv.fields import Cyclotomic, rational_value
from quasinv.groups import Multiplicity, ReflectionGroup
from quasinv.hilbert import HilbertSeries, gorenstein_shift, hilbert_from_basis
from quasinv.linalg import IncrementalSpan, SparseRow, normalize_row, nullspace
from quasinv.poly import Polynomial, linear_coefficients, monomial_index, multiply_terms

__all__ = [
    "GradedBasis",
    "FreenessCertificate",
    "CWValuedElement",
    "is_quasi_invariant",
    "closure_report",
    "quasi_basis",
    "hilbert",
    "freeness_certificate",
    "module_certificate",
    "gorenstein_shift",
    "cw_valued_basis",
    "filtration_check",
    "invariant_ring_dims",
]

_ONE = Fraction(1)


class GradedBasis:
    """Degreewise bases of a graded subspace of the polynomial ring: the layers,
    or a function d -> layer with their `dims`, each layer built on first read.
    It holds no spans: membership in Q_m is decided by its congruences."""

    def __init__(self, group: ReflectionGroup, multiplicity, max_degree: int, layers, dims=None):
        self.group = group
        self.multiplicity = multiplicity
        self.max_degree = max_degree
        self._build = layers if dims else None
        self._layers = [None] * (max_degree + 1) if dims else list(layers)
        self._dims = dims or [len(layer) for layer in layers]

    def layer(self, d: int) -> list:
        """The degree-d layer, a list of Polynomial, built on first read."""
        if self._layers[d] is None:
            self._layers[d] = self._build(d)
        return self._layers[d]

    @property
    def layers(self) -> list:
        return [self.layer(d) for d in range(len(self._layers))]

    def dims(self):
        return list(self._dims)


class FreenessCertificate:
    """Outcome of the free-module test over the invariant ring."""

    def __init__(self, group, generators, status, hilbert_series, shift, predicted_shift,
                 failure_degree=None):
        self.group = group
        self.generators = generators  # list of (degree, Polynomial)
        self.status = status  # "free" | "not-free" | "inconclusive"
        self.rank = len(generators)
        self.hilbert = hilbert_series
        self.gorenstein_shift = shift  # None when numerator not palindromic
        self.predicted_shift = predicted_shift  # dim V - 2 sum m_alpha, Coxeter only
        self.failure_degree = failure_degree

    def generator_degrees(self):
        return [d for d, _ in self.generators]

    def __repr__(self):
        return (
            f"<FreenessCertificate {self.status}: rank {self.rank}, "
            f"H = {self.hilbert}, shift {self.gorenstein_shift}>"
        )


# -- the defining congruences, row by row ---------------------------------------------


def _hyperplane_conditions(group: ReflectionGroup, mult: Multiplicity):
    """The congruences of every hyperplane in its eigen-coordinates, as a
    pair (deletions, swaps).

    Every group here is monomial, so each hyperplane is alpha = x_k or
    alpha = x_k - r x_l.

    For alpha = x_k the stabilizer is diagonal: w scales x_k by det w and
    maps x^e to det(w)^(-e_k) x^e.  By the orthogonality of the determinant
    characters the projection e_(-i) keeps x^e when e_k = i mod n_H and
    kills it otherwise, and the reflection minus 1 kills x^e exactly when
    e_k is even.  So the conditions only delete monomials: x^e goes when
    e_k < need[e_k mod n_H], with need[0] = 0, need[1] = 2 m for n_H = 2
    and need[i] = n_H m_i otherwise.  A deletion is (k, n_H, need).

    For alpha = x_k - r x_l the stabilizer is {1, s}, with s fixing
    beta = x_k + r x_l and every other variable and sending alpha to
    -alpha.  So s(p) - p is divisible by alpha^(2m) exactly when the
    coefficients of the odd powers alpha^t, t < 2m, of p vanish.  A swap is
    (k, l, root index of r, 2m)."""
    root_index = {r: j for j, r in enumerate(group.roots)}
    deletions, swaps = [], []
    for h in group.hyperplanes:
        m_h, n_h = mult.of(h), h.stabilizer_order
        need = (0, 2 * m_h) if n_h == 2 else (0, *(n_h * m for m in m_h))
        if not any(need):
            continue
        coeffs = linear_coefficients(h.alpha)
        moved = [i for i, c in enumerate(coeffs) if c]
        if len(moved) == 1:
            deletions.append((moved[0], n_h, need))
        else:
            k, l = moved
            swaps.append((k, l, root_index[-coeffs[l]], need[1]))
    return deletions, swaps


@lru_cache(maxsize=4096)
def _odd_alpha_coefficients(a: int, b: int, top: int):
    """(t, c) for the odd t < top with c != 0 the coefficient of
    alpha^t beta^(a+b-t) in (alpha + beta)^a (beta - alpha)^b."""
    out = []
    for t in range(1, min(top, a + b + 1), 2):
        c = sum(comb(a, i) * comb(b, t - i) * (-1) ** (t - i)
                for i in range(max(0, t - b), min(a, t) + 1))
        if c:
            out.append((t, c))
    return tuple(out)


def _survives(n_h: int, need, a: int) -> bool:
    """Whether a deletion (k, n_H, need) of `_hyperplane_conditions` keeps e_k = a."""
    return a >= need[a % n_h]


def _constraint_entries(group: ReflectionGroup, conditions, e):
    """The entries of column x^e in the constraint rows, as (row key, root
    index u, integer c) triples for the entry roots[u] * c, or None when a
    condition deletes x^e.

    With x_k = (alpha + beta)/2 and x_l = (beta - alpha)/(2r), x^e is
    2^(-d) r^(-e_l) (alpha + beta)^(e_k) (beta - alpha)^(e_l) times the
    other variables; the factor 2^(-d) is common to a whole row of degree
    d and is dropped.  A row key is the swap's index and the exponent in
    the eigen-coordinates: alpha^t in slot k, beta in slot l, the rest
    unchanged, so rows of different degrees never share a key."""
    deletions, swaps = conditions
    for k, n_h, need in deletions:
        if not _survives(n_h, need, e[k]):
            return None
    n = len(group.roots)
    out = []
    for si, (k, l, j, top) in enumerate(swaps):
        a, b = e[k], e[l]
        coefficients = _odd_alpha_coefficients(a, b, top)
        if coefficients:
            u = -j * b % n
            for t, c in coefficients:
                f = list(e)
                f[k], f[l] = t, a + b - t
                out.append(((si, tuple(f)), u, c))
    return out


def is_quasi_invariant(group: ReflectionGroup, mult: Multiplicity, p: Polynomial) -> bool:
    """Test the defining congruences of every hyperplane on p, with the
    constraint rows that `quasi_basis` solves."""
    if not mult.is_integer():
        raise DomainError(
            "half-integer multiplicities define a module, not a subalgebra; "
            "use cw_valued_basis"
        )
    _check_ring(group, p)
    return _satisfies(group, _hyperplane_conditions(group, mult), p)


def _satisfies(group: ReflectionGroup, conditions, p: Polynomial) -> bool:
    """Whether p meets `conditions` (`_hyperplane_conditions`): no term
    deleted, and every constraint row sums to zero on p's coefficients."""
    sums: dict = {}
    for e, c in p.terms.items():
        entries = _constraint_entries(group, conditions, e)
        if entries is None:
            return False
        for key, u, v in entries:
            sums[key] = sums.get(key, 0) + c * (group.roots[u] * v)
    return not any(sums.values())


def closure_report(basis: GradedBasis, max_pairs: int = 40):
    """Spot-check that products of elements of a `quasi_basis` satisfy its
    congruences.

    Only the first two elements of each layer enter, and at most
    `max_pairs` products, so passing proves nothing: "closed" is False
    with the witness degrees when a product fails the congruences, and None
    with "sampled" set otherwise."""
    conditions = _hyperplane_conditions(basis.group, basis.multiplicity)
    top = basis.max_degree
    pairs = (
        (a, b, pa * pb)
        for a in range(1, top + 1)
        for b in range(a, top + 1 - a)
        for pa in basis.layer(a)[:2]
        for pb in basis.layer(b)[:2]
    )
    checked = 0
    for a, b, product in islice(pairs, max_pairs):
        checked += 1
        if not _satisfies(basis.group, conditions, product):
            return {"closed": False, "pairs_checked": checked, "witness_degrees": (a, b)}
    return {"closed": None, "sampled": True, "pairs_checked": checked}


def _check_ring(group: ReflectionGroup, p: Polynomial) -> None:
    """Refuse p outside the group's coordinate ring, or with a coefficient in
    a cyclotomic field other than the group's (over Q, any is accepted)."""
    if p.vars != group.variables:
        raise ValueError("polynomial not in the group's coordinate ring")
    for c in p.terms.values():
        if c.__class__ is Cyclotomic and group.field not in ("Q", ("zeta", c.n)):
            raise ValueError(f"mixed coefficient fields: Q(zeta_{c.n}) vs Q(zeta_{group.field[1]})")


# -- degreewise solution spaces ----------------------------------------------------


def quasi_basis(group: ReflectionGroup, mult: Multiplicity, max_degree: int) -> GradedBasis:
    """Solve the congruence conditions degree by degree.

    In each degree the conditions of `_hyperplane_conditions` delete the
    monomials that a coordinate hyperplane rules out and give, for each
    hyperplane x_k - r x_l, one row per odd power of alpha below 2m and
    exponent in its eigen-coordinates; the entries are integer binomial
    sums times a root of unity (`_constraint_entries`).  The kernel of
    those rows on the surviving monomials is the quasi-invariant layer.
    `nullspace` returns the canonical reduced basis of the kernel, so any
    matrix with the same kernel gives the same layer.

    The solution span is W-stable, hence stable under the diagonal subgroup,
    so the kernel splits along the diagonal characters of the monomials and
    each block is solved separately (blocked and unblocked solves agree; the
    regression suite compares them and checks an independent brute force).
    The layer is returned sorted by leading exponent in graded-lex order.

    Without hyperplanes x_k - r x_l (A1^n, Z/l and their products) there
    are no rows, so a layer is its surviving monomials and its dimension
    their count.  Each deletion tests one exponent (`_survives`), so the
    dims are the convolution over k of the 0/1 sequences "x_k^a survives":
    they are counted so, and a layer is solved on first read.  With swap
    rows (I2(k)) every layer is solved up front.
    """
    if not mult.is_integer():
        raise DomainError("quasi_basis needs integer multiplicities")
    conditions = deletions, swaps = _hyperplane_conditions(group, mult)

    def layer(d: int) -> list:
        monos = list(monomial_index(group.variables, d))
        blocks = group.monomial_blocks(monos) if swaps else [range(len(monos))]
        return _solve_layer(group, conditions, monos, blocks)
    if swaps:
        return GradedBasis(group, mult, max_degree, [layer(d) for d in range(max_degree + 1)])
    dims = [1] + [0] * max_degree  # through k = 0: the monomials of no variable
    for k in range(group.rank):
        kept = [a for a in range(max_degree + 1)
                if all(_survives(n_h, need, a) for j, n_h, need in deletions if j == k)]
        dims = [sum(dims[d - a] for a in kept if a <= d) for d in range(max_degree + 1)]
    return GradedBasis(group, mult, max_degree, layer, dims)


def _solve_layer(group: ReflectionGroup, conditions, monos, blocks):
    """Kernel of the degree-d constraint rows, solved on each block of
    columns separately, as polynomials sorted by leading exponent.

    Each row is divided by the root of its first entry, which leaves
    integers up to sign.  Only I2(k) has swap rows, and its root table is
    that of Q(zeta_2k), N = 2k entries, where the swap's root r = zeta_k^j
    has the even index 2j.  A row of x_k - r x_l fixes e_k + e_l and a
    block fixes e_k - e_l mod k, so two columns of a row differ by b in
    e_l with 2b = 0 mod k, and their indices u = -2j e_l mod 2k differ by
    2jb, which is 0 or k = N/2 mod 2k.  Any other offset raises an
    ArithmeticError.  Repeated rows (an I2(k) orbit gives one per
    hyperplane) are dropped while integers; the rest take the group's
    coefficient type, roots[0] * c.  The row space, hence the kernel, is
    unchanged."""
    roots = group.roots
    n, layer = len(roots), []
    for block in blocks:
        kept, rows, first = [], {}, {}
        for col in block:
            entries = _constraint_entries(group, conditions, monos[col])
            if entries is not None:
                for key, u, c in entries:
                    u = (u - first.setdefault(key, u)) % n
                    if 2 * u % n:
                        raise ArithmeticError("a constraint row is not rational up to sign")
                    rows.setdefault(key, []).append((len(kept), -c if u else c))
                kept.append(monos[col])
        if rows:
            matrix = [SparseRow((i, roots[0] * c) for i, c in row)
                      for row in dict.fromkeys(tuple(rows[key]) for key in sorted(rows))]
            kernel = [{kept[i]: c for i, c in enumerate(vec) if c}
                      for vec in nullspace(matrix, len(kept))]
        else:
            kernel = [{e: _ONE} for e in kept]
        for terms in kernel:  # already clean: no Polynomial.__init__ pass
            p = Polynomial(group.variables)
            p.terms = terms
            layer.append(p)
    layer.sort(key=lambda p: min(p.terms))
    return layer


def hilbert(group: ReflectionGroup, mult: Multiplicity, max_degree: int) -> HilbertSeries:
    return hilbert_from_basis(quasi_basis(group, mult, max_degree).dims(), group.invariant_degrees)


def invariant_ring_dims(group: ReflectionGroup, through: int):
    """Graded dimensions of the invariant ring from its degrees."""
    series = HilbertSeries([1], group.invariant_degrees, verified_through=through)
    return series.dims(through)


# -- freeness over the invariant ring ------------------------------------------------


def module_certificate(group: ReflectionGroup, basis: GradedBasis,
                       predicted_shift=None) -> FreenessCertificate:
    """Greedy minimal generators of a graded module over the invariant ring,
    with the free-module dimension count as the freeness test.

    The basis must be closed under multiplication by invariants (Q_m and
    `x1_layers` are).  Degree by degree, the generators extend a basis of
    S_d = sum_i f_i L_(d - deg f_i) to one of the layer L_d, in the layer's
    echelon order.  By induction S_d is spanned by the products f^J g of
    positive-degree invariant monomials f^J with lower-degree generators g
    (the f^J span the invariants: Chevalley-Shephard-Todd), so only those
    products enter, and the picks depend only on S_d.  If the free module
    on the generators found so far ever outgrows the actual dimensions, a
    relation exists and the module is not free.

    Once the generators number |W| they are proved independent over the
    invariant ring R, once (`_independent`).  Then S_d has dimension
    sum_i dim R_(d - deg g_i), and in every later degree where that sum is
    dim L_d, S_d is L_d by the closure precondition: the degree holds no
    generator and no relation, and it is certified without a span.  Every
    other degree, and every degree when the proof fails, is spanned.

    A spanned degree has one span over its monomials.  A layer vector
    enters it as a sparse row read off its terms, and f^J g as the integer
    row that `multiply_terms` forms from the term lists of f^J and g, each
    scaled once to coprime integers (`_primitive`), with no product
    polynomial; products stop once the span has the layer's dimension, and
    the generators reported are the layer's own.
    """
    D = basis.max_degree
    dims = basis.dims()
    inv_dims = invariant_ring_dims(group, D)
    inv_monomials = _invariant_monomials(group.fundamental_invariants)
    generators = []
    generator_terms = []  # (degree, term list) per generator
    independent = None  # the proof, taken once the generators number |W|
    status = None
    failure_degree = None
    for d in range(D + 1):
        if independent and len(generators) == group.order and \
                sum(inv_dims[d - gd] for gd, _ in generators) == dims[d]:
            continue
        index = monomial_index(group.variables, d)
        span = IncrementalSpan()
        for gd, g in generator_terms:
            for fj in inv_monomials(d - gd):
                if span.dim() >= dims[d]:
                    break
                span.add(multiply_terms(fj, g, index))
        for p in basis.layer(d):
            if span.dim() < dims[d] and span.add(_row(p, index)):
                generators.append((d, p))
                generator_terms.append((d, _primitive(p)))
        free_dim = sum(inv_dims[d - gd] for gd, _ in generators)
        if free_dim != dims[d]:
            status = "not-free"
            failure_degree = d
            break
        if independent is None and len(generators) == group.order:
            independent = _independent(group, [g for _, g in generators])
    series = hilbert_from_basis(dims, group.invariant_degrees)
    shift = gorenstein_shift(series, group.rank)
    if status is None:
        status = "free" if len(generators) == group.order else "inconclusive"
    return FreenessCertificate(
        group, generators, status, series, shift, predicted_shift, failure_degree
    )


def _independent(group: ReflectionGroup, generators) -> bool:
    """Whether det(w(g_i)) over the elements w and |W| polynomials g_i is
    nonzero at x0 = (2, 3, ...), which proves the g_i independent over the
    invariant ring: a relation sum a_i g_i = 0 gives sum a_i w(g_i) = 0.

    Each g_i lies in one character chi_i of the diagonal subgroup T, so
    w(g_i) = chi_i(t) s(g_i) for w = s t with t in T, and a Fourier
    transform over T splits the determinant into one block per character:
    (s(g_i)(x0)) over its g_i and one element s per permutation pattern
    (1 x 1 for A1^n, Z/l and their products, 2 x 2 for I2(k)).  It is
    nonzero exactly when each of the |T| characters holds |W/T| of the g_i
    and every block is nonsingular.  A g_i across two characters gives no
    proof: False."""
    reps = {}  # permutation pattern -> its first element
    for i, m in enumerate(group.elements):
        reps.setdefault(tuple(tuple(map(bool, row)) for row in m), i)
    x0 = range(2, group.rank + 2)
    spans: dict = {}  # character -> span of the rows (w(g_i)(x0))_w
    for g in generators:
        keys = {group.monomial_class_key(e) for e in g.terms}
        if len(keys) != 1:
            return False
        row = [sum(c * prod(map(pow, x0, e)) for e, c in group.act(i, g).terms.items())
               for i in reps.values()]
        if not spans.setdefault(keys.pop(), IncrementalSpan()).add(row):
            return False
    return len(spans) * len(reps) == group.order and \
        all(span.dim() == len(reps) for span in spans.values())


def _row(p: Polynomial, columns) -> SparseRow:
    """The coefficient values of p as a sparse row, x^e in column
    columns[e]; a coefficient in Q enters as its int or Fraction."""
    return SparseRow((columns[e], rational_value(c)) for e, c in p.terms.items())


def _primitive(p: Polynomial) -> list:
    """The term list of p scaled by `normalize_row`, to coprime integers
    over Q; a scaled vector spans the same line."""
    v = dict(p.terms)
    normalize_row(v, min(v))
    return list(v.items())


def _invariant_monomials(fund):
    """The function k -> term lists of the products f^J of the fundamental
    invariants (each scaled once by `_primitive`) of degree k >= 1, built
    degree by degree on first use, so a certificate forms only the degrees
    it spans; each is one product f^J' * f_i with i no smaller than the
    factor indices of J'."""
    terms = [_primitive(f) for f in fund]
    degrees = [int(f.degree()) for f in fund]
    table = [[[((0,) * len(fund[0].vars), 1)]]]  # term lists per degree, 1 in degree 0
    last = [[0]]  # the last factor index of each

    def of_degree(k: int) -> list:
        for d in range(len(table), k + 1):
            pairs = [(list(multiply_terms(t, terms[i]).items()), i)
                     for i, fd in enumerate(degrees) if fd <= d
                     for t, j in zip(table[d - fd], last[d - fd]) if j <= i]
            table.append([t for t, _ in pairs])
            last.append([i for _, i in pairs])
        return table[k]
    return of_degree


def freeness_certificate(group: ReflectionGroup, mult: Multiplicity,
                         max_degree: int) -> FreenessCertificate:
    basis = quasi_basis(group, mult, max_degree)
    predicted = None
    if group.is_coxeter() and mult.is_integer():
        predicted = group.rank - 2 * mult.coxeter_total()
    return module_certificate(group, basis, predicted_shift=predicted)


# -- group-algebra-valued quasi-invariants in rank one --------------------------------


class CWValuedElement:
    """p * e0 + q * e1 with one-variable polynomial coefficients, where
    e0 = (1+s)/2 and e1 = (1-s)/2 in the rank-one group algebra."""

    VARS = ("x",)

    def __init__(self, p: Polynomial, q: Polynomial):
        self.p = p
        self.q = q

    @staticmethod
    def from_pair(p_coeffs: dict, q_coeffs: dict) -> "CWValuedElement":
        p = Polynomial(CWValuedElement.VARS, {(k,): c for k, c in p_coeffs.items()})
        q = Polynomial(CWValuedElement.VARS, {(k,): c for k, c in q_coeffs.items()})
        return CWValuedElement(p, q)

    def __add__(self, other):
        return CWValuedElement(self.p + other.p, self.q + other.q)

    def __eq__(self, other):
        if not isinstance(other, CWValuedElement):
            return NotImplemented
        return self.p == other.p and self.q == other.q

    def __repr__(self):
        return f"({self.p})*e0 + ({self.q})*e1"


def cw_valued_basis(k, max_degree: int):
    """Degreewise basis of Q[x] e0 + Q[x] x^(2k) e1 for half-integer k >= 0.

    Layer d holds x^d e0 always and x^d e1 exactly when d >= 2k; for integer
    k = m the e0-projection reproduces the graded dimensions of Q_m.
    """
    k = Fraction(k)
    if k < 0 or (2 * k).denominator != 1:
        raise DomainError("multiplicity must be a non-negative half-integer")
    threshold = int(2 * k)
    layers = []
    for d in range(max_degree + 1):
        layer = [CWValuedElement.from_pair({d: 1}, {})]
        if d >= threshold:
            layer.append(CWValuedElement.from_pair({}, {d: 1}))
        layers.append(layer)
    return layers


# -- filtration ------------------------------------------------------------------------


def filtration_check(group: ReflectionGroup, mult_low: Multiplicity,
                     mult_high: Multiplicity, max_degree: int) -> dict:
    """Verify Q_(m') <= Q_m degreewise for m <= m', with codimensions and a
    witness for strictness, and check that intersecting over all
    multiplicities of total weight <= D cuts the filtration down to the
    invariants through degree D.

    Q_m is the kernel of its constraint rows, and the rows of a hyperplane
    only grow with its multiplicity (the odd alpha-powers below 2m, the
    deletions e_k < need).  An intersection of kernels is the kernel of all
    their rows, so the intersection over every m of total weight <= D is
    the one Q_m at the componentwise maximum, m_o = D // |orbit o|."""
    if not mult_low.componentwise_le(mult_high):
        raise DomainError("need componentwise m <= m'")
    low = quasi_basis(group, mult_low, max_degree)
    high = quasi_basis(group, mult_high, max_degree)
    codims = [a - b for a, b in zip(low.dims(), high.dims())]
    rows_low = _hyperplane_conditions(group, mult_low)
    included = all(_satisfies(group, rows_low, p) for layer in high.layers for p in layer)
    rows_high = _hyperplane_conditions(group, mult_high)
    # the first element of Q_m outside Q_(m') in the first degree of positive codim
    witness = next((p for d, c in enumerate(codims) if c > 0
                    for p in low.layer(d) if not _satisfies(group, rows_high, p)), None)
    inv_dims = invariant_ring_dims(group, max_degree)
    inter_dims = _intersection_dims(group, max_degree)
    return {
        "included": included,
        "codims": codims,
        "strict_witness": witness,
        "intersection_equals_invariants": inter_dims == inv_dims,
        "intersection_dims": inter_dims,
        "invariant_dims": inv_dims,
    }


def _intersection_dims(group: ReflectionGroup, D: int):
    """Graded dimensions of the intersection of all Q_m with total weight
    sum over hyperplanes of m_alpha at most D: the Q_m at the componentwise
    maximum m_o = D // |orbit o| (see `filtration_check`)."""
    orbit_sizes = Counter(h.orbit_id for h in group.hyperplanes)
    orbit_nh = {h.orbit_id: h.stabilizer_order for h in group.hyperplanes}
    values = {o: D // size if orbit_nh[o] == 2 else (D // size,) * (orbit_nh[o] - 1)
              for o, size in orbit_sizes.items()}
    return quasi_basis(group, Multiplicity(group, values), D).dims()
