"""Quasi-invariant algebras Q_m(W) computed degreewise from the defining
congruences.

A polynomial p is quasi-invariant of multiplicity m when, for every
reflection hyperplane H with stabilizer of order 2, the difference
s_H(p) - p is divisible by alpha_H^(2 m_H); for hyperplanes with cyclic
stabilizer of order n_H > 2 the conditions read
e_(H,-i)(p) = 0 mod alpha_H^(n_H m_(H,i)) for i = 1 .. n_H - 1, where
e_(H,j) = (1/n_H) sum_w det(w)^(-j) w, summed over the stabilizer, is the
projection onto a character.  Membership imposes the conditions of all
hyperplanes, not orbit representatives: a single solution need not be
W-symmetric, only the solution span is.  A solve keeps one hyperplane per
orbit of the diagonal subgroup, which holds block by block (`quasi_basis`).

The conditions are linear in the coefficients of p and are written down
monomial by monomial in eigen-coordinates of each hyperplane, with no group
algebra element formed: a hyperplane x_k = 0 deletes the monomials that the
residue of their x_k-exponent rules out, and a hyperplane x_k = r x_l gives
rows of integer binomial sums times a root of unity.  `quasi_basis` solves
these rows and `_satisfies` evaluates them; every membership question about
Q_m (`is_quasi_invariant`, `closure_report`, the strictness witness of
`filtration_check`, the tower's certification) goes through the rows, so
membership and bases cannot disagree.  Inclusion between two Q_m is read
off their conditions, hyperplane by hyperplane (`filtration_check`).

Without swap rows (A1^n, Z/l and their products) the kernel is spanned by
the surviving monomials: `quasi_basis` counts them from the exponents that
survive in each coordinate and lists a layer when read.  With swap rows
(I2(k)) a block of degree d and diagonal character chi holds the monomials
z1^a z2^b of level l = |a - b| <= d in one chain (chi, d mod 2), since
u = z1 z2 is of trivial character.  The frame lemma: an invertible row
operation, a root of unity times the even unit (1 - alpha^2)^(-(d - p)/2)
mod alpha^(2m) with p = d mod 2, turns the column of z1^a z2^b into a fixed
integer column of its level alone, +-(1 - alpha^2)^(-(l - p)/2) (1 +- alpha)^l,
whatever d.  So the block (d, chi) is its chain's prefix of levels <= d, the
dims are one `nullspace` per pair of conjugate chains read off its free
columns, and a layer read solves each block over its chain's frame rows.

For groups with stabilizers of order > 2 the solution space need not be
closed under multiplication; closure is reported when checked, never assumed.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import compress, islice
from math import gcd, prod
from operator import add, getitem, le

from quasinv.errors import DomainError
from quasinv.fields import Cyclotomic, rational_value
from quasinv.groups import Multiplicity, ReflectionGroup
from quasinv.hilbert import HilbertSeries, gorenstein_shift, hilbert_from_basis
from quasinv.linalg import IncrementalSpan, SparseRow, normalize_row, nullspace
from quasinv.poly import Polynomial, linear_coefficients, monomial_index, multiply_terms


_ONE = Fraction(1)


class GradedBasis:
    """Degreewise bases of a graded subspace of the polynomial ring through
    `max_degree`: `build(d)` forms the degree-d layer on its first read, and
    `dims` holds the layer lengths up front; `layer` refuses a degree outside
    0..max_degree.  No spans: membership in Q_m is decided by congruences.

    A basis that splits by the character of the diagonal subgroup T passes
    `blocks(d)`, the dims of the degree-d blocks by character key, and its
    `build(d, key)` forms one block; any other basis is one block per
    degree, of key None."""

    def __init__(self, group: ReflectionGroup, multiplicity, max_degree: int, build, dims,
                 blocks=None):
        self.group = group
        self.multiplicity = multiplicity
        self.max_degree = max_degree
        self._build = build
        self._layers = [None] * (max_degree + 1)
        self._block_layers = {}  # (degree, key) -> the block's polynomials
        self._dims = dims
        self._blocks = blocks

    def layer(self, d: int, key=None) -> list:
        """The degree-d layer, or its block of character `key`, a list of
        Polynomial sorted by leading exponent, built on first read."""
        if not 0 <= d <= self.max_degree:
            raise ValueError(f"degree {d} outside 0..{self.max_degree}")
        if key is not None:
            if (d, key) not in self._block_layers:
                self._block_layers[d, key] = self._build(d, key)
            return self._block_layers[d, key]
        if self._layers[d] is None:
            self._layers[d] = self._build(d)
        return self._layers[d]

    def blocks(self, d: int) -> dict:
        """The dims of the degree-d layer's nonzero blocks by character key."""
        if self._blocks:
            return self._blocks(d)
        return {None: self._dims[d]} if self._dims[d] else {}

    @property
    def layers(self) -> list:
        return [self.layer(d) for d in range(self.max_degree + 1)]

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
    alpha^t beta^(a+b-t) in (alpha + beta)^a (beta - alpha)^b.

    These are the coefficients c_t of f = (1 + alpha)^a (1 - alpha)^b, and
    (1 - alpha^2) f' = ((a - b) - (a + b) alpha) f gives the recurrence
    t c_t = (a - b) c_(t-1) - (a + b - t + 2) c_(t-2), with c_(-1) = 0 and
    c_0 = 1, whose division is exact."""
    out, before, c = [], 0, 1  # c_(t-2), c_(t-1)
    for t in range(1, min(top, a + b + 1)):
        before, c = c, ((a - b) * c - (a + b - t + 2) * before) // t
        if t % 2 and c:
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
            "half-integer multiplicities define a module, not a subalgebra"
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

    The solution span is W-stable, hence stable under the diagonal subgroup
    T, so the kernel splits along the diagonal characters of the monomials and
    each block is solved separately (blocked and unblocked solves agree; the
    regression suite compares them and checks an independent brute force).
    On a block T acts by one scalar, so p meets the congruences of H exactly
    when it meets those of tH, t in T: the rows of H and tH span one space
    there, and one swap per T-orbit is solved.  T moves the root index j of
    x_k - r x_l by the character of x_k / x_l, so an orbit is the swaps of
    one (k, l, 2m) with j equal mod the gcd g of N and that character's
    values.  On I2(n) that leaves one swap for odd n and two for even n,
    not n.  Membership (`_satisfies`) keeps every swap, since its p need not
    lie in one block.
    The layer is returned sorted by leading exponent in graded-lex order.

    Without hyperplanes x_k - r x_l (A1^n, Z/l and their products) there
    are no rows, so a layer is its surviving monomials and its dimension
    their count.  Each deletion tests one exponent (`_survives`): the dims
    convolve the sets {a <= D : x_k^a survives} over k, and a layer read
    keeps the monomials whose every e_k lies in its set.  A degree's blocks
    group those monomials by character (`monomial_class_key`), in one scan
    on first use.

    With swap rows (I2(k)) the blocks are read off fixed frames.  A block
    of degree d and character chi holds the z1^a z2^b with a - b = delta,
    |delta| <= d, delta = d mod 2 and of character chi, since u = z1 z2 has
    the trivial character; its level is |delta|.  A chain is a character
    with a parity of d, and the block (d, chi) is exactly its chain's
    levels <= d.  With beta = 1 a column of a swap's rows reads
    r^(-b) (1 - alpha^2)^s (1 +- alpha)^l, s = min(a, b) and l its level.
    Multiplying all of the swap's rows by r^b0 and by the even unit
    (1 - alpha^2)^(-(d - p)/2) mod alpha^(2m), p the parity, keeps their
    kernel: odd(e f) = e odd(f) for an even e, a triangular row operation.
    It leaves the frame column +-(1 - alpha^2)^(-(l - p)/2) (1 +- alpha)^l,
    an integer series that depends on neither d nor the other columns
    (`_chain_rows`).  So the dims are one `nullspace` per chain, its
    columns in level order: the kernel of the first n columns is spanned
    by the reduced vectors whose free column is below n
    (`Kernel.free_columns`), so dims[d] counts the free columns of level
    <= d, over the chains of d's parity, and the block (d, chi) those of
    its chain.  Conjugate chains share one solve: the chain of chi-bar whose
    deltas are the negatives of chi's has, in `_chain_rows`, the offset
    u' = -u = u (u is 0 or N/2) and the sign flipped with delta, so its frame
    is -1 times chi's under delta -> -delta, with the same free columns; its
    own frame is built only when one of its blocks is read.  A read solves
    each block,
    its chain's prefix of levels <= d in monomial order (delta ascending),
    as a `nullspace` of the chain's rows, kept per chain and block size:
    the blocks of degrees d and d + 2 without a pure power share a kernel.
    The reduced basis is unique, so the layer is the solve of the block's
    own rows (the regression suite compares them).  A block read
    (`GradedBasis.layer(d, key)`) solves that chain alone.
    """
    if not mult.is_integer():
        raise DomainError("quasi_basis needs integer multiplicities")
    deletions, swaps = _hyperplane_conditions(group, mult)
    if not swaps:
        survives = [[all(_survives(n_h, need, a) for j, n_h, need in deletions if j == k)
                     for a in range(max_degree + 1)] for k in range(group.rank)]

        @lru_cache(maxsize=None)
        def block_monomials(d: int) -> dict:  # {character: surviving monomials}, on first use
            grouped = {}
            for e in monomial_index(group.variables, d):
                if all(map(getitem, survives, e)):
                    grouped.setdefault(group.monomial_class_key(e), []).append(e)
            return grouped

        def layer(d: int, key=None) -> list:
            kept = ([e for e in monomial_index(group.variables, d) if all(map(getitem, survives, e))]
                    if key is None else block_monomials(d)[key])
            return _layer(group.variables, [(kept, None)])
        dims = [1] + [0] * max_degree  # through k = 0: the monomials of no variable
        for keeps in survives:
            out = [0] * (max_degree + 1)
            for a in compress(range(max_degree + 1), keeps):
                out[a:] = map(add, out[a:], dims)  # out[d] += dims[d - a], d >= a
            dims = out
        return GradedBasis(group, mult, max_degree, layer, dims,
                           lambda d: {key: len(kept) for key, kept in block_monomials(d).items()})
    orbits = {}  # one swap per T-orbit: see above
    for k, l, j, top in swaps:
        ratio = [0] * group.rank
        ratio[k], ratio[l] = 1, -1
        g = gcd(len(group.roots), *group.monomial_class_key(ratio))
        orbits.setdefault((k, l, top, j % g), (k, l, j, top))
    swaps = list(orbits.values())
    series = _frame_series(max(top for *_, top in swaps), max_degree)
    chains = _chains(group, max_degree)

    @lru_cache(maxsize=None)
    def frame(chain) -> list:  # built on first use
        return _chain_rows(group, swaps, chains[chain], series)
    levels, by_deltas, dims = {}, {}, [0] * (max_degree + 1)
    for chain, deltas in chains.items():
        twin = by_deltas.get(tuple(-delta for delta in deltas))
        if twin is None:
            kernel = nullspace(_block_rows(frame(chain), deltas), len(deltas))
            levels[chain] = [abs(deltas[fc]) for fc in kernel.free_columns()]
        else:  # the conjugate of an earlier chain: its free columns (see above)
            levels[chain] = levels[twin]
        by_deltas[tuple(deltas)] = chain
        for level in levels[chain]:
            dims[level] += 1  # a kernel vector of every block of level >= level
    for d in range(2, max_degree + 1):
        dims[d] += dims[d - 2]
    solved = {}  # (chain, block size) -> Kernel

    def built(d: int, key=None) -> list:
        kernels = []
        for chain, deltas in chains.items():
            if chain[1] != d % 2 or abs(deltas[0]) > d or key not in (None, chain[0]):
                continue
            columns = sorted(delta for delta in deltas if abs(delta) <= d)  # monomial order
            at = chain, len(columns)
            if at not in solved:
                solved[at] = nullspace(_block_rows(frame(chain), columns), len(columns))
            kept = [((d + delta) // 2, (d - delta) // 2) for delta in columns]
            kernels.append((kept, solved[at]))
        return _layer(group.variables, kernels)

    def blocks(d: int) -> dict:
        counts = ((chain[0], bisect_right(free, d)) for chain, free in levels.items()
                  if chain[1] == d % 2)
        return {key: n for key, n in counts if n}
    return GradedBasis(group, mult, max_degree, built, dims, blocks)


def _chains(group: ReflectionGroup, max_degree: int) -> dict:
    """(character, parity) -> the deltas a - b of its frame columns in level
    order, each from the pure power z1^delta or z2^-delta; at one level,
    delta before -delta."""
    chains = {}
    for level in range(max_degree + 1):
        for delta in (level, -level) if level else (0,):
            pure = (delta, 0) if delta > 0 else (0, -delta)
            chains.setdefault((group.monomial_class_key(pure), level % 2), []).append(delta)
    return chains


def _frame_series(top: int, max_level: int) -> list:
    """Per level l <= max_level, the coefficients below alpha^top of
    g_l = (1 - alpha^2)^(-(l - p)/2) (1 + alpha)^l, p = l mod 2: g_0 = 1,
    g_1 = 1 + alpha and g_(l+2) = g_l (1 + alpha) / (1 - alpha), whose
    coefficients are h_t = h_(t-1) + g_t + g_(t-1)."""
    out = [[1] + [0] * (top - 1), [1, 1] + [0] * (top - 2)][:max_level + 1]
    for level in range(2, max_level + 1):
        g, h, before = out[level - 2], [], 0
        for t in range(top):
            before += g[t] + (g[t - 1] if t else 0)
            h.append(before)
        out.append(h)
    return out


def _chain_rows(group: ReflectionGroup, swaps, deltas, series) -> list:
    """The frame rows of a chain (`quasi_basis`), one per swap and odd t
    below its 2m, as {delta: entry} over the nonzero entries, each in the
    group's coefficient type, roots[0] * c: column delta holds c = +-the
    alpha^t coefficient of g_|delta| (`_frame_series`).  It is negated for
    delta < 0, whose pure power z2^|delta| reads (1 - alpha)^|delta|, odd
    in t, and negated again for a root offset N/2.

    Only I2(k) has swap rows, x_k - r x_l with (k, l) = (0, 1) and r the
    root of index j.  At degree d the column of z1^a z2^b carries
    r^(-b), b = (d - delta)/2, so relative to the chain's first column
    delta_0 it carries the root of index j (delta - delta_0)/2 mod N,
    whatever d.  A row of a chain fixes a - b mod k, so that index is 0 or
    N/2; any other offset raises an ArithmeticError."""
    one, n, rows = group.roots[0], len(group.roots), []
    for *_, j, top in swaps:
        signs = []
        for delta in deltas:
            u = j * ((delta - deltas[0]) // 2) % n
            if 2 * u % n:
                raise ArithmeticError("a constraint row is not rational up to sign")
            signs.append(-1 if (u != 0) != (delta < 0) else 1)
        for t in range(1, top, 2):
            row = {delta: one * (s * series[abs(delta)][t]) for delta, s in zip(deltas, signs)
                   if series[abs(delta)][t]}
            if row:
                rows.append(row)
    return rows


def _block_rows(frame, columns) -> list:
    """The distinct nonzero rows of a chain's frame (`_chain_rows`) over
    `columns`, a list of its deltas, as `SparseRow`s over their positions.
    Dropping repeated rows keeps the row space, hence the kernel."""
    rows = dict.fromkeys(tuple((i, row[delta]) for i, delta in enumerate(columns) if delta in row)
                         for row in frame)
    return [SparseRow(row) for row in rows if row]


def _layer(variables, kernels) -> list:
    """The polynomials of a degree's blocks, each a pair (kept monomials,
    kernel vectors over their positions, or None for the standard basis),
    sorted by leading exponent in graded-lex order."""
    layer = []
    for kept, vectors in kernels:
        for terms in ([{e: _ONE} for e in kept] if vectors is None else
                      ({kept[i]: c for i, c in vec.items()} for vec in vectors)):
            p = Polynomial(variables)  # already clean: no Polynomial.__init__ pass
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

    Each generator is proved independent of the earlier ones over the
    invariant ring R as it is found: its proof row (`_proof_row`) must
    enlarge the span of theirs.  The work is per block of a character chi
    of the diagonal subgroup T (`GradedBasis.blocks`): the fundamental
    invariants have the trivial T-character, so f^J g lies in the character
    of g, and L_d and S_d split by character.  While every proof row holds,
    S_(d,chi) has dimension s_chi, the sum of dim R_(d - deg g_i) over the
    generators g_i of character chi, whatever their number; where s_chi =
    dim L_(d,chi), S_(d,chi) is L_(d,chi) by the closure precondition, so
    the block holds no generator and no relation and is neither spanned nor
    read (a basis that forms its layers on first read never forms it), and
    a degree whose blocks all do is certified without a span.  A layer
    vector of chi reduces only against rows of chi, so the picks of the
    short blocks, merged in layer order, are those of one span of the whole
    degree.  Once a row adds nothing, every block is spanned.  A basis that
    does not split is one block per degree.

    A spanned block has one span over the degree's monomials.  A layer
    vector enters it as a sparse row read off its terms, and f^J g as the
    integer row that `multiply_terms` forms from the term lists of f^J and
    g, each scaled once to coprime integers (`_primitive`), with no product
    polynomial; products stop once the span has the block's dimension, and
    the generators reported are the layer's own.
    """
    D = basis.max_degree
    dims = basis.dims()
    inv_dims = invariant_ring_dims(group, D)
    inv_monomials = _invariant_monomials(group.fundamental_invariants)
    generators = []
    generator_terms = {}  # block key -> (degree, term list) per generator of that character
    proof = IncrementalSpan()  # the generators' proof rows; None once one adds nothing
    reps = {}  # permutation pattern -> its first element
    for i, (perm, _) in enumerate(group.forms):
        reps.setdefault(perm, i)
    status = None
    failure_degree = None
    for d in range(D + 1):
        if proof is not None and sum(inv_dims[d - gd] for gd, _ in generators) == dims[d]:
            continue
        index = monomial_index(group.variables, d)
        picks = []
        for key, dim in basis.blocks(d).items():
            terms = generator_terms.get(key, ())
            if proof is not None and sum(inv_dims[d - gd] for gd, _ in terms) == dim:
                continue
            span = IncrementalSpan()
            for gd, g in terms:
                for fj in inv_monomials(d - gd):
                    if span.dim() >= dim:
                        break
                    span.add(multiply_terms(fj, g, index))
            for p in basis.layer(d, key) if span.dim() < dim else ():
                if span.dim() < dim and span.add(_row(p, index)):
                    picks.append((min(p.terms), key, p))
        for _, key, p in sorted(picks, key=lambda pick: pick[0]):  # the layer's order
            generators.append((d, p))
            generator_terms.setdefault(key, []).append((d, _primitive(p)))
            if proof is not None and not proof.add(
                    _proof_row(group, reps.values(), generator_terms[key][-1][1])):
                proof = None
        free_dim = sum(inv_dims[d - gd] for gd, _ in generators)
        if free_dim != dims[d]:
            status = "not-free"
            failure_degree = d
            break
    series = hilbert_from_basis(dims, group.invariant_degrees)
    shift = gorenstein_shift(series, group.rank)
    if status is None:
        status = "free" if len(generators) == group.order else "inconclusive"
    return FreenessCertificate(
        group, generators, status, series, shift, predicted_shift, failure_degree
    )


def _proof_row(group: ReflectionGroup, reps, terms) -> SparseRow:
    """The independence proof row of the generator g with the term list
    `terms`: s(g_chi)(x0) at x0 = (2, 3, ...) in column (chi, s), for the
    part g_chi of g in each character chi of the diagonal subgroup T and
    each element s of `reps`, one per permutation pattern.

    A relation sum_i a_i g_i = 0 over the invariant ring, acted on by
    w = s t with t in T, gives sum_chi chi(t) sum_i a_i s(g_(i,chi)) = 0 for
    every t, so sum_i a_i s(g_(i,chi)) = 0 in every column.  Rows that are
    independent at x0 stay so on a dense open set, where every a_i must
    vanish: independent rows prove the g_i independent.

    s moves x^e to roots[j] x^f (`_moved`); the values c x0^f are summed per
    column and root index j and multiplied by roots[j] once per index.  The
    first element of each pattern has j = 0 on every term in every group
    that `groups` builds, so its entries of an integer term list are
    integers."""
    x0 = range(2, group.rank + 2)
    keys = [group.monomial_class_key(e) for e, _ in terms]
    sums = Counter()  # (character, element, root index) -> sum of c x0^f
    for s in reps:
        for (f, j), key, (_, c) in zip(group._moved(s, [e for e, _ in terms]), keys, terms):
            sums[key, s, j] += c * prod(map(pow, x0, f))
    row = Counter()
    for (key, s, j), value in sums.items():
        row[key, s] += group.roots[j] * value if j else value
    return SparseRow((column, value) for column, value in row.items() if value)


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
    """`module_certificate` of Q_m through `max_degree`, with a "free"
    verdict checked in every degree, past D.

    Its |W| generators g_i span a free module F = sum_i R g_i in Q_m over
    the invariant ring R.  Q_m is reflexive: C[V] is free over R, and the
    conditions that cut Q_m out of it are local at the primes (alpha_H).  So
    F = Q_m exactly when Q_m / F has no support in codimension one, that is
    when the Hilbert numerators of F and Q_m over prod_j (1 - t^d_j), both
    |W| at t = 1, have one derivative there.  For F it is sum_i deg g_i.
    For Q_m it is that of C[V], |W| N / 2 with N = sum_j (d_j - 1), plus |W|
    times the codimension-one multiplicity of C[V] / Q_m, sum_H l_H: near a
    generic point of H only the conditions of H act, and they remove l_H
    powers of alpha_H, the m_H odd powers alpha_H^(2i + 1) with i < m_H for a
    stabilizer of order 2, and the sum_i m_(H,i) powers alpha_H^(i + n_H k)
    with k < m_(H,i) for a cyclic one of order n_H.  A "free" certificate
    whose degree sum misses |W| (N / 2 + sum_H l_H) fails its self-check:
    ArithmeticError."""
    basis = quasi_basis(group, mult, max_degree)
    predicted = None
    if group.is_coxeter() and mult.is_integer():
        predicted = group.rank - 2 * mult.coxeter_total()
    cert = module_certificate(group, basis, predicted_shift=predicted)
    total, target = sum(cert.generator_degrees()), _free_degree_sum(group, mult)
    if cert.status == "free" and total != target:
        raise ArithmeticError(f"free generators of degree sum {total}, not "
                              f"|W| (N/2 + sum l_H) = {target}")
    return cert


def _free_degree_sum(group: ReflectionGroup, mult: Multiplicity) -> int:
    """|W| (N / 2 + sum_H l_H), the degree sum of a basis of Q_m over the
    invariant ring (`freeness_certificate`)."""
    lengths = sum(sum(mult.of(h)) if h.stabilizer_order > 2 else mult.of(h)
                  for h in group.hyperplanes)
    return group.order * (sum(group.invariant_degrees) - group.rank + 2 * lengths) // 2


# -- filtration ------------------------------------------------------------------------


def filtration_check(group: ReflectionGroup, mult_low: Multiplicity,
                     mult_high: Multiplicity, max_degree: int) -> dict:
    """Verify Q_(m') <= Q_m degreewise for m <= m', with codimensions and a
    witness for strictness, and check that intersecting over all
    multiplicities of total weight <= D cuts the filtration down to the
    invariants through degree D.

    Q_m is the kernel of its congruences, and the congruences of a
    hyperplane only grow with its multiplicity: a deletion's need entries
    (x^e goes when e_k < need) and a swap's odd alpha-powers below 2m.  So
    Q_(m') <= Q_m in every degree when each deletion of m has one of m' at
    the same coordinate with need >= it entry by entry, and each swap of m
    one of m' at the same hyperplane with top >= it.  That comparison of
    the two `_hyperplane_conditions` decides the pair: "included" is proved,
    and a pair that fails it is refused.  Q_(m') is read for its dims alone.

    An intersection of kernels is the kernel of all their rows, so the
    intersection over every m of total weight <= D is the one Q_m at the
    componentwise maximum, m_o = D // |orbit o|."""
    deletions, swaps = _hyperplane_conditions(group, mult_low)
    rows_high = _hyperplane_conditions(group, mult_high)
    needs = {k: need for k, _, need in rows_high[0]}
    tops = {(k, l, j): top for k, l, j, top in rows_high[1]}
    if not (all(all(map(le, need, needs.get(k, [0] * n_h))) for k, n_h, need in deletions)
            and all(top <= tops.get((k, l, j), 0) for k, l, j, top in swaps)):
        raise DomainError("need componentwise m <= m'")
    low = quasi_basis(group, mult_low, max_degree)
    high = quasi_basis(group, mult_high, max_degree)
    codims = [a - b for a, b in zip(low.dims(), high.dims())]
    # the first element of Q_m outside Q_(m') in the first degree of positive codim
    witness = next((p for d, c in enumerate(codims) if c > 0
                    for p in low.layer(d) if not _satisfies(group, rows_high, p)), None)
    inv_dims = invariant_ring_dims(group, max_degree)
    inter_dims = _intersection_dims(group, max_degree)
    return {
        "included": True,
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
