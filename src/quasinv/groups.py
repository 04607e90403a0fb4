"""Supported reflection and pseudoreflection groups.

The group spec grammar is

    "A1" | "A1^n" | "I2(k)" (k >= 3) | "Z/l" (l >= 2) | rank-one factors
    joined with " x "

The dihedral group I2(k) acts on coordinates (z1, z2) by rotations
(z1, z2) -> (zeta^j z1, zeta^-j z2) and reflections
(z1, z2) -> (zeta^j z2, zeta^-j z1), zeta a primitive k-th root of unity,
so every matrix entry lies in Q(zeta_2k) and the reflection hyperplanes are
the kernels of alpha_j = z1 - zeta^j z2.  Linear forms are normalized so the
first nonzero coordinate coefficient is 1 (scaling-dependent outputs are
flagged as normalization-dependent at the reporting layer).

In these coordinates every element is a monomial matrix whose nonzero
entries are roots of unity.  The group keeps the table `roots` = (zeta^0,
zeta^1, ..., zeta^(N-1)) of its field's roots of unity, zeta = -1 over Q,
zeta_n in Q(zeta_n) for even n and -zeta_n for odd n, and writes such a
matrix as its monomial form: the pair of integer tuples (perm, expo) with row
k equal to roots[expo[k]] in column perm[k].  The forms are the constructor's
input, and all group structure is derived from them: the multiplication
table, inverses and identity, the fixed hyperplanes of the pseudoreflections,
their pointwise stabilizers, the hyperplane orbits, and the action
x_k o w^(-1) = roots[expo[k]] x_perm[k] read off the form of w^(-1).  The
element matrices are derived from the forms for output only: `quasinv group`
prints them, and no computation reads them.

Groups are immutable after construction and safe for shared reads.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction
from functools import lru_cache
from operator import mul

from quasinv.errors import ParseError
from quasinv.fields import Cyclotomic
from quasinv.poly import Polynomial


class Hyperplane:
    __slots__ = ("alpha", "stabilizer_order", "orbit_id", "index")

    def __init__(self, alpha: Polynomial, stabilizer_order: int, orbit_id: int, index: int):
        self.alpha = alpha
        self.stabilizer_order = stabilizer_order
        self.orbit_id = orbit_id
        self.index = index

    def __repr__(self):
        return f"<H{self.index}: {self.alpha} = 0, n_H={self.stabilizer_order}, orbit {self.orbit_id}>"


class ReflectionGroup:
    """A finite group generated by pseudoreflections, with its arrangement.

    `forms` lists the elements as monomial forms (perm, expo) over the root
    table of `field`; `elements` holds the matrices derived from them."""

    def __init__(self, spec, rank, field, variables, forms, invariant_degrees,
                 fundamental_invariants):
        self.spec = spec
        self.rank = rank
        self.field = field  # "Q" or ("zeta", n)
        self.variables = tuple(variables)
        self.forms = tuple(forms)  # (perm, expo) of each element, in element order
        self.order = len(self.forms)
        self.invariant_degrees = tuple(sorted(invariant_degrees))
        self.fundamental_invariants = tuple(fundamental_invariants)

        self.roots = _root_table(field)
        zero = self.roots[0] - self.roots[0]
        # the matrices that `quasinv group` prints: row k holds roots[expo[k]]
        # in column perm[k]
        self.elements = tuple(
            tuple(tuple(self.roots[e] if col == p else zero for col in range(rank))
                  for p, e in zip(perm, expo)) for perm, expo in self.forms)
        self._index = {f: i for i, f in enumerate(self.forms)}
        if len(self._index) != self.order:
            raise ValueError("duplicate group elements")
        n = len(self.roots)
        identity_perm = tuple(range(rank))
        self._ident = self._lookup((identity_perm, (0,) * rank), "the identity")
        self._mul_table = [[self._lookup(_compose(a, b, n), "a product") for b in self.forms]
                           for a in self.forms]
        self._inv_table = [self._lookup(_invert(f, n), "an inverse") for f in self.forms]
        # the action reads the forms of the inverses: x_k o w_i^(-1)
        self._inverse_forms = [self.forms[j] for j in self._inv_table]
        self._diagonal = _generating_subset(
            [expo for perm, expo in self._inverse_forms if perm == identity_perm], n)

        self.hyperplanes, self._stabilizers = self._build_hyperplanes()
        self._verify_group_axioms()

    # -- group structure -----------------------------------------------------

    def _lookup(self, form, what: str) -> int:
        got = self._index.get(form)
        if got is None:
            raise ValueError(f"group elements not closed: {what} is missing")
        return got

    def identity_index(self) -> int:
        return self._ident

    # -- polynomial action ------------------------------------------------------

    def act(self, i: int, p: Polynomial) -> Polynomial:
        """The degree-preserving automorphism p -> p o w^(-1) of the
        coordinate ring, for the i-th group element.

        Term by term: x^e maps to roots[sum_k expo[k] e_k mod N] x^f with
        f[perm[k]] = e_k.  The exponent map is a permutation, so no two
        terms collide.  The constant term keeps its coefficient object; every
        other coefficient is multiplied by its root, which puts it in the
        group's field."""
        if p.vars != self.variables:
            raise ValueError("polynomial not in this group's coordinate ring")
        roots = self.roots
        out = Polynomial(self.variables)
        out.terms = {f: roots[j] * c if any(f) else c
                     for (f, j), c in zip(self._moved(i, p.terms), p.terms.values())}
        return out

    def _moved(self, i: int, exponents):
        """(f, j) for each exponent e: x^e o w_i^(-1) = roots[j] x^f."""
        perm, expo = self._inverse_forms[i]
        n = len(self.roots)
        out = []
        for e in exponents:
            f = [0] * self.rank
            for k, ek in enumerate(e):
                f[perm[k]] = ek
            out.append((tuple(f), sum(map(mul, expo, e)) % n))
        return out

    # -- arrangement --------------------------------------------------------------

    def _build_hyperplanes(self):
        """The fixed hyperplanes of the pseudoreflections, sorted, with their
        pointwise stabilizers and W-orbits.

        For a monomial matrix m, m - I has rank one exactly when m scales one
        coordinate x_k (alpha = x_k) or swaps two coordinates k < l with root
        product 1 (alpha = x_k - roots[expo[k]] x_l); the coefficient 1 is
        roots[0], so forms keep the group's coefficient type."""
        n = len(self.roots)
        one = self.roots[0]
        xs = [Polynomial.variable(self.variables, v) for v in self.variables]
        stabs = {}  # alpha -> the identity and the pseudoreflections fixing it
        for i, (perm, expo) in enumerate(self.forms):
            moved = [k for k in range(self.rank) if perm[k] != k or expo[k]]
            if len(moved) == 1:
                alpha = xs[moved[0]] * one
            elif len(moved) == 2 and perm[moved[0]] == moved[1] and not sum(expo) % n:
                k, l = moved
                alpha = xs[k] * one - xs[l] * self.roots[expo[k]]
            else:
                continue
            stabs.setdefault(alpha, [self._ident]).append(i)
        alphas = sorted(stabs, key=lambda a: a.sorted_terms().__repr__())
        stabilizers = [sorted(stabs[a]) for a in alphas]
        # w maps H onto the hyperplane whose stabilizer is w Stab(H) w^(-1)
        by_stabilizer = {frozenset(s): idx for idx, s in enumerate(stabilizers)}
        orbit_of = [None] * len(alphas)
        next_orbit = 0
        for idx, stab in enumerate(stabilizers):
            if orbit_of[idx] is not None:
                continue
            for w, row in enumerate(self._mul_table):
                w_inv = self._inv_table[w]
                image = frozenset(self._mul_table[row[s]][w_inv] for s in stab)
                orbit_of[by_stabilizer[image]] = next_orbit
            next_orbit += 1
        hyperplanes = tuple(Hyperplane(a, len(stabilizers[idx]), orbit_of[idx], idx)
                            for idx, a in enumerate(alphas))
        return hyperplanes, stabilizers

    def stabilizer(self, h: Hyperplane):
        """Indices of elements fixing the hyperplane pointwise (a cyclic group)."""
        return list(self._stabilizers[h.index])

    def reflection(self, h: Hyperplane) -> int:
        """Index of the first non-identity element fixing h pointwise: the
        reflection in h when its stabilizer has order 2."""
        ident = self.identity_index()
        for i in self.stabilizer(h):
            if i != ident:
                return i
        raise ValueError("hyperplane without a reflection")

    # -- sanity ---------------------------------------------------------------------

    def _verify_group_axioms(self):
        if math.prod(self.invariant_degrees) != self.order:
            raise ValueError("invariant degrees inconsistent with group order")
        for f in self.fundamental_invariants:
            for i in range(self.order):
                if self.act(i, f) != f:
                    raise ValueError("listed fundamental invariant is not invariant")

    def is_coxeter(self) -> bool:
        return all(h.stabilizer_order == 2 for h in self.hyperplanes)

    # -- diagonal characters ------------------------------------------------

    def monomial_class_key(self, exp):
        """Character of a monomial under the diagonal subgroup, as the root
        index sum_k expo[k] e_k mod N of each element of a generating set
        (a character is fixed by its values on generators).

        W-stable graded subspaces split along these characters, which lets
        degreewise systems be solved block by block."""
        n = len(self.roots)
        return tuple(sum(map(mul, expo, exp)) % n for expo in self._diagonal)

    def sum_invariant_degrees(self) -> int:
        return sum(self.invariant_degrees)

    def __repr__(self):
        return f"<ReflectionGroup {self.spec}: order {self.order}, rank {self.rank}>"


# -- monomial forms ---------------------------------------------------------------


def _generating_subset(vectors, n: int):
    """The vectors, in order, that are not in the subgroup of (Z/n)^r
    generated by the earlier ones; together they generate all of them."""
    gens, reached = [], {(0,) * len(vectors[0])}
    for v in vectors:
        if v not in reached:
            gens.append(v)
            reached = {tuple((a + k * b) % n for a, b in zip(r, v))
                       for r in reached for k in range(n)}
    return gens


def _root_table(field):
    """(zeta^0, ..., zeta^(N-1)) for the generator zeta of the roots of unity
    of the field: -1 over Q, zeta_n for even n, -zeta_n for odd n."""
    if field == "Q":
        return (Fraction(1), Fraction(-1))
    n = field[1]
    sign = -1 if n % 2 else 1
    return tuple(sign**j * Cyclotomic.zeta(n, j) for j in range(2 * n if n % 2 else n))


def _compose(a, b, n):
    """The form of the matrix product AB: row k of A picks row perm_A[k] of B."""
    (pa, ea), (pb, eb) = a, b
    return (tuple(pb[j] for j in pa),
            tuple((e + eb[j]) % n for e, j in zip(ea, pa)))


def _invert(a, n):
    """The form of A^(-1): the transposed pattern with negated exponents."""
    perm, expo = a
    p_inv, e_inv = [0] * len(perm), [0] * len(perm)
    for k, (j, e) in enumerate(zip(perm, expo)):
        p_inv[j], e_inv[j] = k, -e % n
    return tuple(p_inv), tuple(e_inv)


def _default_variables(rank: int):
    if rank == 1:
        return ("x",)
    if rank == 2:
        return ("z1", "z2")
    return tuple(f"x{i + 1}" for i in range(rank))


# -- constructors ------------------------------------------------------------------


MAX_GROUP_ORDER = 64


@lru_cache(maxsize=64)
def parse_group(spec: str) -> ReflectionGroup:
    """The supported reflection group of a spec string, built once per
    process and spec: every call with the same string returns the same
    shared, immutable group.  Specs of order above MAX_GROUP_ORDER are
    refused before anything is built.  A ParseError is raised again on
    every call; errors are not cached."""
    text = spec.strip()
    if not text:
        raise ParseError("empty group spec")
    factors = []
    order = 1
    for token in re.split(r"\s*x\s*", text):
        token = token.strip()
        if not token:
            raise ParseError(f"empty factor in spec {spec[:20]!r}")
        m = re.fullmatch(r"A1\^(\d+)", token)
        if m:
            n = _spec_number(m.group(1), text)
            if n < 1:
                raise ParseError(f"bad power in {token[:20]!r}")
            factor, count = ("A1", 2), n
        elif token == "A1":
            factor, count = ("A1", 2), 1
        elif m := re.fullmatch(r"I2\((\d+)\)", token):
            k = _spec_number(m.group(1), text)
            if k < 3:
                raise ParseError(f"I2(k) needs k >= 3, got {token[:20]!r}")
            factor, count = ("I2", k), 1
        elif m := re.fullmatch(r"Z/(\d+)", token):
            ell = _spec_number(m.group(1), text)
            if ell < 2:
                raise ParseError(f"Z/l needs l >= 2, got {token[:20]!r}")
            factor, count = ("Z", ell), 1
        else:
            raise ParseError(f"unknown group token {token[:20]!r}")
        for _ in range(count):  # every factor has order >= 2: at most 7 rounds
            order *= 2 * factor[1] if factor[0] == "I2" else factor[1]
            if order > MAX_GROUP_ORDER:
                raise ParseError(f"group {text[:20]!r} has order above {MAX_GROUP_ORDER}")
            factors.append(factor)
    if len(factors) == 1 and factors[0][0] == "I2":
        return _build_dihedral(spec.strip(), factors[0][1])
    if any(kind == "I2" for kind, _ in factors):
        raise ParseError("products support rank-one factors only")
    return _build_product(spec.strip(), factors)


def _spec_number(digits: str, text: str) -> int:
    """A number of a group spec, refused before int() reads it when it has
    more digits than the order cap: each factor's order is at least its number."""
    digits = digits.lstrip("0") or "0"
    if len(digits) > len(str(MAX_GROUP_ORDER)):
        raise ParseError(f"group {text[:20]!r} has order above {MAX_GROUP_ORDER}")
    return int(digits)


def _build_dihedral(spec: str, k: int) -> ReflectionGroup:
    """I2(k) over Q(zeta_2k), whose root table is zeta_2k^0, ..., zeta_2k^(2k-1):
    rotation j is diag(zeta^j, zeta^-j) and reflection j is (z1, z2) ->
    (zeta^j z2, zeta^-j z1), zeta = zeta_2k^2 a primitive k-th root of unity."""
    n = 2 * k
    forms = [(perm, (2 * j, -2 * j % n)) for perm in ((0, 1), (1, 0)) for j in range(k)]
    variables = ("z1", "z2")
    z1 = Polynomial.variable(variables, "z1")
    z2 = Polynomial.variable(variables, "z2")
    invariants = [z1 * z2, z1**k + z2**k]
    return ReflectionGroup(
        spec=spec,
        rank=2,
        field=("zeta", n),
        variables=variables,
        forms=forms,
        invariant_degrees=[2, k],
        fundamental_invariants=invariants,
    )


def _build_product(spec: str, factors) -> ReflectionGroup:
    """Rank-one factors acting diagonally: Z/l with l > 2 by the l-th roots
    of unity in Q(zeta_lcm), the lcm taken over those l, and A1 or Z/2 by
    +-1 in the same field, which is Q when no l exceeds 2.  A factor's j-th
    element is zeta_l^j, zeta_l = e^(2 pi i / l), with the elements in
    lexicographic order of (j_1, ..., j_r)."""
    rank = len(factors)
    lcm = math.lcm(*(ell for _, ell in factors if ell > 2))
    field = ("zeta", lcm) if lcm > 2 else "Q"
    roots = _root_table(field)
    n = len(roots)
    # the root index of zeta_l; -1 is roots[n / 2]
    steps = [n // 2 if ell == 2 else roots.index(Cyclotomic.zeta(lcm, lcm // ell))
             for _, ell in factors]
    identity = tuple(range(rank))
    forms = [(identity, tuple(j * step % n for j, step in zip(combo, steps)))
             for combo in itertools.product(*(range(ell) for _, ell in factors))]
    variables = _default_variables(rank)
    return ReflectionGroup(
        spec=spec,
        rank=rank,
        field=field,
        variables=variables,
        forms=forms,
        invariant_degrees=[ell for _, ell in factors],
        fundamental_invariants=[Polynomial.variable(variables, v) ** ell
                                for v, (_, ell) in zip(variables, factors)],
    )


# -- multiplicity functions ---------------------------------------------------------


class Multiplicity:
    """W-invariant multiplicity data keyed on hyperplane orbits.

    Coxeter orbits (n_H = 2) take a single value, a non-negative integer or
    (in rank one only) a half-integer.  Orbits with n_H > 2 take a vector of
    n_H - 1 non-negative integers.  Every orbit needs a value, and a key
    that names no orbit raises a ValueError.
    """

    def __init__(self, group: ReflectionGroup, values: dict):
        self.group = group
        norm = {}
        orbit_nh = {}
        for h in group.hyperplanes:
            orbit_nh[h.orbit_id] = h.stabilizer_order
        for orbit_id in values:
            if orbit_id not in orbit_nh:
                raise ValueError(f"the group has no orbit {str(orbit_id)[:20]!r}")
        for orbit_id, n_h in orbit_nh.items():
            if orbit_id not in values:
                raise ValueError(f"missing multiplicity for orbit {orbit_id}")
            val = values[orbit_id]
            if n_h == 2:
                try:
                    val = Fraction(val)
                except TypeError:
                    raise ValueError(f"orbit {orbit_id} takes a single value") from None
                if val < 0:
                    raise ValueError("multiplicities must be non-negative")
                if val.denominator == 1:
                    norm[orbit_id] = int(val)
                elif val.denominator == 2 and group.rank == 1 and group.is_coxeter():
                    norm[orbit_id] = val
                else:
                    raise ValueError(
                        "half-integer multiplicities only make sense for the "
                        "rank-one Coxeter group"
                    )
            else:
                try:
                    vec = tuple(Fraction(v) for v in val)
                except (TypeError, ValueError, OverflowError):
                    vec = ()
                if len(vec) != n_h - 1 or any(v < 0 or v.denominator != 1 for v in vec):
                    raise ValueError(
                        f"orbit {orbit_id} needs {n_h - 1} non-negative integers"
                    )
                norm[orbit_id] = tuple(int(v) for v in vec)
        self.values = norm

    @staticmethod
    def constant(group: ReflectionGroup, m) -> "Multiplicity":
        values = {}
        for h in group.hyperplanes:
            if h.stabilizer_order == 2:
                values.setdefault(h.orbit_id, m)
            else:
                mf = Fraction(m)
                if mf.denominator != 1:
                    raise ValueError("non-Coxeter orbits need integer multiplicities")
                values.setdefault(h.orbit_id, (int(mf),) * (h.stabilizer_order - 1))
        return Multiplicity(group, values)

    def of(self, h: Hyperplane):
        return self.values[h.orbit_id]

    def is_integer(self) -> bool:
        return all(
            isinstance(v, (int, tuple)) for v in self.values.values()
        )

    def coxeter_total(self):
        """Sum of m_alpha over all hyperplanes (Coxeter data only)."""
        total = 0
        for h in self.group.hyperplanes:
            v = self.of(h)
            if isinstance(v, tuple):
                raise ValueError("total multiplicity only defined for Coxeter data")
            total += v
        return total

    def __repr__(self):
        return f"<Multiplicity {self.values}>"

    def __eq__(self, other):
        if not isinstance(other, Multiplicity):
            return NotImplemented
        return self.values == other.values

    def __hash__(self):
        return hash(tuple(sorted((k, v) for k, v in self.values.items())))
