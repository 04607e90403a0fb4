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
entries are roots of unity, so the action on polynomials has a closed form.
The group keeps the table `roots` = (zeta^0, zeta^1, ..., zeta^(N-1)) of its
field's roots of unity, zeta = -1 over Q, zeta_n in Q(zeta_n) for even n and
-zeta_n for odd n, and describes element i by integer tuples `perm`, `expo`
with x_k o w_i^(-1) = roots[expo[k]] x_perm[k].  Construction refuses any
element that is not of this form.

Groups are immutable after construction and safe for shared reads.
"""

from __future__ import annotations

import re
from fractions import Fraction
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
    """A finite group generated by pseudoreflections, with its arrangement."""

    def __init__(self, spec, rank, field, variables, elements, invariant_degrees,
                 fundamental_invariants):
        self.spec = spec
        self.rank = rank
        self.field = field  # "Q" or ("zeta", n)
        self.variables = tuple(variables)
        self.elements = elements  # list of matrices (tuple of tuple rows)
        self.order = len(elements)
        self.invariant_degrees = tuple(sorted(invariant_degrees))
        self.fundamental_invariants = list(fundamental_invariants)

        self._index = {m: i for i, m in enumerate(elements)}
        if len(self._index) != len(elements):
            raise ValueError("duplicate group elements")
        self._mul_table = None
        self._inv_table = None
        self._blocks: dict = {}

        self.roots = _root_table(field)
        self._forms = [self._monomial_form(elements[self.inverse(i)]) for i in range(self.order)]
        identity_perm = tuple(range(rank))
        self._diagonal = [i for i, (perm, _) in enumerate(self._forms) if perm == identity_perm]

        self.hyperplanes = self._build_hyperplanes()
        self._verify_group_axioms()

    # -- group structure -----------------------------------------------------

    def mul(self, i: int, j: int) -> int:
        if self._mul_table is None:
            self._mul_table = {}
        key = (i, j)
        got = self._mul_table.get(key)
        if got is None:
            m = _mat_mul(self.elements[i], self.elements[j])
            got = self._index[m]
            self._mul_table[key] = got
        return got

    def inverse(self, i: int) -> int:
        if self._inv_table is None:
            ident = self._index[_identity(self.rank, self._one())]
            table = {}
            for a in range(self.order):
                for b in range(self.order):
                    if self.mul(a, b) == ident:
                        table[a] = b
                        break
            self._inv_table = table
        return self._inv_table[i]

    def identity_index(self) -> int:
        return self._index[_identity(self.rank, self._one())]

    def _one(self):
        if self.field == "Q":
            return Fraction(1)
        return Cyclotomic.from_rational(self.field[1], 1)

    def determinant(self, i: int):
        """det w_i = 1 / det w_i^(-1), with det w_i^(-1) = sign(perm) roots[sum(expo)]."""
        perm, expo = self._forms[i]
        n = len(self.roots)  # even: -1 = roots[n // 2]
        inversions = sum(a > b for k, a in enumerate(perm) for b in perm[k + 1:])
        return self.roots[-(sum(expo) + inversions * n // 2) % n]

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
                     for (f, j), c in zip(self._moved(i, p), p.terms.values())}
        return out

    def _moved(self, i: int, p: Polynomial):
        """(f, j) for each term x^e of p: x^e o w_i^(-1) = roots[j] x^f."""
        perm, expo = self._forms[i]
        n = len(self.roots)
        out = []
        for e in p.terms:
            f = [0] * self.rank
            for k, ek in enumerate(e):
                f[perm[k]] = ek
            out.append((tuple(f), sum(map(mul, expo, e)) % n))
        return out

    def _monomial_form(self, m):
        """(perm, expo) with row k of m equal to roots[expo[k]] in column
        perm[k] and zero elsewhere; ValueError for any other matrix."""
        index = {r: j for j, r in enumerate(self.roots)}
        perm, expo = [], []
        for row in m:
            entries = [(col, c) for col, c in enumerate(row) if c]
            if len(entries) != 1 or entries[0][1] not in index:
                raise ValueError("group element is not a monomial matrix of roots of unity")
            perm.append(entries[0][0])
            expo.append(index[entries[0][1]])
        return tuple(perm), tuple(expo)

    # -- arrangement --------------------------------------------------------------

    def _build_hyperplanes(self):
        # collect fixed hyperplanes of pseudoreflections, then W-orbits
        raw = {}  # normalized alpha -> set of element indices fixing it pointwise
        for i, m in enumerate(self.elements):
            fixed = _fixed_hyperplane(m, self.rank, self._one())
            if fixed is None:
                continue
            alpha = self._normalized_form(fixed)
            raw.setdefault(alpha, set()).add(i)
        alphas = sorted(raw, key=lambda a: a.sorted_terms().__repr__())
        # orbit decomposition by brute-force action on the forms
        orbit_of: dict = {}
        next_orbit = 0
        for a in alphas:
            if a in orbit_of:
                continue
            orbit_of[a] = next_orbit
            frontier = [a]
            while frontier:
                b = frontier.pop()
                for i in range(self.order):
                    img = self._normalized_form(self.act(i, b))
                    if img not in orbit_of:
                        orbit_of[img] = next_orbit
                        frontier.append(img)
            next_orbit += 1
        out = []
        for idx, a in enumerate(alphas):
            n_h = len(raw[a]) + 1  # stabilizer includes the identity
            out.append(Hyperplane(a, n_h, orbit_of[a], idx))
        return out

    def _normalized_form(self, alpha: Polynomial) -> Polynomial:
        # first nonzero coordinate coefficient scaled to 1
        from quasinv.poly import linear_coefficients

        coeffs = linear_coefficients(alpha)
        lead = next(c for c in coeffs if c)
        inv = Fraction(1) / lead if isinstance(lead, Fraction) else lead.inverse()
        return alpha * inv

    def orbits(self):
        out: dict = {}
        for h in self.hyperplanes:
            out.setdefault(h.orbit_id, []).append(h)
        return out

    def stabilizer(self, h: Hyperplane):
        """Indices of elements fixing the hyperplane pointwise (a cyclic group)."""
        out = []
        basis = _hyperplane_basis(h.alpha, self.variables)
        for i, m in enumerate(self.elements):
            if all(_mat_vec(m, v) == v for v in basis):
                out.append(i)
        return out

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
        prod = 1
        for d in self.invariant_degrees:
            prod *= d
        if prod != self.order:
            raise ValueError("invariant degrees inconsistent with group order")
        for i in range(self.order):
            for j in range(self.order):
                self.mul(i, j)  # raises KeyError via index lookup if not closed
        for h in self.hyperplanes:
            if h.stabilizer_order < 2:
                raise ValueError("hyperplane with trivial stabilizer")
        for f in self.fundamental_invariants:
            for i in range(self.order):
                if self.act(i, f) != f:
                    raise ValueError("listed fundamental invariant is not invariant")

    def is_coxeter(self) -> bool:
        return all(h.stabilizer_order == 2 for h in self.hyperplanes)

    # -- diagonal characters ------------------------------------------------

    def monomial_class_key(self, exp):
        """Character of a monomial under the diagonal subgroup, as the root
        index sum_k expo[k] e_k mod N of each diagonal element.

        W-stable graded subspaces split along these characters, which lets
        degreewise systems be solved block by block."""
        n = len(self.roots)
        return tuple(sum(map(mul, self._forms[i][1], exp)) % n for i in self._diagonal)

    def monomial_blocks(self, exponents):
        """Partition of the exponent list into diagonal-character classes,
        as index lists ordered by first occurrence.

        Memoized per exponent list on the group and shared between callers:
        read the blocks, never mutate them."""
        key = tuple(exponents)
        got = self._blocks.get(key)
        if got is None:
            blocks: dict = {}
            for idx, exp in enumerate(key):
                blocks.setdefault(self.monomial_class_key(exp), []).append(idx)
            got = [blocks[k] for k in sorted(blocks, key=lambda k: blocks[k][0])]
            self._blocks[key] = got
        return got

    def sum_invariant_degrees(self) -> int:
        return sum(self.invariant_degrees)

    def __repr__(self):
        return f"<ReflectionGroup {self.spec}: order {self.order}, rank {self.rank}>"


class GroupAlgebraElement:
    """Element of the group algebra: map from element index to coefficient."""

    __slots__ = ("group", "coeffs")

    def __init__(self, group: ReflectionGroup, coeffs: dict):
        self.group = group
        self.coeffs = {i: c for i, c in coeffs.items() if c}

    def __add__(self, other):
        out = dict(self.coeffs)
        for i, c in other.coeffs.items():
            s = out.get(i, 0) + c
            if s:
                out[i] = s
            else:
                out.pop(i, None)
        return GroupAlgebraElement(self.group, out)

    def __sub__(self, other):
        return self + GroupAlgebraElement(other.group, {i: -c for i, c in other.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Cyclotomic)):
            return GroupAlgebraElement(self.group, {i: c * other for i, c in self.coeffs.items()})
        out: dict = {}
        for i, ci in self.coeffs.items():
            for j, cj in other.coeffs.items():
                k = self.group.mul(i, j)
                s = out.get(k, 0) + ci * cj
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        return GroupAlgebraElement(self.group, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, GroupAlgebraElement):
            return NotImplemented
        return self.coeffs == other.coeffs

    def apply(self, p: Polynomial) -> Polynomial:
        """sum_i c_i act(i, p), accumulated term by term in one dict."""
        group = self.group
        if p.vars != group.variables:
            raise ValueError("polynomial not in this group's coordinate ring")
        roots = group.roots
        out: dict = {}
        for i, c in self.coeffs.items():
            for (f, j), v in zip(group._moved(i, p), p.terms.values()):
                s = out.get(f, 0) + (roots[j] * v if any(f) else v) * c
                if s:
                    out[f] = s
                else:
                    out.pop(f, None)
        acc = Polynomial(group.variables)
        acc.terms = out
        return acc

    def __repr__(self):
        return f"<GroupAlgebraElement {self.coeffs}>"


def idempotent(group: ReflectionGroup, h: Hyperplane, i: int) -> GroupAlgebraElement:
    """The i-th character idempotent of the cyclic pointwise stabilizer of a
    hyperplane, built from powers of the determinant character.  Idempotency
    and the partition of unity are verified on construction."""
    n_h = h.stabilizer_order
    if not 0 <= i < n_h:
        raise ValueError(f"character index {i} out of range for n_H = {n_h}")
    stab = group.stabilizer(h)
    if len(stab) != n_h:
        raise ValueError("stabilizer enumeration inconsistent with n_H")
    coeffs = {}
    inv_order = Fraction(1, n_h)
    roots = group.roots
    for w in stab:
        j = roots.index(group.determinant(w))
        coeffs[w] = roots[-i * j % len(roots)] * inv_order
    e = GroupAlgebraElement(group, coeffs)
    if e * e != e:
        raise ArithmeticError("constructed group algebra element is not idempotent")
    return e


# -- matrices -------------------------------------------------------------------


def _root_table(field):
    """(zeta^0, ..., zeta^(N-1)) for the generator zeta of the roots of unity
    of the field: -1 over Q, zeta_n for even n, -zeta_n for odd n."""
    if field == "Q":
        return (Fraction(1), Fraction(-1))
    n = field[1]
    sign = -1 if n % 2 else 1
    return tuple(sign**j * Cyclotomic.zeta(n, j) for j in range(2 * n if n % 2 else n))


def _identity(rank, one):
    zero = one - one
    return tuple(
        tuple(one if i == j else zero for j in range(rank)) for i in range(rank)
    )


def _mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(n)), start=Fraction(0)) for j in range(n))
        for i in range(n)
    )


def _mat_vec(m, v):
    n = len(m)
    return tuple(sum((m[i][j] * v[j] for j in range(n)), start=Fraction(0)) for i in range(n))


def _fixed_hyperplane(m, rank, one):
    """For a pseudoreflection, the linear form cutting out its fixed
    hyperplane; None for the identity or elements without a fixed hyperplane
    of codimension one."""
    zero = one - one
    ident = _identity(rank, one)
    if m == ident:
        return None
    # rows of (m - I) span the orthogonal of the fixed space in coordinates
    diff = [[m[i][j] - ident[i][j] for j in range(rank)] for i in range(rank)]
    from quasinv.linalg import rref

    red, pivots = rref(diff)
    if len(pivots) != 1:
        return None  # fixed space not a hyperplane
    # fixed space = kernel of (m - I); codim 1 means one independent condition
    names = None
    row = red[0]
    variables = _default_variables(rank)
    poly = Polynomial.zero(variables)
    for j, c in enumerate(row):
        if c:
            poly = poly + Polynomial.variable(variables, variables[j]) * c
    return poly if poly else names


def _default_variables(rank: int):
    if rank == 1:
        return ("x",)
    if rank == 2:
        return ("z1", "z2")
    return tuple(f"x{i + 1}" for i in range(rank))


def _hyperplane_basis(alpha: Polynomial, variables):
    """Vectors spanning ker(alpha)."""
    from quasinv.poly import linear_coefficients

    coeffs = linear_coefficients(alpha)
    pivot = next(i for i, c in enumerate(coeffs) if c)
    n = len(coeffs)
    basis = []
    c_p = coeffs[pivot]
    inv = Fraction(1) / c_p if isinstance(c_p, Fraction) else c_p.inverse()
    for j in range(n):
        if j == pivot:
            continue
        v = [Fraction(0)] * n
        v[j] = Fraction(1)
        v[pivot] = -coeffs[j] * inv
        basis.append(tuple(v))
    return basis


# -- constructors ------------------------------------------------------------------


def _build_rank_one(kind: str, ell: int):
    """Matrices, degrees and invariants of a rank-one factor on one variable."""
    if kind == "A1":
        return [Fraction(1), Fraction(-1)], [2], 2
    # Z/l: x -> zeta_l x as a point map
    if ell == 2:
        return [Fraction(1), Fraction(-1)], [2], 2
    zeta = Cyclotomic.zeta(ell)
    scalars = []
    cur = Cyclotomic.from_rational(ell, 1)
    for _ in range(ell):
        scalars.append(cur)
        cur = cur * zeta
    return scalars, [ell], ell


MAX_GROUP_ORDER = 64


def parse_group(spec: str) -> ReflectionGroup:
    """Build a supported reflection group from its spec string.  Specs of
    order above MAX_GROUP_ORDER are refused before anything is built."""
    text = spec.strip()
    if not text:
        raise ParseError("empty group spec")
    factors = []
    order = 1
    for token in re.split(r"\s*x\s*", text):
        token = token.strip()
        if not token:
            raise ParseError(f"empty factor in spec {spec!r}")
        m = re.fullmatch(r"A1\^(\d+)", token)
        if m:
            n = int(m.group(1))
            if n < 1:
                raise ParseError(f"bad power in {token!r}")
            factor, count = ("A1", 2), n
        elif token == "A1":
            factor, count = ("A1", 2), 1
        elif m := re.fullmatch(r"I2\((\d+)\)", token):
            k = int(m.group(1))
            if k < 3:
                raise ParseError(f"I2(k) needs k >= 3, got {token!r}")
            factor, count = ("I2", k), 1
        elif m := re.fullmatch(r"Z/(\d+)", token):
            ell = int(m.group(1))
            if ell < 2:
                raise ParseError(f"Z/l needs l >= 2, got {token!r}")
            factor, count = ("Z", ell), 1
        else:
            raise ParseError(f"unknown group token {token!r}")
        for _ in range(count):  # every factor has order >= 2: at most 7 rounds
            order *= 2 * factor[1] if factor[0] == "I2" else factor[1]
            if order > MAX_GROUP_ORDER:
                raise ParseError(f"group {text!r} has order above {MAX_GROUP_ORDER}")
            factors.append(factor)
    if len(factors) == 1 and factors[0][0] == "I2":
        return _build_dihedral(spec.strip(), factors[0][1])
    if any(kind == "I2" for kind, _ in factors):
        raise ParseError("products support rank-one factors only")
    return _build_product(spec.strip(), factors)


def _build_dihedral(spec: str, k: int) -> ReflectionGroup:
    n_field = 2 * k
    one = Cyclotomic.from_rational(n_field, 1)
    zero = Cyclotomic.from_rational(n_field, 0)
    zeta_k = Cyclotomic.zeta(n_field, 2)  # zeta_2k^2 is a primitive k-th root
    powers = [one]
    for _ in range(k - 1):
        powers.append(powers[-1] * zeta_k)
    elements = []
    for j in range(k):  # rotations diag(zeta^j, zeta^-j)
        elements.append(
            (
                (powers[j], zero),
                (zero, powers[(k - j) % k]),
            )
        )
    for j in range(k):  # reflections (z1, z2) -> (zeta^j z2, zeta^-j z1)
        elements.append(
            (
                (zero, powers[j]),
                (powers[(k - j) % k], zero),
            )
        )
    variables = ("z1", "z2")
    z1 = Polynomial.variable(variables, "z1")
    z2 = Polynomial.variable(variables, "z2")
    invariants = [z1 * z2, z1**k + z2**k]
    return ReflectionGroup(
        spec=spec,
        rank=2,
        field=("zeta", n_field),
        variables=variables,
        elements=elements,
        invariant_degrees=[2, k],
        fundamental_invariants=invariants,
    )


def _build_product(spec: str, factors) -> ReflectionGroup:
    rank = len(factors)
    orders = [ell for _, ell in factors]
    lcm = 1
    for kind, ell in factors:
        if kind == "Z" and ell > 2:
            lcm = _lcm(lcm, ell)
    if lcm > 2:
        field = ("zeta", lcm)
        def embed(c):
            if isinstance(c, Fraction):
                return Cyclotomic.from_rational(lcm, c)
            # re-embed zeta_l into zeta_lcm
            out = Cyclotomic.from_rational(lcm, 0)
            step = lcm // c.n
            for kpow, coord in enumerate(c.coords):
                if coord:
                    out = out + coord * Cyclotomic.zeta(lcm, kpow * step)
            return out
    else:
        field = "Q"
        def embed(c):
            return c
    scalar_lists = []
    degrees = []
    for kind, ell in factors:
        scalars, degs, _ = _build_rank_one(kind, ell)
        scalar_lists.append([embed(s) for s in scalars])
        degrees.extend(degs)
    one = Fraction(1) if field == "Q" else Cyclotomic.from_rational(field[1], 1)
    zero = one - one
    elements = []
    for combo in _cartesian(scalar_lists):
        elements.append(
            tuple(
                tuple(combo[i] if i == j else zero for j in range(rank))
                for i in range(rank)
            )
        )
    variables = _default_variables(rank)
    invariants = []
    for i, (kind, ell) in enumerate(factors):
        d = 2 if kind == "A1" or ell == 2 else ell
        v = Polynomial.variable(variables, variables[i])
        invariants.append(v**d)
    return ReflectionGroup(
        spec=spec,
        rank=rank,
        field=field,
        variables=variables,
        elements=elements,
        invariant_degrees=degrees,
        fundamental_invariants=invariants,
    )


def _cartesian(lists):
    if not lists:
        yield ()
        return
    for head in lists[0]:
        for tail in _cartesian(lists[1:]):
            yield (head,) + tail


def _lcm(a: int, b: int) -> int:
    from math import gcd

    return a * b // gcd(a, b)


# -- multiplicity functions ---------------------------------------------------------


class Multiplicity:
    """W-invariant multiplicity data keyed on hyperplane orbits.

    Coxeter orbits (n_H = 2) take a single value, a non-negative integer or
    (in rank one only) a half-integer.  Orbits with n_H > 2 take a vector of
    n_H - 1 non-negative integers.
    """

    def __init__(self, group: ReflectionGroup, values: dict):
        self.group = group
        norm = {}
        orbit_nh = {}
        for h in group.hyperplanes:
            orbit_nh[h.orbit_id] = h.stabilizer_order
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

    def componentwise_le(self, other: "Multiplicity") -> bool:
        for orbit_id, v in self.values.items():
            w = other.values[orbit_id]
            if isinstance(v, tuple):
                if any(a > b for a, b in zip(v, w)):
                    return False
            elif v > w:
                return False
        return True

    def __repr__(self):
        return f"<Multiplicity {self.values}>"

    def __eq__(self, other):
        if not isinstance(other, Multiplicity):
            return NotImplemented
        return self.values == other.values

    def __hash__(self):
        return hash(tuple(sorted((k, v) for k, v in self.values.items())))
