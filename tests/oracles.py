"""Independent brute-force routes used to validate the main solvers.

The divisibility conditions are imposed here through directional derivatives
restricted to the hyperplane (a polynomial q is divisible by alpha^K exactly
when its first K derivatives along a transversal direction vanish on the
hyperplane), and ranks are computed by a self-contained forward elimination.
This deliberately avoids the library's eigen-coordinate constraint rows.  The
group acts here by substituting the linear forms of the inverse matrices
(`act`), not through the library's closed-form monomial action, and the
character idempotents come from the literal group algebra of
`group_algebra`.  The half-integer rank-one modules and the Hilbert series
numerators of Q_m are written down in closed form (`cw_valued_basis`,
`closed_form_numerator`).  Membership in the fake K-theory subrings of
Z[[t]] is a dense triangular solve over Fractions (`fake_k_membership`).
"""

import re
from collections import Counter
from fractions import Fraction

from group_algebra import idempotent, inverse
from quasinv.errors import DomainError
from quasinv.poly import Polynomial, linear_coefficients, monomials_of_degree


def act(group, i, p: Polynomial) -> Polynomial:
    """p o w_i^(-1), by substituting the linear forms x_k o w_i^(-1) given by
    the rows of the inverse matrix, expanded with the ring operations."""
    inv = group.elements[inverse(group, i)]
    x = [Polynomial.variable(group.variables, name) for name in group.variables]
    forms = [sum((x[j] * c for j, c in enumerate(row) if c), Polynomial.zero(group.variables))
             for row in inv]
    acc = Polynomial.zero(group.variables)
    for exp, c in p.terms.items():
        term = Polynomial.constant(group.variables, c)
        for form, e in zip(forms, exp):
            if e:
                term = term * form**e
        acc = acc + term
    return acc


def apply(element, p: Polynomial) -> Polynomial:
    """A group algebra element acting as sum_i c_i act(i, p)."""
    acc = Polynomial.zero(p.vars)
    for i, c in element.coeffs.items():
        acc = acc + act(element.group, i, p) * c
    return acc


def derivative(p: Polynomial, var_index: int) -> Polynomial:
    terms = {}
    for exp, c in p.terms.items():
        e = exp[var_index]
        if e:
            new = list(exp)
            new[var_index] -= 1
            key = tuple(new)
            terms[key] = terms.get(key, 0) + c * e
    return Polynomial(p.vars, terms)


def directional_derivative(p: Polynomial, vector) -> Polynomial:
    acc = Polynomial.zero(p.vars)
    for i, v in enumerate(vector):
        if v:
            acc = acc + derivative(p, i) * v
    return acc


def transversal_vector(alpha: Polynomial):
    """A vector v with alpha(v) = 1."""
    coeffs = linear_coefficients(alpha)
    pivot = next(i for i, c in enumerate(coeffs) if c)
    v = [Fraction(0)] * len(coeffs)
    c = coeffs[pivot]
    v[pivot] = Fraction(1) / c if isinstance(c, Fraction) else c.inverse()
    return v


def hyperplane_spanning_vectors(alpha: Polynomial):
    coeffs = linear_coefficients(alpha)
    pivot = next(i for i, c in enumerate(coeffs) if c)
    c_p = coeffs[pivot]
    inv = Fraction(1) / c_p if isinstance(c_p, Fraction) else c_p.inverse()
    out = []
    for j in range(len(coeffs)):
        if j == pivot:
            continue
        v = [Fraction(0)] * len(coeffs)
        v[j] = Fraction(1)
        v[pivot] = -coeffs[j] * inv
        out.append(v)
    return out


def restrict_to_span(p: Polynomial, spanning):
    """Coefficients of p(sum_k t_k h_k) as a map t-exponent -> scalar."""
    if not spanning:
        zero_exp = (0,) * len(p.vars)
        val = p.terms.get(zero_exp)
        return {(): val} if val else {}
    out: dict = {}
    nt = len(spanning)
    for exp, c in p.terms.items():
        partial = {(0,) * nt: c}
        for i, e in enumerate(exp):
            for _ in range(e):
                nxt: dict = {}
                for texp, val in partial.items():
                    for k in range(nt):
                        h = spanning[k][i]
                        if h:
                            key = tuple(
                                t + (1 if j == k else 0) for j, t in enumerate(texp)
                            )
                            nxt[key] = nxt.get(key, 0) + val * h
                partial = nxt
        for texp, val in partial.items():
            out[texp] = out.get(texp, 0) + val
    return {k: v for k, v in out.items() if v}


def oracle_rank(rows) -> int:
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        sel = None
        for i in range(rank, len(rows)):
            if rows[i][col]:
                sel = i
                break
        if sel is None:
            continue
        rows[rank], rows[sel] = rows[sel], rows[rank]
        piv = rows[rank][col]
        piv_inv = Fraction(1) / piv if isinstance(piv, Fraction) else piv.inverse()
        for i in range(rank + 1, len(rows)):
            if rows[i][col]:
                f = rows[i][col] * piv_inv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def _condition_ops(group, mult):
    """(operator, required order, transversal vector, hyperplane basis) for
    every defining congruence."""
    ops = []
    for h in group.hyperplanes:
        m_h = mult.of(h)
        v = transversal_vector(h.alpha)
        spanning = hyperplane_spanning_vectors(h.alpha)
        if h.stabilizer_order == 2:
            if m_h:
                s = _reflection(group, h)
                ops.append((lambda p, s=s: act(group, s, p) - p, 2 * m_h, v, spanning))
        else:
            for i in range(1, h.stabilizer_order):
                need = h.stabilizer_order * m_h[i - 1]
                if need:
                    e = idempotent(group, h, (-i) % h.stabilizer_order)
                    ops.append((lambda p, e=e: apply(e, p), need, v, spanning))
    return ops


def brute_is_quasi_invariant(group, mult, p: Polynomial) -> bool:
    """Membership by the derivative route: each condition polynomial and its
    first K - 1 transversal derivatives vanish on the hyperplane."""
    for op, need, v, spanning in _condition_ops(group, mult):
        q = op(p)
        for _ in range(need):
            if restrict_to_span(q, spanning):
                return False
            q = directional_derivative(q, v)
    return True


def monomial(variables, exp) -> Polynomial:
    """The monomial x^exp in the given variables."""
    return Polynomial(variables, {tuple(exp): 1})


def brute_quasi_dims(group, mult, max_degree):
    """Graded dimensions of the quasi-invariants by the derivative route."""
    ops = _condition_ops(group, mult)
    dims = []
    for d in range(max_degree + 1):
        monos = monomials_of_degree(group.variables, d)
        rows = []
        row_index: dict = {}
        for col, exp in enumerate(monos):
            mono = monomial(group.variables, exp)
            for oi, (op, need, v, spanning) in enumerate(ops):
                q = op(mono)
                for a in range(need):
                    coeffs = restrict_to_span(q, spanning)
                    for texp, val in coeffs.items():
                        key = (oi, a, texp)
                        if key not in row_index:
                            row_index[key] = len(rows)
                            rows.append([Fraction(0)] * len(monos))
                        rows[row_index[key]][col] = rows[row_index[key]][col] + val
                    if a + 1 < need:
                        q = directional_derivative(q, v)
        dims.append(len(monos) - oracle_rank(rows))
    return dims


def _reflection(group, h):
    ident = group.identity_index()
    for i in group.stabilizer(h):
        if i != ident:
            return i
    raise AssertionError("hyperplane without reflection")


def brute_invariant_dims(group, max_degree):
    """Invariant dimensions by averaging monomials and ranking the span."""
    dims = []
    for d in range(max_degree + 1):
        monos = monomials_of_degree(group.variables, d)
        index = {m: i for i, m in enumerate(monos)}
        rows = []
        for exp in monos:
            mono = monomial(group.variables, exp)
            avg = Polynomial.zero(group.variables)
            for i in range(group.order):
                avg = avg + act(group, i, mono)
            row = [Fraction(0)] * len(monos)
            for e, c in avg.terms.items():
                row[index[e]] = c
            rows.append(row)
        dims.append(oracle_rank(rows))
    return dims


def brute_orbit_count(group) -> int:
    """Number of hyperplane orbits by direct action on normalized forms."""
    forms = [h.alpha for h in group.hyperplanes]
    seen = set()
    orbits = 0
    for start in forms:
        if start in seen:
            continue
        orbits += 1
        frontier = [start]
        while frontier:
            f = frontier.pop()
            if f in seen:
                continue
            seen.add(f)
            for i in range(group.order):
                img = act(group, i, f)
                norm = _normalize(img)
                if norm not in seen:
                    frontier.append(norm)
    return orbits


def _normalize(alpha: Polynomial) -> Polynomial:
    coeffs = linear_coefficients(alpha)
    lead = next(c for c in coeffs if c)
    inv = Fraction(1) / lead if isinstance(lead, Fraction) else lead.inverse()
    return alpha * inv


# -- group structure by matrix arithmetic --------------------------------------


def matrix_product(a, b):
    n = len(a)
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(n)), start=Fraction(0)) for j in range(n))
        for i in range(n)
    )


def matrix_vector(m, v):
    return tuple(sum((c * x for c, x in zip(row, v)), start=Fraction(0)) for row in m)


def matrix_structure(group):
    """(products, inverses, identity) of the element matrices: each product
    looked up in the element list, each inverse found by searching for the
    factor whose product with it is the identity matrix."""
    index = {m: i for i, m in enumerate(group.elements)}
    products = [[index[matrix_product(a, b)] for b in group.elements] for a in group.elements]
    identity = next(
        i for i, m in enumerate(group.elements)
        if all(c == (r == k) for r, row in enumerate(m) for k, c in enumerate(row))
    )
    inverses = [row.index(identity) for row in products]
    return products, inverses, identity


def fixed_hyperplane(group, i):
    """The normalized form cutting out the fixed hyperplane of element i, or
    None when m - I does not have rank one."""
    m = group.elements[i]
    diff = [[c - (r == k) for k, c in enumerate(row)] for r, row in enumerate(m)]
    if oracle_rank(diff) != 1:
        return None
    row = next(r for r in diff if any(r))
    alpha = Polynomial.zero(group.variables)
    for name, c in zip(group.variables, row):
        if c:
            alpha = alpha + Polynomial.variable(group.variables, name) * c
    return _normalize(alpha)


def pointwise_stabilizer(group, alpha):
    """Indices of the elements fixing every vector of ker(alpha)."""
    basis = hyperplane_spanning_vectors(alpha)
    return [
        i for i, m in enumerate(group.elements)
        if all(matrix_vector(m, v) == tuple(v) for v in basis)
    ]


def _factor_orders(spec: str) -> list:
    """The orders l of the rank-one factors Z/l of a product spec, A1 as l = 2."""
    orders = []
    for token in re.split(r"\s*x\s*", spec.strip()):
        power = re.fullmatch(r"A1\^(\d+)", token)
        orders += [2] * int(power.group(1)) if power else [2 if token == "A1" else int(token[2:])]
    return orders


def closed_form_degrees(spec: str) -> list:
    """The degrees of the fundamental invariants, from the group spec alone:
    (2, k) for I2(k), and the factor orders l of a product of rank-one
    factors, whose invariants are generated by the x_i^l."""
    dihedral = re.fullmatch(r"I2\((\d+)\)", spec.strip())
    return [2, int(dihedral.group(1))] if dihedral else _factor_orders(spec)


def closed_form_numerator(spec: str, values) -> Counter:
    """The numerator of the Hilbert series of Q_m over the product of
    (1 - t^d_i), as {degree: coefficient}, in closed form from the group
    spec and the multiplicity values alone (Berest-Etingof-Ginzburg and
    Felder-Veselov for Coxeter groups, Berest-Chalykh for complex ones).

    I2(k), with M the sum of m over the k reflections: 1 + t^(k + 2M) +
    sum over 1 <= j <= (k - 1)/2 of 2 t^M (t^j + t^(k - j)), plus
    t^(k/2) (t^(k m_0) + t^(k m_1)) for even k.  Z/l with values
    (m_1, ..., m_(l-1)) and m_0 = 0: sum over i < l of t^(i + l m_i); A1 is
    l = 2.  A product of rank-one factors multiplies its factors' numerators;
    each value belongs to the factor of its shape (an int to A1, an
    (l - 1)-tuple to Z/l)."""
    values = list(values)
    dihedral = re.fullmatch(r"I2\((\d+)\)", spec.strip())
    if dihedral:
        k = int(dihedral.group(1))
        total = k * sum(values) // len(values)  # one orbit of k, or two of k/2
        num = Counter({0: 1, k + 2 * total: 1})
        for j in range(1, (k - 1) // 2 + 1):
            num[total + j] += 2
            num[total + k - j] += 2
        if k % 2 == 0:
            for m in values:
                num[k // 2 + k * m] += 1
        return num
    shapes = [len(v) + 1 if isinstance(v, tuple) else 2 for v in values]
    if sorted(_factor_orders(spec)) != sorted(shapes):
        raise ValueError(f"values {values} do not fit the factors of {spec}")
    num = Counter({0: 1})
    for v in values:
        ms = (0, *v) if isinstance(v, tuple) else (0, v)
        factor = [i + len(ms) * m for i, m in enumerate(ms)]
        num, product = Counter(), num
        for a, c in product.items():
            for b in factor:
                num[a + b] += c
    return num


# -- the half-integer modules in rank one, in closed form ----------------------
# `tower.h_t_invariants` realizes them as fiber products; this basis is the
# reference that its layer dimensions are compared against.


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


# -- fake K-theory subrings --------------------------------------------------------------
# R_m = Z + Z P + ... + Z P^(m-1) + P^m Z[[t]] inside Z[[t]], as a linear system.


def fake_k_membership(p_coeffs, m: int, f_coeffs, K: int) -> str:
    """Membership of f in R_m through t^(K-1), from the system
    f = sum_(j<m) c_j P^j + P^m g (mod t^K) in the unknowns c_j and g_k whose
    columns reach below t^K.  Each column's lowest entry (N^j at t^(2j), N^m
    at t^(2m+k)) sits in its own row, so the dense system is triangular and
    is solved row by row over Fractions: "non-member" when a determined
    unknown is not an integer or a row without an unknown of its own fails,
    "inconclusive" when K <= 2m and nothing fails, "member" otherwise."""
    if m == 0:
        return "member"
    powers = [[1] + [0] * (K - 1)]
    for _ in range(m):
        prev = powers[-1]
        powers.append([sum(prev[a] * p_coeffs[e - a] for a in range(e + 1)) for e in range(K)])
    columns = [powers[j] for j in range(m) if 2 * j < K]
    columns += [[0] * k + powers[m][: K - k] for k in range(K - 2 * m)]
    matrix = [[col[e] for col in columns] for e in range(K)]
    pivots = {}  # row -> column whose lowest nonzero entry is in that row
    for c, col in enumerate(columns):
        pivots[next(e for e, v in enumerate(col) if v)] = c
    x = [Fraction(0)] * len(columns)
    for e, row in enumerate(matrix):
        residual = Fraction(f_coeffs[e]) - sum(v * x[c] for c, v in enumerate(row))
        if e in pivots:
            c = pivots[e]
            x[c] = residual / row[c]
            if x[c].denominator != 1:
                return "non-member"
        elif residual:
            return "non-member"
    return "inconclusive" if K <= 2 * m else "member"
