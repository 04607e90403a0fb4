"""Theta functions on the multiplicative model of the Tate curve, section
spaces of powers of the degree-two line bundle, and the graded section
modules attached to the rank-one tower.

Everything is a truncated exact computation: a series is certified through
its q-order on its full (finite) z-support, and every identity reported
carries the q-order through which it was checked.  Half-integer z-powers
ride on the w = z^(1/2) bookkeeping of ZQSeries.
"""

from __future__ import annotations

from math import comb

from quasinv.errors import DomainError, InconclusiveError
from quasinv.laurent import exact_div
from quasinv.linalg import nullspace
from quasinv.series import PowerSeries, ZQSeries, _q_levels

DEFAULT_Q_ORDER = 12
DEFAULT_WINDOW = (-13, 13)


def _check_window(series: ZQSeries, z_window) -> None:
    lo, hi = z_window
    zlo, zhi = series.z_window()
    if zlo < lo or zhi > hi:
        raise DomainError(
            f"window [{lo}, {hi}] too small: support reaches [{zlo}, {zhi}]"
        )


def theta(form: str, z_window=DEFAULT_WINDOW, q_order: int = DEFAULT_Q_ORDER) -> ZQSeries:
    """The odd theta function with simple zeros on the q-power lattice, in
    its product or sum normal form.

    product: (1 - z) prod_(n>0) (1 - q^n z)(1 - q^n / z)
    sum:     (sum_n q^(n(n-1)/2) (-z)^n) / prod_(n>0) (1 - q^n)

    The two agree coefficientwise on the common certified range; the
    comparison itself is a regression test, not an assumption.
    """
    lo, hi = z_window
    if lo > -2 or hi < 2:
        raise DomainError("window must contain [-2, 2]")
    if form == "product":
        series = _theta_power(0, 2, 1, q_order)
    elif form == "sum":
        # n(n-1)/2 >= q_order past either end of the range, where ZQSeries drops the term
        terms = {(2 * n, n * (n - 1) // 2): (-1) ** (n % 2) for n in range(-q_order, q_order + 2)}
        inverse = _euler_product(q_order).inverse()
        series = ZQSeries(terms, q_order) * ZQSeries.from_q_coeffs(inverse.coeffs, q_order)
    else:
        raise DomainError(f"unknown theta form {form!r}")
    _check_window(series, z_window)
    return series


def _theta_power(a: int, b: int, k: int, N: int) -> ZQSeries:
    """(w^a - w^b)^k prod_(0<n<N) (1 - q^n z)^k (1 - q^n / z)^k below q^N,
    w = z^(1/2), each power written out by the binomial theorem: (0, 2) gives
    the product theta, (1, -1) the Jacobi theta.  The factors run from
    n = N - 1 down, the sparsest first, and the prefactor comes last."""
    if k < 0:
        raise ValueError("negative power of a theta series")
    binomials = [(-1) ** j * comb(k, j) for j in range(k + 1)]
    series = ZQSeries.one(N)
    for n in range(N - 1, 0, -1):
        for w in (2, -2):
            series = series * ZQSeries({(w * j, n * j): c for j, c in enumerate(binomials)}, N)
    return series * ZQSeries({(a * (k - j) + b * j, 0): c for j, c in enumerate(binomials)}, N)


def _euler_product(q_order: int) -> PowerSeries:
    """prod_(0<n<q_order) (1 - q^n), exact below q^q_order."""
    acc = PowerSeries([1], q_order, "q")
    for n in range(1, q_order):
        acc = acc * PowerSeries([1] + [0] * (n - 1) + [-1], q_order, "q")
    return acc


def jacobi_theta(z_window=DEFAULT_WINDOW, q_order: int = DEFAULT_Q_ORDER) -> ZQSeries:
    """(z^(1/2) - z^(-1/2)) prod_(n>0) (1 - q^n z)(1 - q^n / z); an odd
    function of z supported on half-integer powers."""
    series = _theta_power(1, -1, 1, q_order)
    _check_window(series, z_window)
    return series


def check_functional_equation(f: ZQSeries, n: int) -> bool:
    """Whether f(qz) q^n z^(2n) = f(z) holds on the exactly decidable cells.

    The substitution sends the cell (z-exp a, q-exp b) to
    (a + 2n, a + b + n), so the substituted side is determined at a cell
    (A, B) precisely when the pre-image q-level B - A + n lies below the
    truncation order N.  A discrepancy refutes the equation only on such
    decidable cells; everything above them would need discarded terms.
    Negative q-exponents on the substituted side are decidable cells and
    refute the equation (the right-hand side is a power series in q).
    """
    if any(w % 2 for (w, _) in f.coeffs):
        raise DomainError("functional equations are stated for integer z-exponents")
    N = f.q_order
    if N <= 0:
        raise InconclusiveError("no decidable cells for the substitution")
    diff: dict = {}  # substituted side minus f
    for (w, s), c in f.coeffs.items():
        for key, v in (((w + 4 * n, s + w // 2 + n), c), ((w, s), -c)):
            diff[key] = diff.get(key, 0) + v
    return not any(v and s - w // 2 + n < N and s < N for (w, s), v in diff.items())


# -- section spaces ----------------------------------------------------------------


class SectionSpace:
    """Solutions of f(qz) q^n z^(2n) = f(z): a free module of rank 2n over
    the truncated q-series ring, one coordinate per residue class of
    z-exponents mod 2n, with tails filled by the two-sided recurrence
    a_(j+2n) = q^(j+n) a_j.

    Each basis element visits every z-exponent of its residue class exactly
    once, with coefficient 1 at q^0 on its basepoint, so the coordinate of a
    member along class r is literally the q-column of the member at the
    basepoint z-exponent.
    """

    def __init__(self, degree: int, q_order: int, basis, basepoints):
        self.degree = degree
        self.q_order = q_order
        self.basis = basis  # list of ZQSeries
        self.basepoints = basepoints  # z-exponent where each coordinate reads off

    def dim(self) -> int:
        return len(self.basis)

    def coordinates(self, f: ZQSeries):
        """q-series coordinates (tuples of coefficients) in the basis if f
        lies in the span over the truncated q-ring, else None.  They are
        the q-columns of f at the basepoints; the basis elements have
        disjoint z-supports, so their combination with those columns is
        formed once, term by term below the common q-order N, and f is a
        member exactly when its terms below q^N are that combination's."""
        N = min([f.q_order] + [el.q_order for el in self.basis])
        coords = [tuple(f.coeffs.get((2 * b, s), 0) for s in range(N)) for b in self.basepoints]
        combination = {(w, e + s): c * a
                       for col, el in zip(coords, self.basis) for (w, e), c in el.coeffs.items()
                       for s, a in enumerate(col[:max(0, N - e)]) if a}
        if combination != {key: c for key, c in f.coeffs.items() if key[1] < N}:
            return None
        return coords

    def element_from(self, coords: dict) -> ZQSeries:
        """Combination with rational coefficients, from the sparse
        coordinates `{index: coefficient}` of a `nullspace` vector."""
        acc = ZQSeries.zero(self.q_order)
        for j, c in coords.items():
            acc = acc + self.basis[j] * c
        return acc


def section_basis(n: int, q_order: int = DEFAULT_Q_ORDER) -> SectionSpace:
    """Basis of the degree-n section space; its dimension is exactly 2n.

    Each residue class r mod 2n carries one basis element, normalized to
    coefficient 1 at q^0 on the z-exponent in [-n, n) of that class (the
    minimum of the accumulated q-weight, so all tail exponents are
    non-negative)."""
    if n < 1:
        raise DomainError("the line bundle degree must be positive")
    basis = []
    basepoints = []
    for r in range(2 * n):
        base = ((r + n) % (2 * n)) - n  # representative in [-n, n)
        coeffs = {(2 * base, 0): 1}
        # a step k -> k + 2 sign n from the basepoint adds sign k + n to the
        # q-exponent (a_(k+2n) = q^(k+n) a_k), upward and then downward
        for sign in (1, -1):
            k, e = base, sign * base + n
            while e < q_order:
                k += 2 * sign * n
                coeffs[(2 * k, e)] = 1
                e += sign * k + n
        series = ZQSeries(coeffs, q_order)
        if not check_functional_equation(series, n):
            raise ArithmeticError("basis element fails its functional equation")
        basis.append(series)
        basepoints.append(base)
    return SectionSpace(n, q_order, basis, basepoints)


def invariant_anti_split(space: SectionSpace):
    """Coordinate bases of the invariant and anti-invariant submodules under
    z -> 1/z, computed by exact linear algebra on the action matrix.

    The involution permutes the residue classes (r -> -r) with constant unit
    coefficients, so the action matrix is rational and the module ranks
    coincide with the ranks of the rational eigenspaces."""
    d = space.dim()
    action = []
    for el in space.basis:
        coords = space.coordinates(el.involution())
        if coords is None or any(c for col in coords for c in col[1:]):
            raise ArithmeticError("section space not stable under the involution")
        action.append([col[0] for col in coords])
    inv_rows = [[action[j][i] - (1 if i == j else 0) for j in range(d)] for i in range(d)]
    anti_rows = [[action[j][i] + (1 if i == j else 0) for j in range(d)] for i in range(d)]
    return nullspace(inv_rows), nullspace(anti_rows)


# -- divisibility --------------------------------------------------------------------


def zq_exact_divide(f: ZQSeries, g: ZQSeries):
    """Quotient f / g as a ZQSeries, or None when g does not divide f within
    the certified range.  Requires a nonzero q^0 level of g; each series'
    terms are grouped by q-level once, and the quotient is solved level by
    level with exact Laurent division."""
    N = min(f.q_order, g.q_order)
    f_levels = dict(_q_levels(f.coeffs, N))
    g_levels = {s: dict(row) for s, row in _q_levels(g.coeffs, N)}
    g0 = g_levels.get(0)
    if not g0:
        raise DomainError("divisor must have a nonzero q^0 part")
    out_levels = []
    for s in range(N):
        acc = dict(f_levels.get(s, ()))
        for s2, out in enumerate(out_levels):
            for w1, c1 in g_levels.get(s - s2, {}).items():
                for w2, c2 in out.items():
                    acc[w1 + w2] = acc.get(w1 + w2, 0) - c1 * c2
        try:
            out_levels.append(exact_div(acc, g0))
        except ArithmeticError:
            return None
    return ZQSeries({(w, s): c for s, out in enumerate(out_levels) for w, c in out.items()}, N)


def theta_divisibility(f: ZQSeries, k: int) -> dict:
    """Whether f is divisible by the k-th power of the odd theta function,
    decided by exact level-by-level division by that power formed at the
    q-order of f (no z-window); a positive verdict returns the quotient and
    the q-order of the certificate.  A negative k raises ValueError."""
    if f.q_order < 1:
        return {"verdict": "inconclusive", "reason": "empty certified q-range"}
    quotient = zq_exact_divide(f, _theta_power(0, 2, k, f.q_order))
    if quotient is None:
        return {"verdict": False, "power": k}
    return {
        "verdict": True,
        "power": k,
        "quotient": quotient,
        "q_certified": quotient.q_order,
    }


# -- graded section modules of the tower ------------------------------------------------


def ell_graded_dimension(m: int, n: int, q_order: int = DEFAULT_Q_ORDER) -> dict:
    """Degree-n dimension of the invariant sections plus the anti-invariant
    sections divisible by the 2m-th power of the Jacobi theta function.

    The divisible anti-invariant submodule M is bounded by exact linear
    algebra.  From below: the products g * jac^(2m) of the anti-invariant
    sections g of degree n-m, each verified as an anti-invariant section
    (multiplying by a nonzero series is injective).  From above: the kernel
    of the 2m moment rows sum_e c_e e^j, j < 2m, on the q^0 levels
    sum_e c_e z^e of the anti-invariant sections; M is saturated (jac^(2m)
    has a nonzero q^0 level), so its rank is the dimension of its q^0
    image, whose levels the q^0 level z^-m (z - 1)^(2m) of jac^(2m) divides.
    Bounds that differ, or a total other than the closed form
    (n+1) + max(0, n-m-1), raise: a computation bug, not a truncation.
    """
    space = section_basis(n, q_order)
    inv, anti = invariant_anti_split(space)
    lower_bound = 0
    if n - m >= 1:
        jac2m = _theta_power(1, -1, 2 * m, q_order)
        lower = section_basis(n - m, q_order)
        for vec in invariant_anti_split(lower)[1]:
            prod = lower.element_from(vec) * jac2m
            if space.coordinates(prod) is None or prod.involution() + prod:
                raise ArithmeticError("theta-multiple is not an anti-invariant section")
            lower_bound += 1
    # on the exponents w = 2e, row j is scaled by 2^j and keeps its kernel
    levels = [space.element_from(vec).q_slice(0) for vec in anti]
    moments = [[sum(c * w**j for w, c in level.items()) for level in levels]
               for j in range(2 * m)]
    upper_bound = len(nullspace(moments, len(levels)))
    formula = (n + 1) + max(0, n - m - 1)
    if lower_bound != upper_bound or len(inv) + lower_bound != formula:
        raise ArithmeticError(f"anti-invariant lower bound {lower_bound}, upper bound "
                              f"{upper_bound}; invariant part {len(inv)}, closed form {formula}")
    return {
        "dimension": formula,
        "invariant_part": len(inv),
        "anti_part_divisible": lower_bound,
        "q_certified": q_order,
    }


def ell_sheaf_dims(m: int) -> dict:
    """Cohomology bookkeeping of the rank-one tower sheaf: the six-term
    sequence 0 -> H^0(E) -> H^0(O)^2 -> H^0(O/J^(2m+1)) -> H^1(E) ->
    H^1(O)^2 -> 0 with the middle restriction map of rank one."""
    if m < 0:
        raise DomainError("multiplicity must be non-negative")
    h0_structure = 1          # constants on each of the two copies
    h1_structure = 1          # genus-one curve
    sky = 2 * m + 1           # length of the fat-point quotient
    middle_rank = 1           # difference of restrictions kills the diagonal constants
    h0 = 2 * h0_structure - middle_rank
    h1 = (sky - middle_rank) + 2 * h1_structure
    euler_lhs = h0 - h1
    euler_rhs = 2 * (h0_structure - h1_structure) - sky
    return {
        "h0": h0,
        "h1": h1,
        "w_split": ((h1 // 2), (h1 // 2)),
        "euler_consistent": euler_lhs == euler_rhs,
    }


def ell_g_generator(m: int, q_order: int = DEFAULT_Q_ORDER) -> dict:
    """The anti-invariant module generator (Theta(z) - Theta(1/z)) *
    jacobi^(2m), its simplification (1 + 1/z) Theta(z) jacobi^(2m), and its
    exact vanishing order along Theta, each on its full z-support."""
    th = _theta_power(0, 2, 1, q_order)
    jac2m = _theta_power(1, -1, 2 * m, q_order)
    g = (th - th.involution()) * jac2m
    simplified = (ZQSeries.one(q_order) + ZQSeries({(-2, 0): 1}, q_order)) * th * jac2m
    anti = g.involution() + g
    lower = theta_divisibility(g, 2 * m + 1)
    upper = theta_divisibility(g, 2 * m + 2)
    return {
        "generator": g,
        "simplification_holds": g == simplified,
        "anti_invariant": not anti,
        "vanishing_order_lower": lower["verdict"] is True,
        "vanishing_order_exact": upper["verdict"] is False,
        "q_certified": min(g.q_order, q_order),
    }
