import io
import json
import random
from collections import Counter
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from quasinv import elliptic
from quasinv.cli import run
from quasinv.elliptic import (
    _theta_power,
    check_functional_equation,
    ell_g_generator,
    ell_graded_dimension,
    ell_sheaf_dims,
    invariant_anti_split,
    jacobi_theta,
    section_basis,
    theta,
    theta_divisibility,
    zq_exact_divide,
)
from quasinv.errors import DomainError
from quasinv.linalg import span_of
from quasinv.series import ZQSeries
from span_matrix import rank
from zq_substitutions import negate_z, shift_q, square_z

N = 12
WINDOW = (-8, 8)


@pytest.fixture(scope="module")
def tp():
    return theta("product", WINDOW, N)


@pytest.fixture(scope="module")
def jac():
    return jacobi_theta(WINDOW, N)


def test_q0_parts(tp):
    assert tp.q_slice(0) == {0: Fraction(1), 2: Fraction(-1)}
    ts = theta("sum", WINDOW, N)
    assert ts.q_slice(0) == {0: Fraction(1), 2: Fraction(-1)}


def test_triple_product_identity(tp):
    assert theta("sum", WINDOW, N) == tp


def test_window_too_small_rejected():
    with pytest.raises(DomainError):
        theta("product", (-1, 1), N)
    with pytest.raises(DomainError):
        theta("product", (-3, 3), N)  # support needs more room at this order


def test_jacobi_q0(jac):
    assert jac.q_slice(0) == {-1: Fraction(-1), 1: Fraction(1)}


def test_jacobi_vs_theta(tp, jac):
    assert jac == tp.mul_monomial(Fraction(-1, 2), 0) * -1


def test_theta_inversion_identity(tp):
    assert tp.involution() == tp.mul_monomial(-1, 0) * -1


def test_jacobi_is_odd(jac):
    assert jac.involution() == jac * -1


def test_theta_shift_identity(tp):
    shifted = shift_q(tp)
    target = (tp.mul_monomial(-1, 0) * -1).truncate_q(shifted.q_order)
    assert shifted == target


def test_functional_equation_constants():
    assert check_functional_equation(ZQSeries.one(N), 0) is True


def test_functional_equation_jacobi_squared(jac):
    assert check_functional_equation(jac * jac, 1) is True


def test_functional_equation_theta_fails(tp):
    assert check_functional_equation(tp, 1) is False


@pytest.mark.parametrize("n", range(1, 6))
def test_section_dimensions(n):
    space = section_basis(n, N)
    assert space.dim() == 2 * n
    for el in space.basis:
        assert check_functional_equation(el, n) is True


def test_sections_contain_jacobi_squares(jac):
    space = section_basis(1, N)
    j2 = jac * jac
    j2_neg = negate_z(j2)
    c1 = space.coordinates(j2)
    c2 = space.coordinates(j2_neg)
    assert c1 is not None and c2 is not None
    assert c1 != c2
    # q^0 rows of the two coordinate tuples are independent
    mat = [[col[0] for col in c1], [col[0] for col in c2]]
    assert rank(mat) == 2


def test_sections_contain_doubled_jacobi(jac):
    space = section_basis(2, N)
    jz2 = square_z(jac)
    assert space.coordinates(jz2) is not None
    assert jz2.involution() == jz2 * -1  # anti-invariant


def _residual_coordinates(space, f):
    """`SectionSpace.coordinates` by subtraction: the basis elements times
    the q-columns of f at the basepoints are taken from f one at a time,
    and f is a member when nothing is left below the common q-order."""
    N = min([f.q_order] + [el.q_order for el in space.basis])
    coords = [tuple(f.coeffs.get((2 * b, s), 0) for s in range(N)) for b in space.basepoints]
    residual = f.truncate_q(N)
    for col, el in zip(coords, space.basis):
        col_series = ZQSeries({(0, s): c for s, c in enumerate(col)}, N)
        if col_series:
            residual = residual - el * col_series
    if any(s < N for (_, s) in residual.coeffs):
        return None
    return coords


@pytest.mark.parametrize("q_order", [1, 2, 12, 40])
@pytest.mark.parametrize("n", [1, 2, 5])
def test_coordinates_match_the_residual_reference(n, q_order):
    space = section_basis(n, q_order)
    rng = random.Random(100 * n + q_order)
    columns, combinations = [], []
    for _ in range(4):  # rational combinations with q-polynomial coefficients
        cols = [{s: Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                 for s in rng.sample(range(q_order), min(q_order, 3))} for _ in space.basis]
        f = ZQSeries.zero(q_order)
        for col, el in zip(cols, space.basis):
            f = f + el * ZQSeries({(0, s): c for s, c in col.items()}, q_order)
        columns.append([tuple(col.get(s, 0) for s in range(q_order)) for col in cols])
        combinations.append(f)
    for f, cols in zip(combinations, columns):
        assert space.coordinates(f) == cols
    j2 = _theta_power(1, -1, 2, q_order)
    members = [g for el in space.basis for g in (el, el.involution())] + combinations
    if n == 1:
        members += [j2, negate_z(j2)]
    basepoint_ws = {2 * b for b in space.basepoints}
    non_members = [_theta_power(1, -1, 1, q_order)]  # half-integer z-exponents
    for f in members:
        assert space.coordinates(f) is not None
        key = rng.choice(sorted(f.coeffs))
        removed = ZQSeries({k: c for k, c in f.coeffs.items() if k != key}, q_order)
        changed = ZQSeries({**f.coeffs, key: f.coeffs[key] + 1}, q_order)
        others = sorted(k for k in f.coeffs if k[0] not in basepoint_ws)
        if others:  # the coordinates read the same columns; the rest differs
            wrong = rng.choice(others)
            non_members.append(ZQSeries({**f.coeffs, wrong: 2 * f.coeffs[wrong]}, q_order))
        for g in (removed, changed):
            assert space.coordinates(g) == _residual_coordinates(space, g)
    for f in non_members:
        assert space.coordinates(f) is None
    # members of a longer space, and series shorter than the space, are
    # compared below the common q-order
    longer = section_basis(n, q_order + 2).basis
    for f in members + non_members + longer + [_theta_power(0, 2, 1, q_order), j2, negate_z(j2)]:
        assert space.coordinates(f) == _residual_coordinates(space, f)
        shorter = f.truncate_q(q_order // 2)
        assert space.coordinates(shorter) == _residual_coordinates(space, shorter)
    assert all(space.coordinates(f) is not None for f in longer)


def test_invariant_anti_split_dimensions():
    for n in range(1, 6):
        inv, anti = invariant_anti_split(section_basis(n, N))
        assert len(inv) == n + 1
        assert len(anti) == n - 1


def test_looijenga_monomials_independent(jac):
    j2 = jac * jac
    j2_neg = negate_z(j2)
    for n in range(1, 6):
        monos = [(j2**i) * (j2_neg ** (n - i)) for i in range(n + 1)]
        ws = sorted({w for e in monos for (w, s) in e.coeffs if s == 0})
        mat = [[e.coeffs.get((w, 0), Fraction(0)) for w in ws] for e in monos]
        assert rank(mat) == n + 1


def test_theta_divisibility(jac, tp):
    j2 = jac * jac
    assert j2 == (tp * tp).mul_monomial(-1, 0)  # divisible by theta exactly twice
    assert [theta_divisibility(j2, k)["verdict"] for k in (1, 2, 3)] == [True, True, False]
    assert theta_divisibility(negate_z(j2), 1)["verdict"] is False
    jz2 = square_z(jac)
    assert theta_divisibility(jz2, 1)["verdict"] is True
    assert theta_divisibility(jz2, 2)["verdict"] is False


def test_zq_exact_divide_reconstructs(tp, jac):
    j4 = jac**4
    quotient = zq_exact_divide(j4, jac * jac)
    assert quotient is not None
    assert quotient * (jac * jac) == j4.truncate_q(quotient.q_order)
    assert all(type(c) is int for c in quotient.coeffs.values())
    assert zq_exact_divide(ZQSeries.one(N), tp) is None
    # a non-unit q^0 level brings in Fractions, never floats; the q^2
    # level of the running remainder cancels to a zero entry
    square = ZQSeries({(0, 0): 1, (2, 1): 2, (4, 2): 1}, 3)  # (1 + q z)^2
    quotient = zq_exact_divide(square, ZQSeries({(0, 0): 3, (2, 1): 3}, 3))
    assert quotient == ZQSeries({(0, 0): Fraction(1, 3), (2, 1): Fraction(1, 3)}, 3)
    assert all(type(c) is Fraction for c in quotient.coeffs.values())


@pytest.mark.parametrize("m", range(4))
@pytest.mark.parametrize("n", range(1, 6))
def test_graded_dimension_formula(m, n):
    result = ell_graded_dimension(m, n, N)
    assert result["dimension"] == (n + 1) + max(0, n - m - 1)
    if m == 0:
        assert result["dimension"] == 2 * n


@pytest.mark.parametrize("degree, part, message", [
    (3, 1, "lower bound 1, upper bound 2"),
    (4, 1, "lower bound 2, upper bound 1"),
    (4, 0, "invariant part 4, closed form 7"),
])
def test_graded_dimension_raises_when_its_counts_disagree(monkeypatch, degree, part, message):
    # m = 1, n = 4: five invariant and two divisible anti-invariant sections.
    # With an anti section of degree 3 dropped, the products fall short of
    # the q^0 bound; with one of degree 4 dropped, the q^0 bound falls short
    # of the products, although their total still meets the closed form;
    # with an invariant section dropped, the bounds meet but the total is short
    split = elliptic.invariant_anti_split

    def drop_one(space):
        parts = list(split(space))
        if space.degree == degree:
            parts[part] = list(parts[part])[1:]
        return parts

    monkeypatch.setattr(elliptic, "invariant_anti_split", drop_one)
    with pytest.raises(ArithmeticError, match=message):
        ell_graded_dimension(1, 4, N)


def _divisible_anti_dimension(m: int, n: int, q_order: int) -> int:
    """Q-dimension of the anti-invariant sections f of degree n below q^N
    that jac^(2m) divides there, as the kernel of f = h * jac^(2m) in the
    q-coefficients of f along the anti-invariant sections A_k and the terms
    of h; the projection to f is injective, since jac^(2m) has a nonzero
    q^0 level.  jac^(2m) is z^-m (z - 1)^(2m) U with U a unit whose q^s
    level has z-exponents within +-s, so the q^s level of a quotient
    h = f z^m U^-1 / (z - 1)^(2m) has its z-exponents in
    [lo - s + m, hi + s - m], lo and hi those of the A_k: the window below
    holds every quotient."""
    N = q_order
    space = section_basis(n, N)
    sections = [space.element_from(vec) for vec in invariant_anti_split(space)[1]]
    jac = _times_triple_product(ZQSeries({(1, 0): 1, (-1, 0): -1}, N))
    jac2m = ZQSeries.one(N)
    for _ in range(2 * m):
        jac2m = jac2m * jac
    es = [w // 2 for f in sections for (w, _) in f.coeffs] or [0]
    window = range(min(es) - N + m, max(es) + N - m + 1)
    # the quotient's columns first, level by level: eliminating them is
    # then close to division, and the rows fill in little
    columns = [(jac2m.mul_monomial(e, t), -1) for t in range(N) for e in window]
    columns += [(f.mul_monomial(0, t), 1) for f in sections for t in range(N)]
    rows: dict = {}  # (w, s) -> {column: entry}
    for col, (series, sign) in enumerate(columns):
        for cell, c in series.truncate_q(N).coeffs.items():
            rows.setdefault(cell, {})[col] = sign * c
    order = sorted(rows, key=lambda cell: (cell[1], cell[0]))
    return len(columns) - span_of([rows[cell] for cell in order], len(columns)).dim()


@pytest.mark.parametrize("q_order", [1, 3, 10])
@pytest.mark.parametrize("m, n", [(m, n) for m in range(4) for n in range(1, m + 3)])
def test_graded_dimension_meets_the_truncated_divisible_module(m, n, q_order):
    # the count returned is the q^0 moment-kernel dimension (it raises
    # unless the two bounds meet); over every q-coefficient below q^N the
    # divisible module is free of that rank
    result = ell_graded_dimension(m, n, q_order)
    assert _divisible_anti_dimension(m, n, q_order) == q_order * result["anti_part_divisible"]


def test_elldim_at_the_cap_forms_no_theta_power(monkeypatch):
    # no section of degree n - m exists here, so neither jac^64 nor a
    # division by it is needed: the q^0 moment kernel alone shows that no
    # anti-invariant section is divisible
    calls = Counter()

    def counted(name):
        original = getattr(elliptic, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    for name in ("_theta_power", "zq_exact_divide"):
        monkeypatch.setattr(elliptic, name, counted(name))
    out = io.StringIO()
    with redirect_stdout(out):
        code = run(["elliptic", "elldim", "--mult", "32", "--n", "20", "--qorder", "80", "--json"])
    assert code == 0 and json.loads(out.getvalue())["payload"]["dimension"] == 21
    assert calls == Counter()


@pytest.mark.parametrize("m", range(6))
def test_sheaf_dims(m):
    r = ell_sheaf_dims(m)
    assert (r["h0"], r["h1"]) == (1, 2 * m + 2)
    assert r["w_split"] == (m + 1, m + 1)
    assert r["euler_consistent"]


@pytest.mark.parametrize("m", range(3))
def test_generator_of_anti_module(m):
    report = ell_g_generator(m, 10)
    assert report["simplification_holds"]
    assert report["anti_invariant"]
    assert report["vanishing_order_lower"]
    assert report["vanishing_order_exact"]


def test_triple_product_at_order_sixteen():
    window = (-10, 10)
    assert theta("sum", window, 16) == theta("product", window, 16)


def test_section_dimension_n6():
    assert section_basis(6, N).dim() == 12


@pytest.mark.parametrize("m, q_order", [(0, 50), (3, 40)])
def test_generator_holds_at_high_q_order(m, q_order):
    # the generator's z-support grows with the q-order, past any window
    # fixed by m alone
    report = ell_g_generator(m, q_order)
    assert report["simplification_holds"]
    assert report["anti_invariant"]
    assert report["vanishing_order_lower"]
    assert report["vanishing_order_exact"]
    assert report["q_certified"] == q_order


@pytest.mark.parametrize("q_order", [12, 20, 40])
def test_one_is_not_divisible_by_theta(q_order):
    # the theta power's z-support grows with the q-order, not with the
    # support of the dividend
    assert theta_divisibility(ZQSeries.one(q_order), 1) == {"verdict": False, "power": 1}


def _times_triple_product(series: ZQSeries) -> ZQSeries:
    """series * prod_(0<n<N) (1 - q^n z)(1 - q^n / z), N its q-order: the
    factor by factor reference for the theta powers."""
    N = series.q_order
    for n in range(1, N):
        series = series * ZQSeries({(0, 0): 1, (2, n): -1}, N)
        series = series * ZQSeries({(0, 0): 1, (-2, n): -1}, N)
    return series


@pytest.mark.parametrize("a, b", [(0, 2), (1, -1)])
@pytest.mark.parametrize("k", [0, 1, 2, 3, 5])
@pytest.mark.parametrize("q_order", [1, 2, 5, 12])
def test_theta_power_matches_repeated_products(a, b, k, q_order):
    base = _times_triple_product(ZQSeries({(a, 0): 1, (b, 0): -1}, q_order))
    expected = ZQSeries.one(q_order)
    for _ in range(k):
        expected = expected * base
    power = _theta_power(a, b, k, q_order)
    assert power == expected
    assert all(type(c) is int for c in power.coeffs.values())


def test_negative_theta_power_rejected(jac):
    with pytest.raises(ValueError):
        _theta_power(1, -1, -1, N)
    with pytest.raises(ValueError):
        ell_graded_dimension(-1, 3, N)
    with pytest.raises(ValueError):
        theta_divisibility(jac * jac, -1)


def test_theta_divisibility_inconclusive_at_empty_range():
    empty = ZQSeries({(0, 0): 1}, 0)
    assert theta_divisibility(empty, 1)["verdict"] == "inconclusive"
