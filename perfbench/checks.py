"""Output checks.  Each returns a list of problems; empty means correct.

Freeness answers are checked against the certificate's own invariants and,
through degree 10, against `tests/oracles.brute_quasi_dims`, which imposes
the congruences by derivatives instead of the engine's adapted coordinates.
CLI answers are checked against closed forms where the mathematics gives
one (rank-one dimensions, section dimensions, the Jacobi triple product,
the exponential series) and against the verification fields of `--json`.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import factorial

ORACLE_DEGREE = 10


def freeness(group, mult, cert, oracle_dims) -> list:
    problems = []
    expected_shift = group.rank - 2 * mult.coxeter_total()
    if cert.status != "free":
        problems.append(f"status {cert.status}")
    if cert.rank != group.order:
        problems.append(f"rank {cert.rank} != |W| = {group.order}")
    if not cert.hilbert.is_palindromic():
        problems.append("numerator not palindromic")
    if cert.hilbert.numerator_at_one() != group.order:
        problems.append(f"numerator(1) = {cert.hilbert.numerator_at_one()} != |W|")
    if cert.gorenstein_shift != expected_shift:
        problems.append(f"shift {cert.gorenstein_shift} != {expected_shift}")
    dims = cert.hilbert.dims(ORACLE_DEGREE)
    if list(dims) != list(oracle_dims):
        problems.append(f"dims {dims} != oracle {oracle_dims}")
    return problems


# -- closed forms -------------------------------------------------------------


def rank_one_dims(m: int, through: int) -> list:
    """Q_m(A1) has x^d exactly when d is even or d >= 2m + 1."""
    return [1 if d % 2 == 0 or d >= 2 * m + 1 else 0 for d in range(through + 1)]


def _convolve(a, b):
    return [sum(a[i] * b[d - i] for i in range(d + 1)) for d in range(len(a))]


def _partitions(n: int) -> list:
    p = [1] + [0] * n
    for part in range(1, n + 1):
        for k in range(part, n + 1):
            p[k] += p[k - part]
    return p


def theta_terms(q_order: int) -> dict:
    """(1 - z) prod_(n>0) (1 - q^n z)(1 - q^n / z) through q^(q_order - 1),
    from the triple product: the z^a q^s coefficient is
    (-1)^a p(s - a(a-1)/2) with p the partition function."""
    p = _partitions(q_order)
    out = {}
    for a in range(-q_order - 1, q_order + 2):
        base = a * (a - 1) // 2
        for s in range(base, q_order):
            out[(a, s)] = (-1) ** (a % 2) * p[s - base]
    return out


def _series_terms(encoded) -> dict:
    out = {}
    for t in encoded["terms"]:
        z = Fraction(t["z_exp"])
        if z.denominator != 1:
            raise ValueError(f"half-integer z exponent {z}")
        out[(int(z), t["q_exp"])] = Fraction(t["coeff"])
    return out


def _problems(**conditions) -> list:
    return [name for name, ok in conditions.items() if not ok]


# -- one check per command kind -------------------------------------------------


def _arg(doc, flag, default=None):
    argv = doc["command"]
    return argv[argv.index(flag) + 1] if flag in argv else default


def _group(doc):
    p = doc["payload"]
    return _problems(order=p["order"] == 6, rank=p["rank"] == 2,
                     degrees=p["invariant_degrees"] == [2, 3],
                     hyperplanes=len(p["hyperplanes"]) == 3)


def _basis(doc):
    expected = _convolve(rank_one_dims(1, 12), rank_one_dims(2, 12))
    return _problems(dims=doc["payload"]["dims"] == expected)


def _hilbert(doc):
    p = doc["payload"]
    return _problems(numerator=p["series"]["numerator"] == [1, 0, 0, 0, 0, 1],
                     dims=p["dims"] == rank_one_dims(2, 12))


def _freeness(doc):
    p = doc["payload"]
    # I2(4) with m = 2 on one orbit of two lines and 1 on the other
    return _problems(status=p["status"] == "free", rank=p["rank"] == 8,
                     palindromic=p["palindromic"] is True,
                     shift=p["gorenstein_shift"] == p["predicted_shift"] == 2 - 2 * 6)


def _filtration(doc):
    p = doc["payload"]
    codims = [a - b for a, b in zip(rank_one_dims(1, 8), rank_one_dims(2, 8))]
    return _problems(included=p["included"] is True, codims=p["codims"] == codims,
                     intersection=p["intersection_equals_invariants"] is True)


def _tower(doc):
    p = doc["payload"]
    steps, degree = int(_arg(doc, "--steps")), int(_arg(doc, "--max-deg", 16))
    # Q_m / x^2 Q_m is spanned by 1 and x^(2m+1), the latter only when it
    # lies within the degree bound
    fibers = [2 if 2 * m + 1 <= degree else 1 for m in range(steps)]
    return _problems(
        certified=p["certified"] == [True] * steps,
        fibers=p["fiber_total_dimensions"] == fibers,
        stage_dims=p["stage_dims"] == [rank_one_dims(m, degree) for m in range(steps + 1)])


def _x1(doc):
    cert = doc["payload"]["certificate"]
    # the first-step algebra is not free in rank two
    return _problems(status=cert["status"] == "not-free",
                     coinvariants=doc["payload"]["coinvariant_total_dimension"] == 4)


def _fake_cohomology(doc):
    p = doc["payload"]
    return _problems(equal=p["equals_quasi_invariants_over_Q"] is True,
                     dims=p["dims"] == p["quasi_dims"] == rank_one_dims(2, 20))


def _demazure(doc):
    # x^(2k + 2m + 1) -> 2 x^(2k) with m = 1, k = 1
    terms = doc["payload"]["image"]["terms"]
    return _problems(image=terms == [{"coeff": "2", "exp": [2]}])


def _exp_member(doc):
    p = doc["payload"]
    return _problems(test=p["passes_divided_difference_test"] is True,
                     lattice=p["in_integral_span"] is True)


def _exp_basis(doc):
    return _problems(elements=len(doc["payload"]["elements"]) > 0)


def _chern(doc):
    # z - 2 + 1/z -> e^x - 2 + e^-x = sum_(k>0) 2 x^(2k) / (2k)!
    coeffs = [Fraction(c) for c in doc["payload"]["series_coefficients"]]
    expected = [Fraction(2, factorial(d)) if d and d % 2 == 0 else Fraction(0)
                for d in range(10)]
    return _problems(series=coeffs == expected,
                     in_ring=doc["payload"]["in_completed_ring"] is True)


def _fake_nb(doc):
    p = doc["payload"]
    return _problems(signs=p["signs"] == {"3": -1, "5": -1}, n_b=p["N_B"] == 6)


def _fake_ktheory(doc):
    p = doc["payload"]
    return _problems(membership=p["membership"] == "non-member",
                     recursion=p["recursion_verified"] is True)


def _fake_distinguish(doc):
    # rank 2 exactly when the prime does not divide N_B = 3
    return _problems(rank=doc["payload"]["rank"] == 2)


def _sections(doc):
    n = int(_arg(doc, "--n"))
    return _problems(dimension=doc["payload"]["dimension"] == 2 * n)


def _elldim(doc):
    p = doc["payload"]
    m, n = int(_arg(doc, "--mult", 0)), int(_arg(doc, "--n", 1))
    q_order = int(_arg(doc, "--qorder", 12))
    formula = (n + 1) + max(0, n - m - 1)
    return _problems(dimension=p["dimension"] == formula,
                     parts=p["invariant_part"] + p["anti_part_divisible"] == formula,
                     q_order=p["q_certified"] == q_order)


def _sheafdims(doc):
    p = doc["payload"]
    m = int(_arg(doc, "--mult"))
    return _problems(h0=p["h0"] == 1, h1=p["h1"] == 2 * m + 2,
                     split=p["w_split"] == [m + 1, m + 1],
                     euler=p["euler_consistent"] is True)


def _theta(doc):
    series = doc["payload"]["series"]
    q_order = int(_arg(doc, "--qorder", 12))
    expected = {k: v for k, v in theta_terms(q_order).items() if v}
    return _problems(q_order=series["q_order"] == q_order,
                     triple_product=_series_terms(series) == expected)


def _replay(doc):
    p = doc["payload"]
    return _problems(all_pass=p["all_pass"] is True,
                     each=all(r["pass"] for r in p["results"]) and len(p["results"]) > 0)


CLI_CHECKS = {
    "group_i2_3": _group, "basis_a1xa1": _basis, "hilbert_a1": _hilbert,
    "freeness_i2_4": _freeness, "filtration_a1": _filtration, "tower": _tower,
    "x1_a1xa1": _x1, "fake_cohomology": _fake_cohomology, "demazure": _demazure,
    "exp_member": _exp_member, "exp_basis": _exp_basis, "chern": _chern,
    "fake_nb": _fake_nb, "fake_ktheory": _fake_ktheory,
    "fake_distinguish": _fake_distinguish, "sections": _sections, "elldim": _elldim,
    "sheafdims": _sheafdims, "theta": _theta, "replay": _replay,
}


def cli(command, returncode: int, stdout: str) -> list:
    """Check one CLI command's exit code and `--json` document."""
    if returncode != command.exit_code:
        return [f"exit {returncode} != {command.exit_code}"]
    try:
        doc = json.loads(stdout)
    except ValueError:
        return ["stdout is not one JSON document"]
    try:
        return CLI_CHECKS[command.check](doc)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"unexpected output shape: {exc!r}"]
