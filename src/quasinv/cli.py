"""Command-line front end.

Exit codes: 0 success, 1 argument/parse errors (with usage) or a closed
stdout, 2 domain errors or failed self-checks, 3 inconclusive verdicts.
All JSON output is deterministic (sorted keys) and self-describing: it
echoes the command, the inputs and the verification notes for each numeric
claim, so outputs can be committed as golden files.  The commands read no
environment variable: the q-truncation of the q-series commands is
`--qorder`, or `elliptic.DEFAULT_Q_ORDER` without it.

Polynomials (`demazure --apply`) and characters (`exp member`, `chern
--elem`) are read by one term grammar, `_parse_terms`.  Each subcommand
imports the modules it needs when it runs, so a process loads only the
part of the library that its command uses.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from math import comb, lcm

from quasinv import __version__
from quasinv.errors import DomainError, InconclusiveError, ParseError
from quasinv.serialize import (
    encode_hilbert,
    encode_laurent,
    encode_polynomial,
    encode_rational,
    encode_zq_series,
    encode_coeff,
)

class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # values such as "-3" and the window "-3:3" are arguments, not options
        self._negative_number_matcher = re.compile(r"^-\d+(:-?\d+)?$|^-\d*\.\d+$")

    def error(self, message):
        # argparse repeats an unrecognized argument or an invalid choice
        # whole; like every refusal, quote at most 20 characters of it
        message = re.sub(r"\S{21,}", lambda m: m.group()[:20], message)
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _int_in(low, high: int):
    """argparse type: an integer in [low, high], or at most high for low None;
    the bounds are kept on it as `bounds`."""

    def check(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text[:20]!r}")
        if low is not None and value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {str(value)[:20]}")
        if value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {str(value)[:20]}")
        return value

    check.bounds = (low, high)
    return check


# upper caps, each at least 4x the largest value in use (origins in CHANGES.md)
MAX_DEGREE = 256  # 4 * sum of invariant degrees of Z/64, the largest default
MAX_STEPS = 40
MAX_Q_ORDER = 80
MAX_SERIES_ORDER = 64
MAX_MULT = 32
MAX_N = 20
MAX_PRIME = 10**9  # trial division stops below 31,623
MAX_PRIMES = 64  # primes in --assign: 32 times the longest list in the README, demos and tests
MAX_NB = 10**9  # N_B**MAX_MULT stays far below the int-to-str digit limit
MAX_WINDOW = 40  # 4 * 10, the widest --window in the tests, demos, README and replay
# per coefficient of --apply and --elem, whose exponents stop at MAX_DEGREE and
# MAX_WINDOW, and of the fake ktheory lists: the outputs stay far below the
# 4,300 int-to-str digits
MAX_DIGITS = 1000
# monomials of degree <= D in rank r, C(D + r, r): 4 * 194,580 (A1^4 through
# D = 44, the largest in use) rounded up
MAX_MONOMIALS = 800_000


# -- small input parsers -------------------------------------------------------


def parse_multiplicity(group, text: str) -> Multiplicity:
    """Either a constant ("2", "1/2") or per-orbit values "0:2,1:1"; vector
    values for orbits with stabilizer order > 2 use plus signs: "0:1+2".
    Each value and each vector entry is at most MAX_MULT."""
    from quasinv.groups import Multiplicity
    text = text.strip()
    if not text:
        raise ParseError("empty multiplicity")
    if ":" not in text:
        try:
            return Multiplicity.constant(group, _parse_value(text))
        except ValueError as exc:
            raise ParseError(str(exc))
    values = {}
    for chunk in text.split(","):
        if ":" not in chunk:
            raise ParseError(f"bad multiplicity chunk {chunk[:20]!r}")
        orbit_str, val = chunk.split(":", 1)
        try:
            orbit = int(orbit_str)
        except ValueError:
            raise ParseError(f"bad orbit id {orbit_str[:20]!r}")
        if orbit in values:
            raise ParseError(f"orbit id {orbit_str[:20]!r} given twice")
        if "+" in val:
            try:
                values[orbit] = tuple(int(v) for v in val.split("+"))
            except ValueError:
                raise ParseError(f"bad multiplicity vector {val[:20]!r}")
            _check_mult_cap(max(values[orbit]), val)
        else:
            values[orbit] = _parse_value(val)
    try:
        return Multiplicity(group, values)
    except ValueError as exc:
        raise ParseError(str(exc))


def _parse_value(text: str):
    """A rational value of at most MAX_MULT; a decimal exponent of more than
    4 digits is refused before Fraction() computes its power of ten."""
    exponent = re.search(r"[eE][-+]?([\d_]+)", text)
    if exponent and len(exponent.group(1).replace("_", "").lstrip("0")) > 4:
        raise ParseError(f"a multiplicity's exponent has more than 4 digits, got {text[:20]!r}")
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad multiplicity value {text[:20]!r}")
    _check_mult_cap(value, text)
    return value


def _check_mult_cap(value, text: str) -> None:
    if value > MAX_MULT:
        raise ParseError(f"a multiplicity must be at most {MAX_MULT}, got {text[:20]!r}")


_TOKEN = re.compile(r"\^\s*(?:\(-?\d+\)|-?\d+)|\d+(?:/\d+)?|[A-Za-z][A-Za-z0-9]*|\S", re.ASCII)


def parse_polynomial(group, text: str) -> Polynomial:
    """Sums of monomials like "3*x^2 - 1/2*x + 4" or "z1^2*z2"."""
    from quasinv.poly import Polynomial
    return Polynomial(group.variables, _parse_terms(text, group.variables, False))


def parse_laurent(text: str) -> ZQSeries:
    """Characters like "z^2 - 2 + z^-2" or "3*z^(-1)"."""
    from quasinv.laurent import character
    return character({2 * e: c for (e,), c in _parse_terms(text, ("z",), True).items()})


def _parse_terms(text: str, variables, signed: bool) -> dict:
    """{exponent vector: coefficient} of an expression in `variables`:

        expr := [+|-] term ((+|-) term)*    term := factor ([*] factor)*
        factor := (number | variable) [^ exponent]

    A number is "a" or "a/b", an exponent "k" or "(k)", and with `signed`
    an exponent on a variable may be negative.  Juxtaposed factors
    multiply; empty text is 0.  Exponents and term degrees stop at
    MAX_DEGREE, or at +-MAX_WINDOW when `signed`, and each coefficient at
    MAX_DIGITS digits, checked as each factor is read."""
    tokens = _TOKEN.findall(text) + [""]
    cap = MAX_WINDOW if signed else MAX_DEGREE
    terms: dict = {}
    pos = 0
    while tokens[pos]:
        sign = tokens[pos] if tokens[pos] in ("+", "-") else ""
        if pos and not sign:
            raise ParseError(f"expected + or - before {tokens[pos][:20]!r}")
        pos += bool(sign)
        c, exp = Fraction(-1 if sign == "-" else 1), [0] * len(variables)
        while True:  # one factor per round
            tok = tokens[pos]
            if "0" <= tok[:1] <= "9":
                value, var = _rational(tok), None
            elif tok in variables:
                value, var = None, variables.index(tok)
            elif tok[:1].isalpha():
                raise ParseError(f"unknown variable {tok[:20]!r}; have {variables}")
            else:
                raise ParseError(f"expected a number or a variable, got {tok[:20]!r}" if tok
                                 else f"{text[:20]!r} ends after an operator")
            pos, k = pos + 1, 1
            if tokens[pos][:1] == "^":
                k = _exponent(tokens[pos], cap, signed and var is not None)
                pos += 1
            if var is None:
                c *= value ** k
            else:
                exp[var] += k
            if abs(sum(exp)) > cap or max(abs(c.numerator), c.denominator) >= 10**MAX_DIGITS:
                raise ParseError(f"a term exceeds degree {cap} or {MAX_DIGITS} digits")
            if tokens[pos] == "*":
                pos += 1
            elif not tokens[pos][:1].isalnum():
                break
        key = tuple(exp)
        terms[key] = terms.get(key, 0) + c
    return terms


def _rational(text: str) -> Fraction:
    """A literal "a" or "a/b" with b != 0 and at most MAX_DIGITS digits a part."""
    parts = text.split("/")
    if any(len(part) > MAX_DIGITS for part in parts):
        raise ParseError(f"a coefficient has more than {MAX_DIGITS} digits")
    if len(parts) == 2 and not int(parts[1]):
        raise ParseError(f"zero denominator in {text[:20]!r}")
    return Fraction(text)


def _exponent(token: str, cap: int, signed: bool) -> int:
    """The k of an exponent token "^k" or "^(k)"; |k| <= cap is checked
    before int(), and k < 0 needs `signed`."""
    digits = token[1:].strip().strip("()")
    if not digits or digits[0] == "-" and not signed:
        raise ParseError("an exponent is an integer k or (k), negative only on a character's z")
    if len(digits.lstrip("-")) > len(str(cap)) or abs(int(digits)) > cap:
        raise ParseError(f"exponent {digits[:20]!r} exceeds {cap} in absolute value")
    return int(digits)


# -- output ---------------------------------------------------------------------


def emit(args, payload: dict, inputs: dict, checks: dict) -> None:
    if getattr(args, "json", False):
        envelope = {
            "tool": "quasinv",
            "version": __version__,
            "command": getattr(args, "_argv", []),
            "inputs": inputs,
            "verification": checks,
            "payload": payload,
        }
        print(json.dumps(envelope, sort_keys=True, indent=2))
    else:
        for line in _tabulate(payload):
            print(line)


def _tabulate(payload, prefix=""):
    lines = []
    if isinstance(payload, dict):
        for key in payload:
            val = payload[key]
            if isinstance(val, (dict, list)) and val and not _is_flat(val):
                lines.append(f"{prefix}{key}:")
                lines.extend(_tabulate(val, prefix + "  "))
            else:
                lines.append(f"{prefix}{key}: {_fmt(val)}")
    else:  # a list: `emit` tabulates a dict, and only dicts and lists recurse
        for item in payload:  # one "- " per item, its other lines indented under it
            sub = (_tabulate(item, prefix + "  ") if isinstance(item, (dict, list)) and item
                   else [f"{prefix}  {_fmt(item)}"])
            lines.extend(f"{prefix}- {line[len(prefix) + 2:]}" if i == 0 else line
                         for i, line in enumerate(sub))
    return lines


def _is_flat(val):
    if isinstance(val, list):
        return all(not isinstance(x, (dict, list)) for x in val)
    return False


def _fmt(val):
    if isinstance(val, list):
        return "[" + ", ".join(_fmt(v) for v in val) + "]"
    return str(val)


# -- subcommand implementations ----------------------------------------------------


def cmd_group(args) -> int:
    from quasinv.groups import parse_group
    W = parse_group(args.spec)
    payload = {
        "spec": W.spec,
        "rank": W.rank,
        "order": W.order,
        "field": "Q" if W.field == "Q" else f"Q(zeta_{W.field[1]})",
        "invariant_degrees": list(W.invariant_degrees),
        "hyperplanes": [
            {
                "alpha": encode_polynomial(h.alpha),
                "stabilizer_order": h.stabilizer_order,
                "orbit": h.orbit_id,
            }
            for h in W.hyperplanes
        ],
        "matrices": [[[encode_coeff(c) for c in row] for row in m] for m in W.elements],
        "normalization_note": "hyperplane forms are scaled to leading coefficient 1; "
        "alpha-scaling-dependent quantities inherit this choice",
    }
    emit(args, payload, {"spec": args.spec},
         {"group_axioms": "closure, degrees and invariants verified on construction"})
    return 0


def _mult_payload(mult: Multiplicity):
    out = {}
    for orbit, v in sorted(mult.values.items()):
        out[str(orbit)] = list(v) if isinstance(v, tuple) else v
    return out


def _degree_bound(W, max_deg, default: int) -> int:
    """--max-deg, or `default` without it; refused when the monomials
    through that degree, C(D + rank, rank), exceed MAX_MONOMIALS."""
    D = max_deg if max_deg is not None else default
    count = comb(D + W.rank, W.rank)
    if count > MAX_MONOMIALS:
        raise ParseError(f"{count:,} monomials through degree {D} in rank {W.rank} exceed "
                         f"the cap of {MAX_MONOMIALS:,}; lower --max-deg")
    return D


def _group_query(args):
    """Group, multiplicity, degree bound and echoed inputs of basis/hilbert/freeness."""
    from quasinv.groups import parse_group
    W = parse_group(args.group)
    D = _degree_bound(W, args.max_deg, 4 * W.sum_invariant_degrees())
    mult = parse_multiplicity(W, args.mult)
    return W, mult, D, {"group": args.group, "multiplicity": _mult_payload(mult), "max_degree": D}


def cmd_basis(args) -> int:
    from quasinv import quasi
    W, mult, D, inputs = _group_query(args)
    basis = quasi.quasi_basis(W, mult, D)
    payload = {
        "dims": basis.dims(),
        "layers": [[encode_polynomial(p) for p in layer] for layer in basis.layers],
    }
    checks = {"congruences": "imposed for every hyperplane, solved exactly"}
    if args.check_closure:
        payload["closure"] = quasi.closure_report(basis)
        checks["closure"] = "products of sampled basis elements re-tested for membership"
    emit(args, payload, inputs, checks)
    return 0


def cmd_hilbert(args) -> int:
    from quasinv import quasi
    W, mult, D, inputs = _group_query(args)
    series = quasi.hilbert(W, mult, D)
    payload = {
        "numerator": series.numerator_string(),
        "denominator": series.denominator_string(),
        "dims": series.dims(D),
        "verified_through": series.verified_through,
        "series": encode_hilbert(series),
    }
    emit(args, payload, inputs,
         {"series": "expansion matched against the solved graded dimensions "
                    f"through degree {D}"})
    return 0


def cmd_freeness(args) -> int:
    from quasinv import quasi
    W, mult, D, inputs = _group_query(args)
    cert = quasi.freeness_certificate(W, mult, D)
    payload = _freeness_payload(cert)
    emit(args, payload, inputs,
         {"generators": "greedy degreewise complement of invariants * module",
          "freeness": "free-module dimension count compared degree by degree"})
    return 0 if cert.status != "inconclusive" else 3


def _freeness_payload(cert):
    return {
        "status": cert.status,
        "rank": cert.rank,
        "generator_degrees": cert.generator_degrees(),
        "hilbert_numerator": cert.hilbert.numerator_string(),
        "hilbert_denominator": cert.hilbert.denominator_string(),
        "palindromic": cert.hilbert.is_palindromic(),
        "gorenstein_shift": cert.gorenstein_shift,
        "predicted_shift": cert.predicted_shift,
        "failure_degree": cert.failure_degree,
    }


def cmd_filtration(args) -> int:
    from quasinv import quasi
    from quasinv.groups import parse_group
    W = parse_group(args.group)
    D = _degree_bound(W, args.max_deg, 2 * W.sum_invariant_degrees())
    m_low = parse_multiplicity(W, args.mult)
    m_high = parse_multiplicity(W, args.mult_high)
    report = quasi.filtration_check(W, m_low, m_high, D)
    payload = dict(report)
    if payload["strict_witness"] is not None:
        payload["strict_witness"] = encode_polynomial(payload["strict_witness"])
    emit(args, payload,
         {"group": args.group, "multiplicity_low": _mult_payload(m_low),
          "multiplicity_high": _mult_payload(m_high), "max_degree": D},
         {"inclusion": "congruences of m' contain those of m, hyperplane by hyperplane",
          "intersection": "intersected over componentwise-maximal multiplicities "
                          f"of total weight <= {D}"})
    return 0


def cmd_tower(args) -> int:
    from quasinv import tower
    result = tower.ganea_tower(args.steps, args.max_deg)
    payload = {
        "steps": args.steps,
        "stage_dims": [b.dims() for b in result["stages"]],
        "certified": result["certified"],
        "fiber_total_dimensions": result["fiber_total_dimensions"],
        "strict_inclusions": result["strict_inclusions"],
    }
    emit(args, payload, {"steps": args.steps, "max_degree": args.max_deg},
         {"stages": "each fiber-product stage certified against the congruence solver"})
    return 0 if all(result["certified"]) else 2


def cmd_x1(args) -> int:
    from quasinv import tower
    from quasinv.groups import parse_group
    W = parse_group(args.group)
    D = _degree_bound(W, args.max_deg, 4 * W.sum_invariant_degrees())
    basis, cert = tower.x1_algebra(W, D)
    payload = {
        "dims": basis.dims(),
        "certificate": _freeness_payload(cert),
        "coinvariant_total_dimension": tower.coinvariant_dimension(basis),
    }
    emit(args, payload, {"group": args.group, "max_degree": D},
         {"algebra": "constants plus the ideal generated by positive-degree invariants"})
    return 0 if cert.status != "inconclusive" else 3


def cmd_fake_cohomology(args) -> int:
    from quasinv import tower
    result = tower.fake_cohomology_ring(args.nb, args.mult, args.max_deg)
    emit(args, result, {"N_B": args.nb, "multiplicity": args.mult, "max_degree": args.max_deg},
         {"equality": "graded dimensions compared against the congruence solver"})
    return 0 if result["equals_quasi_invariants_over_Q"] else 2


def cmd_demazure(args) -> int:
    from quasinv import demazure as dem
    from quasinv.groups import parse_group
    W = parse_group(args.group)
    mult = parse_multiplicity(W, args.mult)
    p = parse_polynomial(W, args.apply)
    if args.hyperplane >= len(W.hyperplanes):
        raise ParseError(f"--hyperplane must lie in 0..{len(W.hyperplanes) - 1}, "
                         f"got {args.hyperplane}")
    h = W.hyperplanes[args.hyperplane]
    img = dem.delta_m(W, h, mult, p)
    payload = {
        "image": encode_polynomial(img),
        "normalization_constant": dem.NORMALIZATION_CONSTANT,
        "note": "operator is (p - s p)/alpha^(2m+1); scaling fixed only up to "
                "a nonzero constant",
    }
    emit(args, payload,
         {"group": args.group, "multiplicity": _mult_payload(mult), "apply": args.apply,
          "hyperplane": args.hyperplane},
         {"reconstruction": "alpha^(2m+1) * image + s(p) = p re-checked exactly"})
    return 0


def cmd_exp(args) -> int:
    from quasinv import demazure as dem
    lo, hi = _parse_window(args.window)
    if args.action == "basis":
        ring = dem.exp_basis(args.mult, (lo, hi))
        payload = {
            "multiplicity": args.mult,
            "window": [lo, hi],
            "elements": [
                {"label": lab, "value": encode_laurent(el)}
                for lab, el in zip(ring.labels, ring.elements)
            ],
        }
        emit(args, payload, {"multiplicity": args.mult, "window": [lo, hi]},
             {"membership": "every element passed the divided-difference test"})
        return 0
    # member
    if args.elem is None:
        raise ParseError("exp member needs --elem")
    f = parse_laurent(args.elem)
    ring = dem.ExpQuasiRing(args.mult, (lo, hi))
    in_q = dem.is_exp_quasi_invariant(args.mult, f)
    in_lattice = ring.contains(f)
    payload = {
        "element": encode_laurent(f),
        "passes_divided_difference_test": in_q,
        "in_integral_span": in_lattice,
    }
    emit(args, payload, {"multiplicity": args.mult, "element": args.elem},
         {"test": "vanishing order of the exponential divided difference at z = 1"})
    return 0 if in_q else 2


def _parse_window(text: str):
    """lo:hi with both ends in [-MAX_WINDOW, MAX_WINDOW]; an end with more
    digits than the cap is refused before int() reads it."""
    m = re.fullmatch(r"\s*(-?\d+)\s*:\s*(-?\d+)\s*", text)
    if not m:
        raise ParseError(f"window must look like lo:hi, got {text[:20]!r}")
    ends = m.groups()
    if any(len(end.lstrip("-0")) > len(str(MAX_WINDOW)) or abs(int(end)) > MAX_WINDOW
           for end in ends):
        raise ParseError(f"window must lie within -{MAX_WINDOW}:{MAX_WINDOW}, got {text[:20]!r}")
    return int(ends[0]), int(ends[1])


def cmd_chern(args) -> int:
    from quasinv import demazure as dem
    f = parse_laurent(args.elem)
    series, report = dem.chern_character(f, args.mult, args.order)
    payload = {
        "series_coefficients": [encode_rational(c) for c in series.coeffs],
        "order": series.order,
        "odd_valuation": report["odd_valuation"],
        "in_completed_ring": report["in_completed_ring"],
    }
    emit(args, payload,
         {"multiplicity": args.mult, "order": args.order, "element": args.elem},
         {"image": "z -> exp(x) computed with exact rational coefficients"})
    return 0 if report["in_completed_ring"] else 2


def cmd_fake(args) -> int:
    from quasinv import fake_ktheory as fk
    from quasinv.series import PowerSeries
    if args.action == "nb":
        assignments = {}
        if args.assign:
            if args.assign.count(",") >= MAX_PRIMES:
                raise ParseError(f"--assign {args.assign[:20]!r} lists more than {MAX_PRIMES} primes")
            for chunk in args.assign.split(","):
                try:
                    p_str, n_str = chunk.split(":")
                    p = _int_in(None, MAX_PRIME)(p_str)
                except ValueError:
                    raise ParseError(f"bad assignment chunk {chunk[:20]!r}")
                except argparse.ArgumentTypeError as exc:
                    raise ParseError(f"prime in --assign {exc}")
                if p in assignments:
                    raise ParseError(f"prime {p_str[:20]!r} given twice")
                try:
                    assignments[p] = _int_in(-MAX_NB, MAX_NB)(n_str)
                except argparse.ArgumentTypeError as exc:
                    raise ParseError(f"gluing degree in --assign {exc}")
        # N_B, the lcm of the degrees, under the cap of --nb
        nb = 1
        for n in assignments.values():
            nb = lcm(nb, n)
            if nb > MAX_NB:
                raise ParseError(f"N_B = lcm of the gluing degrees exceeds {MAX_NB}")
        result = fk.n_b(assignments)
        emit(args, result, {"assign": args.assign or ""},
             {"signs": "quadratic-residue signs recomputed per prime"})
        return 0
    if args.action == "distinguish":
        gen = PowerSeries([0, 0, args.nb, 1], max(args.order, 4))
        result = fk.distinguishing_invariant(gen, args.mult, args.prime)
        emit(args, result,
             {"N_B": args.nb, "multiplicity": args.mult, "prime": args.prime},
             {"quotient": "reduction mod p and mod the filtration layer at t^3"})
        return 0
    # ktheory membership
    if args.series is None:
        raise ParseError("fake ktheory needs --series")
    coeffs = _coefficient_list(args.series, "series")
    elem = _coefficient_list(args.elem, "element") if args.elem else None
    order = max(args.order, 0)  # the ring refuses orders below 3 as a domain error
    ring = fk.qmb(PowerSeries(coeffs, order), args.mult, order)
    payload = {"ring": repr(ring), "recursion_verified": ring.recursion_verified}
    if elem is not None:
        f = PowerSeries(elem, order)
        verdict = ring.membership(f)
        payload["element"] = list(f.coeffs)
        payload["membership"] = verdict
        emit(args, payload,
             {"series": args.series, "multiplicity": args.mult, "order": args.order,
              "elem": args.elem},
             {"membership": "successive leading-coefficient division through the order"})
        if verdict == fk.INCONCLUSIVE:
            return 3
        return 0 if verdict == fk.MEMBER else 2
    emit(args, payload,
         {"series": args.series, "multiplicity": args.mult, "order": args.order},
         {"recursion": "true exactly when the order reaches t^(2m), where the ideal "
                       "P^m Z[[t]] begins"})
    return 0 if ring.recursion_verified else 3


def _coefficient_list(text: str, what: str) -> list:
    """The comma-separated integers of `fake ktheory`, each entry refused past
    MAX_DIGITS digits (sign excluded) before int() reads it."""
    entries = text.split(",")
    if any(len(c.strip().lstrip("+-")) > MAX_DIGITS for c in entries):
        raise ParseError(f"a {what} coefficient in {text[:20]!r} has more than "
                         f"{MAX_DIGITS} digits")
    try:
        return [int(c) for c in entries]
    except ValueError:
        raise ParseError(f"bad {what} coefficients {text[:20]!r}")


def cmd_elliptic(args) -> int:
    from quasinv import elliptic as ell
    if args.action == "sheafdims":  # no q-series, so no q-order
        result = ell.ell_sheaf_dims(args.mult)
        emit(args, result, {"multiplicity": args.mult},
             {"bookkeeping": "six-term exact sequence with rank-one middle map"})
        return 0
    N = args.qorder if args.qorder is not None else ell.DEFAULT_Q_ORDER
    if args.action == "theta":
        lo, hi = _parse_window(args.window) if args.window else ell.DEFAULT_WINDOW
        emit(args, {"series": encode_zq_series(ell.theta(args.form, (lo, hi), N))},
             {"form": args.form, "q_order": N, "window": [lo, hi]},
             {"normal_form": "product and sum normal forms agree on the "
                             "common certified range (tested separately)"})
        return 0
    if args.action == "sections":
        space = ell.section_basis(args.n, N)
        payload = {
            "degree": args.n,
            "dimension": space.dim(),
            "basepoints": space.basepoints,
            "basis": [encode_zq_series(b) for b in space.basis],
        }
        emit(args, payload, {"n": args.n, "q_order": N},
             {"functional_equation": "every basis element certified at its degree"})
        return 0
    # elldim
    result = ell.ell_graded_dimension(args.mult, args.n, N)
    emit(args, result, {"multiplicity": args.mult, "n": args.n, "q_order": N},
         {"formula": "closed form cross-checked against exact linear algebra"})
    return 0


# -- replay suites ----------------------------------------------------------------


def _suite_gorenstein():
    from quasinv import quasi
    from quasinv.groups import Multiplicity, parse_group
    W = parse_group("A1")
    for m in range(5):
        cert = quasi.freeness_certificate(W, Multiplicity.constant(W, m), 12 + 4 * m)
        yield (f"A1 m={m} free rank 2", cert.status == "free" and cert.rank == 2)
        yield (f"A1 m={m} shift {1 - 2 * m}", cert.gorenstein_shift == 1 - 2 * m)


def _suite_tower():
    from quasinv import tower
    result = tower.ganea_tower(5, 16)
    for i, ok in enumerate(result["certified"]):
        yield (f"stage {i}->{i + 1} reproduces the congruence solution", ok)
    yield ("all fiber algebras have total dimension 2",
           all(d == 2 for d in result["fiber_total_dimensions"]))


def _suite_divided_differences():
    from quasinv import demazure as dem
    from quasinv.groups import Multiplicity, parse_group
    from quasinv.poly import Polynomial
    W = parse_group("A1")
    h = W.hyperplanes[0]
    x = Polynomial.variable(W.variables, "x")
    ok_even, ok_odd = True, True
    for m in range(4):
        mult = Multiplicity.constant(W, m)
        for k in range(5):
            if dem.delta_m(W, h, mult, x ** (2 * k)):
                ok_even = False
            if dem.delta_m(W, h, mult, x ** (2 * k + 2 * m + 1)) != 2 * x ** (2 * k):
                ok_odd = False
    yield ("even powers annihilated", ok_even)
    yield ("x^(2k+2m+1) -> 2 x^(2k)", ok_odd)


def _completes(check, *args) -> bool:
    """Whether a self-checking computation returns; it raises
    ArithmeticError when its own check fails."""
    try:
        check(*args)
    except ArithmeticError:
        return False
    return True


def _suite_exponential_ring():
    from quasinv import demazure as dem
    from quasinv.laurent import z_power
    for m in range(3):
        yield (f"m={m} all enumerated elements pass", _completes(dem.exp_basis, m, (-3, 3)))
        sample = dem.ExpQuasiRing(m, (-3, 3)).elements[:4]
        yield (f"m={m} products stay inside",
               all(dem.is_exp_quasi_invariant(m, a * b) for a in sample for b in sample))
    yield ("z is not in the multiplicity-1 ring",
           not dem.is_exp_quasi_invariant(1, z_power(1)))


def _suite_fake_cohomology():
    from quasinv import tower
    for nb in (1, 2, 3, 6):
        for m in range(4):
            r = tower.fake_cohomology_ring(nb, m, 16)
            yield (f"N_B={nb} m={m} rational spans agree",
                   r["equals_quasi_invariants_over_Q"])


def _suite_fake_ktheory():
    from quasinv import demazure as dem
    from quasinv import fake_ktheory as fk
    from quasinv.series import PowerSeries
    bg = fk.bg_series(13)
    mono = True
    for m in range(3):
        ring_m = fk.qmb(bg, m, 13)
        ring_next = fk.qmb(bg, m + 1, 13)
        for k in range(m + 2):
            f = (ring_next.generator ** (m + 1)) * PowerSeries([0] * k + [1], 13)
            if ring_m.membership(f) != fk.MEMBER:
                mono = False
    yield ("filtration is monotone on ideal elements", mono)
    gen = PowerSeries([0, 0, 3, 1], 8)
    yield ("distinguishing rank 2 iff the prime misses N_B",
           fk.distinguishing_invariant(gen, 2, 5)["rank"] == 2
           and fk.distinguishing_invariant(gen, 2, 3)["rank"] == 1)
    ring1 = fk.qmb(bg, 1, 13)
    images = [fk.laurent_to_t_series(el, 13) for el in dem.exp_basis(1, (-2, 2)).elements]
    yield ("character images land in the K-theory ring",
           all(ring1.membership(f) == fk.MEMBER for f in images))


def _suite_triple_product():
    from quasinv import elliptic as ell
    N = 12
    ts = ell.theta("sum", (-8, 8), N)
    tp = ell.theta("product", (-8, 8), N)
    yield (f"sum = product through q^{N}", ts == tp)
    jac = ell.jacobi_theta((-8, 8), N)
    yield ("jacobi = -z^(-1/2) * theta",
           jac == tp.mul_monomial(Fraction(-1, 2), 0) * -1)
    yield ("theta(1/z) = -theta(z)/z",
           tp.involution() == tp.mul_monomial(-1, 0) * -1)


def _suite_elliptic_sections():
    from quasinv import elliptic as ell
    N = ell.DEFAULT_Q_ORDER
    for n in range(1, 6):
        yield (f"dim sections({n}) = {2 * n}", ell.section_basis(n, N).dim() == 2 * n)
    yield ("graded dimension formula matches direct linear algebra",
           all(_completes(ell.ell_graded_dimension, m, n, N)
               for m in range(3) for n in range(1, 5)))


def _suite_sheaf_dims():
    from quasinv import elliptic as ell
    for m in range(6):
        r = ell.ell_sheaf_dims(m)
        yield (
            f"m={m}: (1, {2 * m + 2}, ({m + 1}, {m + 1}))",
            r["h0"] == 1 and r["h1"] == 2 * m + 2 and r["w_split"] == (m + 1, m + 1)
            and r["euler_consistent"],
        )


SUITE_RUNNERS = {
    "gorenstein": _suite_gorenstein,
    "tower": _suite_tower,
    "divided-differences": _suite_divided_differences,
    "exponential-ring": _suite_exponential_ring,
    "fake-cohomology": _suite_fake_cohomology,
    "fake-ktheory": _suite_fake_ktheory,
    "triple-product": _suite_triple_product,
    "elliptic-sections": _suite_elliptic_sections,
    "sheaf-dims": _suite_sheaf_dims,
}
REPLAY_SUITES = tuple(SUITE_RUNNERS)


def cmd_replay(args) -> int:
    suites = REPLAY_SUITES if args.suite == "all" else (args.suite,)
    all_ok = True
    results = []
    for name in suites:
        for label, ok in SUITE_RUNNERS[name]():
            results.append({"suite": name, "assertion": label, "pass": bool(ok)})
            all_ok = all_ok and ok
    if getattr(args, "json", False):
        emit(args, {"results": results, "all_pass": all_ok},
             {"suite": args.suite}, {"replay": "each assertion recomputed from scratch"})
    else:
        for r in results:
            print(f"[{'PASS' if r['pass'] else 'FAIL'}] {r['suite']}: {r['assertion']}")
        print(f"{'all assertions pass' if all_ok else 'FAILURES present'}")
    return 0 if all_ok else 2


# -- wiring ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="quasinv",
                     description="exact computations with quasi-invariant algebras "
                                 "of reflection groups")
    parser.add_argument("--version", action="version", version=f"quasinv {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    degree = _int_in(0, MAX_DEGREE)
    mult = _int_in(0, MAX_MULT)
    # values below 0 reach the command, which refuses them as domain errors
    signed_mult = _int_in(None, MAX_MULT)
    nb = _int_in(-MAX_NB, MAX_NB)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        return p

    p = add("group", cmd_group, help="group data: matrices, hyperplanes, degrees")
    p.add_argument("--spec", required=True)

    for name, fn in (("basis", cmd_basis), ("hilbert", cmd_hilbert),
                     ("freeness", cmd_freeness)):
        p = add(name, fn, help=f"{name} of the quasi-invariant algebra")
        p.add_argument("--group", required=True)
        p.add_argument("--mult", required=True)
        p.add_argument("--max-deg", type=degree, default=None,
                       help="degree bound (default 4 * sum of invariant degrees)")
        if name == "basis":
            p.add_argument("--check-closure", action="store_true")

    p = add("filtration", cmd_filtration, help="inclusion of filtration steps")
    p.add_argument("--group", required=True)
    p.add_argument("--mult", required=True, help="smaller multiplicity")
    p.add_argument("--mult-high", required=True, help="larger multiplicity")
    p.add_argument("--max-deg", type=degree, default=None)

    p = add("tower", cmd_tower, help="iterate the fiber-product tower from Q_0")
    p.add_argument("--steps", type=_int_in(0, MAX_STEPS), required=True)
    p.add_argument("--max-deg", type=degree, default=16)

    p = add("x1", cmd_x1, help="constants plus the invariant ideal, with certificate")
    p.add_argument("--group", required=True)
    p.add_argument("--max-deg", type=degree, default=None)

    p = add("fake-cohomology", cmd_fake_cohomology,
            help="the subring Q + N x^2 Q'_(m-1) compared with Q_m")
    p.add_argument("--nb", type=nb, required=True)
    p.add_argument("--mult", type=mult, required=True)
    p.add_argument("--max-deg", type=degree, default=20)

    p = add("demazure", cmd_demazure, help="apply a divided difference operator")
    p.add_argument("--group", required=True)
    p.add_argument("--mult", required=True)
    p.add_argument("--apply", required=True, help="polynomial expression")
    # group orders stop at 64, so no index past 63 names a hyperplane
    p.add_argument("--hyperplane", type=_int_in(0, 64), default=0)

    p = add("exp", cmd_exp, help="exponential quasi-invariants")
    p.add_argument("action", choices=("basis", "member"))
    p.add_argument("--mult", type=mult, required=True)
    p.add_argument("--window", default="-3:3")
    p.add_argument("--elem", default=None, help="character expression (for member)")

    p = add("chern", cmd_chern, help="exponentiate a character into power series")
    p.add_argument("--mult", type=signed_mult, required=True)
    p.add_argument("--order", type=_int_in(1, MAX_SERIES_ORDER), default=10)
    p.add_argument("--elem", required=True)

    p = add("fake", cmd_fake, help="fake K-theory subrings")
    p.add_argument("action", choices=("ktheory", "distinguish", "nb"))
    p.add_argument("--series", default=None, help="comma-separated coefficients")
    p.add_argument("--elem", default=None, help="comma-separated coefficients")
    p.add_argument("--mult", type=signed_mult, default=1)
    p.add_argument("--order", type=_int_in(None, MAX_SERIES_ORDER), default=12)
    p.add_argument("--nb", type=nb, default=1)
    p.add_argument("--prime", type=_int_in(None, MAX_PRIME), default=2)
    p.add_argument("--assign", default=None, help='e.g. "3:2,5:3"')

    p = add("elliptic", cmd_elliptic, help="theta functions and section spaces")
    p.add_argument("action", choices=("theta", "sections", "elldim", "sheafdims"))
    p.add_argument("--form", choices=("sum", "product"), default="product")
    p.add_argument("--qorder", type=_int_in(1, MAX_Q_ORDER), default=None)
    p.add_argument("--window", default=None)
    p.add_argument("--n", type=_int_in(None, MAX_N), default=1)
    p.add_argument("--mult", type=mult, default=0)

    p = add("replay", cmd_replay, help="re-run a named verification suite")
    p.add_argument("--suite", choices=REPLAY_SUITES + ("all",), default="all")

    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    args._argv = list(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InconclusiveError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:  # a computation's own check, as replay's [FAIL]
        print(f"self-check failed: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull so that the
        # interpreter's final flush cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: stdout was closed before the output was written", file=sys.stderr)
        code = 1
    raise SystemExit(code)


if __name__ == "__main__":
    main()
