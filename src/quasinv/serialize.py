"""Shared JSON encoding used by every command's output.

Rationals serialize as "num/den" (denominator omitted when 1), cyclotomic
elements as {"zeta_order": n, "coords": [...]}, polynomials as
{"vars": [...], "terms": [...]} with terms sorted in graded-lexicographic
exponent order.  Encoding is deterministic so outputs are usable as golden
files.
"""

from __future__ import annotations

from fractions import Fraction

from quasinv.fields import Cyclotomic


def encode_rational(q) -> str:
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def encode_coeff(c):
    if isinstance(c, Cyclotomic):
        return {"zeta_order": c.n, "coords": [encode_rational(x) for x in c.coords]}
    return encode_rational(c)


def encode_polynomial(p: Polynomial) -> dict:
    return {
        "vars": list(p.vars),
        "terms": [
            {"exp": list(exp), "coeff": encode_coeff(c)} for exp, c in p.sorted_terms()
        ],
    }


def encode_laurent(f: ZQSeries) -> dict:
    return {
        "half_exponent_unit": "w = z^(1/2)",
        "terms": [
            {"w_exp": w, "coeff": encode_rational(c)} for (w, _), c in sorted(f.coeffs.items())
        ],
    }


def encode_zq_series(f: ZQSeries) -> dict:
    triples = [
        {"z_exp": encode_rational(Fraction(w, 2)), "q_exp": s, "coeff": encode_rational(c)}
        for (w, s), c in sorted(f.coeffs.items(), key=lambda kv: (kv[0][1], kv[0][0]))
    ]
    lo, hi = f.z_window()
    return {
        "q_order": f.q_order,
        "z_window": [encode_rational(lo), encode_rational(hi)],
        "terms": triples,
    }


def encode_hilbert(h: HilbertSeries) -> dict:
    return {
        "numerator": list(h.numerator),
        "numerator_string": h.numerator_string(),
        "denominator_exponents": list(h.denominator_exponents),
        "denominator_string": h.denominator_string(),
        "verified_through": h.verified_through,
    }
