"""Check one `quasinv hilbert --json`, `quasinv freeness --json` or
`quasinv filtration --json` answer against the closed form.

Reads the JSON envelope on stdin and compares it with
`oracles.closed_form_numerator` of the echoed group and multiplicity
values, which shares no code with the engine's solver:

- a `hilbert` answer's `payload.series.numerator`.  The engine's numerator
  is dims(t) * prod(1 - t^d_i) cut at its `verified_through` degree D, so
  the closed form is cut there too: the two agree exactly when the dims
  through D do.
- a `freeness` answer's sorted `generator_degrees`.  The greedy generators
  of a free graded module are a basis by graded Nakayama, so their degrees
  are the numerator's terms: all of them for status "free", those of degree
  <= the echoed `max_degree` for "inconclusive".  Q_m is free over the
  invariant ring, so any other status is wrong.
- a `filtration` answer's `included`, which must be true, and its
  `codims`: the expansion through the echoed `max_degree` of the closed-form
  numerator at `multiplicity_low` minus the one at `multiplicity_high`, over
  the product of (1 - t^d_i) with the degrees d_i read off the spec
  (`oracles.closed_form_degrees`).

Exits 0 when they agree and 1 otherwise, with the reason on stderr.  The
name keeps it out of pytest's collection; run it as

    quasinv hilbert --group "I2(12)" --mult 32 --max-deg 160 --json | python tests/check_answer.py
"""

import json
import sys

from oracles import closed_form_degrees, closed_form_numerator


def _trimmed(coeffs):
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def _closed_form(spec: str, mult):
    """The closed-form numerator of an echoed group and multiplicity,
    {degree: coefficient}: a list value is an orbit's vector."""
    values = [tuple(v) if isinstance(v, list) else v
              for _, v in sorted(mult.items(), key=lambda item: int(item[0]))]
    return closed_form_numerator(spec, values)


def expected_numerator(inputs, through: int) -> list:
    """The closed-form numerator's coefficients of degree <= `through`, for
    the echoed inputs of a `hilbert` request."""
    num = _closed_form(inputs["group"], inputs["multiplicity"])
    return _trimmed(num.get(d, 0) for d in range(through + 1))


def expected_generator_degrees(inputs, status: str) -> list:
    """The sorted degrees of a basis of Q_m over the invariant ring, for the
    echoed inputs of a `freeness` request: every one for a "free" status,
    those of degree <= the echoed `max_degree` for an "inconclusive" one."""
    if status not in ("free", "inconclusive"):
        raise ValueError(f"status {status!r}, but Q_m is free over the invariant ring")
    num = _closed_form(inputs["group"], inputs["multiplicity"])
    through = max(num) if status == "free" else inputs["max_degree"]
    return [d for d in sorted(num) if d <= through for _ in range(num[d])]


def expected_codims(inputs) -> list:
    """dim Q_m - dim Q_(m') in degrees 0..max_degree, for the echoed inputs
    of a `filtration` request."""
    through, spec = inputs["max_degree"], inputs["group"]
    low = _closed_form(spec, inputs["multiplicity_low"])
    high = _closed_form(spec, inputs["multiplicity_high"])
    out = [low[d] - high[d] for d in range(through + 1)]
    for d in closed_form_degrees(spec):
        for i in range(d, through + 1):  # times 1 / (1 - t^d)
            out[i] += out[i - d]
    return out


def main() -> int:
    try:
        envelope = json.load(sys.stdin)
        inputs, payload = envelope["inputs"], envelope["payload"]
        if "codims" in payload:
            what, got = "inclusion and codims", (payload["included"], payload["codims"])
            want = (True, expected_codims(inputs))
        elif "generator_degrees" in payload:
            what, got = "generator degrees", sorted(payload["generator_degrees"])
            want = expected_generator_degrees(inputs, payload["status"])
        else:
            what, got = "numerator", _trimmed(payload["series"]["numerator"])
            want = expected_numerator(inputs, payload["series"]["verified_through"])
    except (ValueError, KeyError, TypeError) as exc:
        print(f"check_answer: unreadable or refused hilbert/freeness/filtration --json: {exc}",
              file=sys.stderr)
        return 1
    if got != want:
        print(f"check_answer: {inputs['group']} {what} {got} "
              f"differ from the closed form {want}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
