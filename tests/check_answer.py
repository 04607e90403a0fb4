"""Check one `quasinv hilbert --json` answer against the closed form.

Reads the JSON envelope on stdin and compares `payload.series.numerator`
with `oracles.closed_form_numerator` of the echoed group and multiplicity
values, which shares no code with the engine's solver.  The engine's
numerator is dims(t) * prod(1 - t^d_i) cut at its `verified_through` degree
D, so the closed form is cut there too: the two agree exactly when the dims
through D do.  Exits 0 when they agree and 1 otherwise, with the reason on
stderr.  The name keeps it out of pytest's collection; run it as

    quasinv hilbert --group "I2(12)" --mult 32 --max-deg 160 --json | python tests/check_answer.py
"""

import json
import sys

from oracles import closed_form_numerator


def _trimmed(coeffs):
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def expected_numerator(inputs, through: int) -> list:
    """The closed-form numerator's coefficients of degree <= `through`, for
    the echoed inputs of a `hilbert` request: a list value is an orbit's
    vector."""
    mult = inputs["multiplicity"]
    values = [tuple(v) if isinstance(v, list) else v
              for _, v in sorted(mult.items(), key=lambda item: int(item[0]))]
    num = closed_form_numerator(inputs["group"], values)
    return _trimmed(num.get(d, 0) for d in range(through + 1))


def main() -> int:
    try:
        envelope = json.load(sys.stdin)
        series = envelope["payload"]["series"]
        got = _trimmed(series["numerator"])
        want = expected_numerator(envelope["inputs"], series["verified_through"])
    except (ValueError, KeyError, TypeError) as exc:
        print(f"check_answer: unreadable hilbert --json: {exc}", file=sys.stderr)
        return 1
    if got != want:
        print(f"check_answer: {envelope['inputs']['group']} numerator {got} "
              f"differs from the closed form {want}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
