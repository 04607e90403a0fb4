"""Answers that a deeper run never contradicts.

Every bounded command answers from a truncation (`--max-deg`, `--qorder`,
...).  A field of its `--json` payload either holds at every bound or
carries the bound it is certified to.  `FIELDS` sorts each command's
fields: "equal" holds at every bound, "prefix" holds at every bound as a
prefix of the deeper answer (per stage for "stage prefix"), "witness" is a
strictness witness that a deeper run finds too when it lies within the
bound, and "bound" carries its bound.  A command run at two bounds must
agree on every field but the last kind, and a new field fails
`test_every_payload_field_is_sorted` until it is sorted here.  The
filtration comparison runs on the library's report in
`test_quasi.test_a_deeper_filtration_never_contradicts_a_shallower_one`.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_cli import call

FIELDS = {
    "filtration": {
        "included": "equal", "codims": "prefix", "strict_witness": "witness",
        "invariant_dims": "prefix",
        # the one Q_m at m_o = D // |orbit o| (I2(3) 0 -> 1 reads False at
        # D = 10 and True at D = 12)
        "intersection_dims": "bound", "intersection_equals_invariants": "bound",
    },
    "tower": {
        "steps": "equal", "certified": "equal", "stage_dims": "stage prefix",
        # one entry per step whose witness x^(2i + 1) lies within the bound
        "strict_inclusions": "prefix",
        # the quotient Q_m / x^2 Q_m counted through the bound
        "fiber_total_dimensions": "bound",
    },
    "elliptic elldim": {
        "dimension": "equal", "invariant_part": "equal", "anti_part_divisible": "equal",
        "q_certified": "bound",
    },
}


def _payload(*argv) -> dict:
    code, out, err = call(*argv, "--json")
    assert code == 0, (argv, err)
    return json.loads(out)["payload"]


def _agree(command: str, shallow: dict, deep: dict) -> None:
    """Every field of `command` that holds at every bound agrees between a
    run and a deeper one."""
    for field, kind in FIELDS[command].items():
        a, b = shallow[field], deep[field]
        if kind == "equal":
            assert a == b, field
        elif kind == "prefix":
            assert b[:len(a)] == a, field
        elif kind == "stage prefix":
            assert len(a) == len(b) and all(y[:len(x)] == x for x, y in zip(a, b)), field
        else:
            assert kind in ("witness", "bound"), field


@pytest.mark.parametrize("argv", [
    ("filtration", "--group", "I2(3)", "--mult", "1", "--mult-high", "2", "--max-deg", "10"),
    ("tower", "--steps", "3", "--max-deg", "8"),
    ("elliptic", "elldim", "--mult", "2", "--n", "3", "--qorder", "8"),
])
def test_every_payload_field_is_sorted(argv):
    command = " ".join(argv[:2]) if argv[0] == "elliptic" else argv[0]
    assert set(_payload(*argv)) == set(FIELDS[command])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(0, 5), st.integers(0, 12), st.integers(1, 8))
def test_a_deeper_tower_never_contradicts_a_shallower_one(steps, bound, more):
    # stage dims are prefixes and `certified` is equal at two --max-deg
    argv = ("tower", "--steps", str(steps), "--max-deg")
    shallow, deep = _payload(*argv, str(bound)), _payload(*argv, str(bound + more))
    _agree("tower", shallow, deep)
    assert [len(dims) for dims in shallow["stage_dims"]] == [bound + 1] * (steps + 1)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(0, 3), st.integers(1, 5), st.integers(1, 12), st.integers(1, 12))
def test_a_deeper_elldim_never_contradicts_a_shallower_one(m, n, qorder, more):
    # equal apart from `q_certified` at two --qorder
    argv = ("elliptic", "elldim", "--mult", str(m), "--n", str(n), "--qorder")
    shallow, deep = _payload(*argv, str(qorder)), _payload(*argv, str(qorder + more))
    _agree("elliptic elldim", shallow, deep)
    assert (shallow["q_certified"], deep["q_certified"]) == (qorder, qorder + more)
