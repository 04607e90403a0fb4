import argparse
import io
import json
import os
import shlex
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasinv.cli import (
    MAX_DEGREE,
    MAX_DIGITS,
    MAX_MONOMIALS,
    MAX_MULT,
    MAX_N,
    MAX_NB,
    MAX_PRIME,
    MAX_PRIMES,
    MAX_Q_ORDER,
    MAX_SERIES_ORDER,
    MAX_STEPS,
    MAX_WINDOW,
    REPLAY_SUITES,
    build_parser,
    run,
)

HERE = os.path.dirname(__file__)
# two gluing degrees whose lcm N_B once overflowed the int-to-str digit limit
MANY_DIGIT_ASSIGN = "3:" + "7" * 4000 + ",5:1" + "0" * 3998 + "1"


def call(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_hilbert_example():
    code, out, _ = call("hilbert", "--group", "A1", "--mult", "2", "--max-deg", "12")
    assert code == 0
    assert "1 + t^5" in out
    assert "(1-t^2)" in out


def test_demazure_domain_error_exit_code():
    code, _, err = call("demazure", "--group", "A1", "--mult", "1", "--apply", "x")
    assert code == 2
    assert "domain error" in err


def test_half_integer_multiplicities_are_refused_on_the_command_line():
    # the half-integer rank-one modules are reachable from Python only
    code, out, err = call("hilbert", "--group", "A1", "--mult", "1/2")
    assert code == 2
    assert out == "" and "quasi_basis needs integer multiplicities" in err


def test_demazure_applies():
    code, out, _ = call("demazure", "--group", "A1", "--mult", "1", "--apply", "x^5")
    assert code == 0
    assert "normalization_constant: 2" in out


def test_distinguish_example():
    code, out, _ = call("fake", "distinguish", "--nb", "3", "--mult", "2", "--prime", "5")
    assert code == 0
    assert "rank: 2" in out
    assert "3*t^2" in out


def test_parse_error_exit_code():
    code, _, _ = call("nonsense")
    assert code == 1
    code, _, err = call("group", "--spec", "I2(2)")
    assert code == 1
    assert "I2" in err
    code, out, err = call("basis", "--group", "I2(33)", "--mult", "1")  # past the order cap
    assert code == 1
    assert out == "" and "order above 64" in err


def test_inconclusive_exit_code():
    # order too small to separate the free part from the ideal: 3t^2 + t^3 is
    # P through t^3, while 3t^2 leaves a t^3 and t a t term that no element
    # of the unrolled form absorbs, refuted at any order
    ring = ("fake", "ktheory", "--series", "0,0,3,1")
    code, _, _ = call(*ring, "--mult", "3", "--order", "4", "--elem", "0,0,3,1")
    assert code == 3
    code, _, _ = call(*ring, "--mult", "3", "--order", "4", "--elem", "0,0,3")
    assert code == 2
    code, out, _ = call(*ring, "--mult", "2", "--order", "3", "--elem", "0,1")
    assert code == 2 and "membership: non-member" in out
    # m >= 1 and order <= 2m: the truncation stops short of t^(2m)
    code, out, _ = call("fake", "ktheory", "--series", "0,0,3,1", "--order", "3", "--mult", "8")
    assert code == 3
    assert "recursion_verified: False" in out
    for order, expected in (("4", 3), ("5", 0)):
        code, out, _ = call(*ring, "--mult", "2", "--order", order, "--json")
        assert code == expected
        assert json.loads(out)["verification"] == {
            "recursion": "true exactly when the order reaches t^(2m), where the ideal "
                         "P^m Z[[t]] begins"}


def test_exp_member_and_non_member():
    code, out, _ = call("exp", "member", "--mult", "1", "--elem", "z - 2 + z^-1")
    assert code == 0
    code, _, _ = call("exp", "member", "--mult", "1", "--elem", "z")
    assert code == 2


def test_exp_member_at_the_cap_tests_the_element_alone(monkeypatch):
    from quasinv import demazure
    from quasinv.fields import RingOps
    from quasinv.series import ZQSeries

    calls = {"exp_basis": 0, "is_exp_quasi_invariant": 0,
             "__pow__": 0, "__mul__": 0, "mul_monomial": 0}

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(owner, name, wrapper)

    counted(demazure, "exp_basis")
    counted(demazure, "is_exp_quasi_invariant")
    # the products that would form an element of the ring
    counted(RingOps, "__pow__")
    counted(ZQSeries, "__mul__")
    counted(ZQSeries, "mul_monomial")
    code, out, _ = call("exp", "member", "--mult", str(MAX_MULT),
                        f"--window=-{MAX_WINDOW}:{MAX_WINDOW}",
                        "--elem", "z^40 - 2 + z^-40 + 3*z^-39", "--json")
    assert code == 2
    assert json.loads(out)["payload"]["in_integral_span"] is False
    assert calls == {"exp_basis": 0, "is_exp_quasi_invariant": 1,
                     "__pow__": 0, "__mul__": 0, "mul_monomial": 0}


def _refuses(*args):
    raise ArithmeticError("graded dimension disagrees with the direct count")


@pytest.mark.parametrize("suite, module, name, stub, label", [
    ("exponential-ring", "demazure", "is_exp_quasi_invariant", lambda m, f: False,
     "m=0 all enumerated elements pass"),
    ("elliptic-sections", "elliptic", "ell_graded_dimension", _refuses,
     "graded dimension formula matches direct linear algebra"),
], ids=["exponential-ring", "elliptic-sections"])
def test_a_failed_self_check_is_a_replay_fail(monkeypatch, suite, module, name, stub, label):
    import importlib

    monkeypatch.setattr(importlib.import_module(f"quasinv.{module}"), name, stub)
    code, out, _ = call("replay", "--suite", suite)
    assert code == 2
    assert f"[FAIL] {suite}: {label}" in out.splitlines()
    assert out.splitlines()[-1] == "FAILURES present"


def test_a_failed_self_check_in_a_direct_command_exits_2(monkeypatch):
    # ended in a traceback: run() caught no ArithmeticError
    from quasinv import elliptic

    monkeypatch.setattr(elliptic, "ell_graded_dimension", _refuses)
    code, out, err = call("elliptic", "elldim", "--mult", "1", "--n", "2")
    assert code == 2 and out == ""
    assert err == "self-check failed: graded dimension disagrees with the direct count\n"


def test_group_json_deterministic():
    code1, out1, _ = call("group", "--spec", "I2(3)", "--json")
    code2, out2, _ = call("group", "--spec", "I2(3)", "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["payload"]["order"] == 6


def test_filtration_with_a_low_multiplicity_not_below_the_high_one_exits_2():
    code, out, err = call("filtration", "--group", "I2(4)", "--mult", "0:2,1:0",
                          "--mult-high", "0:1,1:1")
    assert (code, out, err) == (2, "", "domain error: need componentwise m <= m'\n")


def test_basis_closure_check_reports_a_sample_in_text_and_json():
    argv = ("basis", "--group", "A1", "--mult", "1", "--max-deg", "8", "--check-closure")
    code, out, _ = call(*argv)
    assert code == 0
    assert out.endswith("\nclosure:\n  closed: None\n  sampled: True\n  pairs_checked: 9\n")
    code, out, _ = call(*argv, "--json")
    envelope = json.loads(out)
    assert code == 0
    assert envelope["payload"]["closure"] == {"closed": None, "sampled": True, "pairs_checked": 9}
    assert envelope["verification"]["closure"] == \
        "products of sampled basis elements re-tested for membership"


def test_text_output_marks_each_list_item_once():
    # a dict inside a list is one item: its first key gets the "- " and the
    # rest are indented under it, so a polynomial's terms read as one bullet
    # each, as many as its --json payload holds; an empty layer stays an item
    argv = ("filtration", "--group", "I2(3)", "--mult", "1", "--mult-high", "2",
            "--max-deg", "10")
    code, out, _ = call(*argv)
    terms = json.loads(call(*argv, "--json")[1])["payload"]["strict_witness"]["terms"]
    assert code == 0 and len(terms) == 2
    lines = out.splitlines()
    top = lines.index("  terms:")
    assert lines[top + 1:top + 8] == [
        "    - exp: [0, 4]", "      coeff:", "        zeta_order: 6",
        "        coords: [1/2, 0]", "    - exp: [3, 1]", "      coeff: 1",
        "intersection_equals_invariants: False"]
    assert sum(line.lstrip().startswith("- ") for line in lines) == len(terms)
    code, out, _ = call("basis", "--group", "A1", "--mult", "1", "--max-deg", "2")
    assert code == 0 and out.splitlines()[1:] == [
        "layers:", "  - - vars: [x]", "      terms:", "        - exp: [0]",
        "          coeff: 1", "  - []", "  - - vars: [x]", "      terms:",
        "        - exp: [2]", "          coeff: 1"]


def test_golden_file_regenerates():
    path = os.path.join(HERE, "golden", "hilbert_a1_m2.json")
    code, out, _ = call("hilbert", "--group", "A1", "--mult", "2", "--max-deg", "12", "--json")
    assert code == 0
    with open(path) as fh:
        assert out == fh.read()


def test_replay_fast_suites():
    for suite in ("sheaf-dims", "triple-product", "divided-differences"):
        code, out, _ = call("replay", "--suite", suite)
        assert code == 0, suite
        assert "FAIL" not in out


def test_tower_command():
    code, out, _ = call("tower", "--steps", "2", "--max-deg", "10")
    assert code == 0
    assert "certified: [True, True]" in out


def test_elliptic_sheafdims_command():
    code, out, _ = call("elliptic", "sheafdims", "--mult", "2")
    assert code == 0
    assert "h1: 6" in out


@pytest.mark.parametrize("qorder", ["78", "79", "80"])
def test_elldim_accepts_every_q_order_at_the_smallest_degrees(qorder):
    # at q-order 79 and 80 the Jacobi theta reaches z^(25/2), past the
    # window of +-4(m + n + 2) = 12 that elldim once checked it against
    code, out, err = call("elliptic", "elldim", "--mult", "0", "--n", "1",
                          "--qorder", qorder, "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["payload"]["dimension"] == 2  # (n + 1) + max(0, n - m - 1)


@pytest.mark.parametrize("form", ["product", "sum"])
@pytest.mark.parametrize("qorder", ["79", "80"])
def test_theta_default_window_holds_every_q_order(qorder, form):
    # both forms reach z^13 at q-order 79 and 80, past the window [-12, 12]
    # that was once the default
    code, out, err = call("elliptic", "theta", "--form", form, "--qorder", qorder, "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["inputs"]["window"] == [-13, 13]


def test_missing_action_flags_are_parse_errors():
    for argv in (
        ("exp", "member", "--mult", "1"),
        ("fake", "ktheory", "--mult", "1"),
        ("fake", "nb", "--assign", "junk"),
        ("fake", "ktheory", "--series", "a,b", "--mult", "1"),
        # a prime given twice once answered for its later gluing degree
        ("fake", "nb", "--assign", "3:2,3:5"),
        ("fake", "nb", "--assign", "3:5,3:2"),
    ):
        code, _, err = call(*argv)
        assert code == 1, argv
        assert "error" in err


def test_readme_window_forms_run_as_written():
    with open(os.path.join(HERE, "..", "README.md")) as fh:
        commands = [line for line in fh if line.startswith("quasinv ") and "--window " in line]
    assert len(commands) == 2
    for line in commands:
        code, out, err = call(*shlex.split(line)[1:])
        assert code == 0 and out, (line, err)


def test_bounded_integers_are_refused():
    for argv in (
        ("basis", "--group", "A1", "--mult", "1", "--max-deg", "-1"),
        ("tower", "--steps", "-1"),
        ("elliptic", "theta", "--qorder", "0"),
        ("elliptic", "theta", "--qorder", "-1"),
        ("chern", "--mult", "1", "--order", "0", "--elem", "z - 2 + z^-1"),
        ("fake-cohomology", "--nb", str(-MAX_NB - 1), "--mult", "1"),
        ("fake", "distinguish", "--nb", str(-MAX_NB - 1)),
    ):
        code, out, err = call(*argv)
        assert code == 1, argv
        assert out == "" and "must be at least" in err


def test_integer_options_are_capped():
    # one past each cap: every refusal comes before any computation
    deg, steps, qorder, order, mult, n, prime, nb = (str(cap + 1) for cap in (
        MAX_DEGREE, MAX_STEPS, MAX_Q_ORDER, MAX_SERIES_ORDER, MAX_MULT, MAX_N, MAX_PRIME,
        MAX_NB))
    elem = ("--elem", "z - 2 + z^-1")
    for argv in (
        ("basis", "--group", "A1", "--mult", "1", "--max-deg", deg),
        ("hilbert", "--group", "A1", "--mult", "1", "--max-deg", deg),
        ("freeness", "--group", "A1", "--mult", "1", "--max-deg", deg),
        ("filtration", "--group", "A1", "--mult", "1", "--mult-high", "2", "--max-deg", deg),
        ("x1", "--group", "A1", "--max-deg", deg),
        ("tower", "--steps", "1", "--max-deg", deg),
        ("tower", "--steps", steps),
        ("fake-cohomology", "--nb", "3", "--mult", "1", "--max-deg", deg),
        ("fake-cohomology", "--nb", "3", "--mult", mult),
        ("fake-cohomology", "--nb", nb, "--mult", "1"),
        # N_B ** m in the JSON once overflowed the int-to-str digit limit
        ("fake-cohomology", "--nb", "9" * 150, "--mult", mult, "--max-deg", "64", "--json"),
        ("exp", "basis", "--mult", mult),
        ("chern", "--mult", mult, *elem),
        ("chern", "--mult", "1", "--order", order, *elem),
        ("fake", "ktheory", "--series", "0,0,3,1", "--order", order),
        ("fake", "ktheory", "--series", "0,0,3,1", "--mult", mult),
        ("fake", "distinguish", "--nb", "3", "--prime", prime),
        ("fake", "distinguish", "--nb", nb),
        ("fake", "nb", "--assign", f"3:2,{prime}:3"),
        ("elliptic", "theta", "--qorder", qorder),
        ("elliptic", "elldim", "--mult", mult, "--n", "1"),
        ("elliptic", "sections", "--n", n),
    ):
        code, out, err = call(*argv)
        assert code == 1, argv
        assert out == "" and "must be at most" in err, argv


def test_fake_nb_past_its_caps_is_refused():
    # one past the cap on a gluing degree and on N_B = lcm (about 10^18)
    for assign in (f"3:{MAX_NB + 1}", f"3:{-MAX_NB - 1}", "5:999999999,7:999999998",
                   MANY_DIGIT_ASSIGN):
        for json_flag in ((), ("--json",)):
            code, out, err = call("fake", "nb", "--assign", assign, *json_flag)
            assert code == 1, assign
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, assign
    code, out, _ = call("fake", "nb", "--assign", f"5:{MAX_NB - 1},2:1", "--json")
    assert code == 0 and json.loads(out)["payload"]["N_B"] == MAX_NB - 1


def test_fake_nb_refuses_more_than_max_primes_before_any_trial_division(monkeypatch):
    # 2,000 primes near 10^9 were once accepted and trial-divided for 6.8 s
    from quasinv import fake_ktheory
    is_prime = fake_ktheory._is_prime
    tested = []
    monkeypatch.setattr(fake_ktheory, "_is_prime", lambda p: tested.append(p) or is_prime(p))
    assign = ",".join(f"{p}:1" for p in filter(is_prime, range(3, 1000)))
    too_many = ",".join(assign.split(",")[:MAX_PRIMES + 1])
    for json_flag in ((), ("--json",)):
        code, out, err = call("fake", "nb", "--assign", too_many, *json_flag)
        assert code == 1 and out == "" and f"more than {MAX_PRIMES} primes" in err
        assert repr(too_many[:20]) in err and too_many[:21] not in err
    assert tested == []
    code, out, _ = call("fake", "nb", "--assign", ",".join(assign.split(",")[:MAX_PRIMES]), "--json")
    assert code == 0 and len(json.loads(out)["payload"]["signs"]) == MAX_PRIMES
    assert len(tested) == MAX_PRIMES


def test_windows_are_capped():
    # one past the cap on either side; the README windows lie well inside it.
    # An end longer than int() reads once ended in a traceback.
    past = MAX_WINDOW + 1
    for window in (f"-{past}:0", f"0:{past}", f"-{past}:{past}", "0:" + "9" * 5000):
        for argv in (("exp", "basis", "--mult", "1", "--window", window),
                     ("exp", "member", "--mult", "1", "--elem", "z", "--window", window),
                     ("elliptic", "theta", "--window", window)):
            code, out, err = call(*argv)
            assert code == 1, argv
            assert out == "" and f"within -{MAX_WINDOW}:{MAX_WINDOW}" in err, argv


def test_group_multiplicities_are_capped():
    # one past the cap as a constant, an orbit value and a vector entry;
    # "1e5000" once ended in a traceback while its value was printed
    for head in (("basis",), ("hilbert",), ("freeness",), ("filtration", "--mult-high", "1"),
                 ("demazure", "--apply", "x")):
        for group, mult in (("A1", str(MAX_MULT + 1)), ("A1", "1e5000"),
                            ("Z/3", f"0:1+{MAX_MULT + 1}"), ("A1 x A1", f"0:1,1:{MAX_MULT + 1}")):
            for json_flag in ((), ("--json",)):
                argv = (*head, "--group", group, "--mult", mult, *json_flag)
                code, out, err = call(*argv)
                assert code == 1, argv
                assert out == "" and err.startswith("error: ") and err.count("\n") == 1, argv
                assert f"must be at most {MAX_MULT}" in err, argv
    for group, mult in (("A1", str(MAX_MULT)), ("Z/3", f"0:{MAX_MULT}+1")):
        code, out, _ = call("basis", "--group", group, "--mult", mult, "--max-deg", "4")
        assert code == 0 and out, mult


def test_multiplicity_exponents_are_refused_before_they_are_read():
    # Fraction() computes 10**e before the cap can refuse the value, so the
    # ten characters 1e99999999 once cost far more than their refusal.  Five
    # exponent digits are one past the bound, and a zero or negative value
    # paid the same
    for head in (("basis",), ("hilbert",), ("freeness",), ("filtration", "--mult-high", "1")):
        for mult in ("1e10000", "0e10000", "1e-10000", "1e99999999", "0:1e010000",
                     "1E1_0000", "1e" + "9" * 5000):
            start = time.perf_counter()
            code, out, err = call(*head, "--group", "A1 x A1", "--mult", mult, "--json")
            assert time.perf_counter() - start < 1, (head, mult)
            assert code == 1 and out == "" and len(err) < 100, (head, mult)
            assert "exponent has more than 4 digits" in err, (head, mult)
            assert repr(mult.split(":")[-1][:20]) in err, (head, mult)
        code, _, err = call(*head, "--group", "A1", "--mult", "1e9999", "--json")
        assert code == 1 and f"must be at most {MAX_MULT}" in err, head
    code, out, _ = call("basis", "--group", "A1", "--mult", "1e0000", "--max-deg", "4")
    assert code == 0 and out


LONG = "a" * 4000
LONG_DIGITS = "9" * 4000


@pytest.mark.parametrize("argv", [
    ("fake-cohomology", "--nb", LONG, "--mult", "1"),
    ("fake-cohomology", "--nb", LONG_DIGITS, "--mult", "1"),
    ("fake-cohomology", "--nb", "-" + LONG_DIGITS, "--mult", "1"),
    ("fake", "nb", "--assign", "3:" + LONG_DIGITS),
    ("fake", "nb", "--assign", LONG),
    ("fake", "nb", "--assign", "3:1," + "0" * 4000 + "3:2"),
    ("fake", "ktheory", "--series", LONG),
    ("fake", "ktheory", "--series", "0,0,3,1", "--elem", LONG),
    ("exp", "basis", "--mult", "1", "--window", LONG),
    ("exp", "basis", "--mult", "1", "--window", "-3:" + LONG_DIGITS),
    ("elliptic", "theta", "--window", LONG_DIGITS + ":3"),
    ("demazure", "--group", "A1", "--mult", "1", "--apply", "x", "--hyperplane", LONG_DIGITS),
    ("demazure", "--group", "A1", "--mult", "0", "--apply", "9" * 999 + "/0*x"),
    *(("hilbert", "--group", spec, "--mult", "1") for spec in (
        "Z/" + LONG_DIGITS, "Z/" + "0" * 4000, "I2(" + "0" * 4000 + ")", "A1^" + "0" * 4000,
        "A1^" + "0" * 4000 + "7", "A1 x x " + LONG, LONG)),
    *(("hilbert", "--group", group, "--mult", mult) for group, mult in (
        ("A1", LONG), ("A1", "0:" + LONG), ("A1", "0:1," + LONG), ("A1", LONG + ":1"),
        ("Z/3", "0:1+" + LONG), ("A1", LONG_DIGITS))),
    # argparse's own refusals: an unrecognized argument and an invalid choice
    ("x1", "--group", "A1", "--mult", LONG_DIGITS),
    ("exp", LONG),
], ids=lambda argv: " ".join(a[:12] for a in argv))
@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
def test_refusals_repeat_at_most_20_input_characters(argv, json_flag):
    # each of these once repeated the whole value: 4,000 characters, or 1,002
    # for the zero denominator
    code, out, err = call(*argv, *json_flag)
    assert code == 1 and out == "", argv
    assert "Traceback" not in err and err.count("error: ") == 1
    assert len(err) < 300, err[:100]


def test_oversized_polynomials_and_characters_are_refused():
    # each of these once ran for seconds or minutes, or ended in a traceback
    nines = "9" * 5000
    apply = ("demazure", "--group", "A1", "--mult", "0", "--apply")
    member = ("exp", "member", "--mult", "1", "--elem")
    for argv in (
        (*member, "z^100000"),
        (*member, f"z^-{MAX_WINDOW + 1}"),
        (*member, f"z^{nines}"),
        (*member, f"{nines}*z"),
        (*member, "1/0*z"),
        ("chern", "--mult", "1", "--elem", f"z^({MAX_WINDOW + 1})"),
        (*apply, "3^30000000*x"),
        (*apply, "3^10000*x"),
        (*apply, f"{nines}*x"),
        (*apply, f"1/{nines}*x"),
        (*apply, f"x^{nines}"),
        (*apply, f"x^{MAX_DEGREE + 1}"),
        (*apply, f"x^{MAX_DEGREE}*x"),  # a product of capped factors
        (*apply, "*".join(["9^256"] * 5) + "*x"),  # 1,221 digits
        (*apply, "1/0*x"),
    ):
        code, out, err = call(*argv)
        assert code == 1, argv
        assert out == "" and "Traceback" not in err and err.strip(), argv
    for argv in ((*member, f"z^{MAX_WINDOW} - 2 + z^-{MAX_WINDOW}"),
                 (*apply, f"{'9' * MAX_DIGITS}/{'7' * MAX_DIGITS}*x^{MAX_DEGREE}")):
        code, out, err = call(*argv)
        assert code in (0, 2) and out and not err, argv


def test_fake_ktheory_coefficients_stop_at_max_digits():
    ring = ("fake", "ktheory", "--mult", "1", "--order", "12")
    long_entry = "0,0," + "9" * (MAX_DIGITS + 1)
    for argv in ((*ring, "--series", long_entry),
                 (*ring, "--series", "0,0,3,1", "--elem", long_entry),
                 (*ring, "--series", "0,0,-" + "9" * (MAX_DIGITS + 1))):
        code, out, err = call(*argv)
        assert code == 1 and out == "" and "Traceback" not in err, argv
        assert len(err) < 200, argv  # the refused value is quoted cut
    at_cap = "0,0," + "9" * MAX_DIGITS + ",-" + "9" * MAX_DIGITS
    code, out, err = call(*ring, "--series", at_cap, "--elem", at_cap)
    assert code == 0 and "membership: member" in out and not err  # P itself


def test_juxtaposed_and_parenthesized_factors_multiply():
    from fractions import Fraction

    from quasinv.cli import parse_laurent, parse_polynomial
    from quasinv.groups import parse_group
    from quasinv.laurent import z_power as z
    from quasinv.poly import Polynomial

    W = parse_group("A1")
    x = Polynomial.variable(W.variables, "x")
    for text, value in (("x^(2)", x ** 2), ("2 3", 6 * x ** 0), ("2*3*x", 6 * x),
                        ("x x", x ** 2), ("x^2 x", x ** 3)):
        assert parse_polynomial(W, text) == value, text
    for text, value in (("2*3*z", z(1, 6)), ("z z", z(2)), ("z^2 z", z(3)),
                        ("2 3", z(0, 6)), ("z^(-3)", z(-3)), ("z^(2)", z(2))):
        assert parse_laurent(text) == value, text
    # the README forms keep their values
    U = parse_group("A1 x A1")
    z1, z2 = (Polynomial.variable(U.variables, v) for v in U.variables)
    assert parse_polynomial(W, "x^5") == x ** 5
    assert parse_polynomial(W, "3*x^2 - 1/2*x + 4") == 3 * x ** 2 - Fraction(1, 2) * x + 4
    assert parse_polynomial(U, "z1^3*z2") == z1 ** 3 * z2
    assert parse_laurent("z - 2 + z^-1") == z(1) - 2 + z(-1)
    assert parse_laurent("z^2 - 2 + z^-2") == z(2) - 2 + z(-2)
    assert parse_laurent("3*z^-1") == z(-1, 3)
    assert not parse_laurent("") and not parse_polynomial(W, " ")


def test_malformed_expressions_are_refused():
    # each of these once read as a different value: x - -x as 0, 2*3*z as
    # 2 + 3z, z^(3 as z^3; none may be guessed at
    apply = ("demazure", "--group", "A1", "--mult", "0")
    member = ("exp", "member", "--mult", "1")
    for text in ("x - -x", "--x", "+", "x-", "x*", "zz", "x^(2", "x^2)", "x^-2", "x^(-2)",
                 "x**2", "x^1/2", "(x)", "2^-1*x"):
        code, out, err = call(*apply, f"--apply={text}")
        assert code == 1, text
        assert out == "" and err.startswith("error: "), text
    for text in ("z - -z", "--z", "+", "z-", "z*", "zz", "z^(3", "z^3)", "z2", "z^1/2",
                 "z^20*z^21", "z^-20*z^-21", "2^-1*z", f"z^{MAX_WINDOW} z"):
        code, out, err = call(*member, f"--elem={text}")
        assert code == 1, text
        assert out == "" and err.startswith("error: "), text


def test_malformed_multiplicities_are_parse_errors():
    # a repeated orbit id once answered for its later value, and an id that
    # names no orbit was dropped
    for argv, message in (
        (("basis", "--group", "I2(3)", "--mult", "0:a+b"), ""),
        (("basis", "--group", "Z/3", "--mult", "0:1"), ""),
        (("basis", "--group", "A1 x Z/3", "--mult", "0:1,1:2+1"), ""),
        (("basis", "--group", "A1", "--mult", "0:1,0:2", "--max-deg", "6", "--json"),
         "orbit id '0' given twice"),
        (("basis", "--group", "A1", "--mult", "0:1,7:3"), "the group has no orbit '7'"),
        (("hilbert", "--group", "I2(4)", "--mult", "0:1,1:2,2:5"), "the group has no orbit '2'"),
        (("basis", "--group", "A1", "--mult", f"0:1,{'9' * 50}:1"),
         f"the group has no orbit '{'9' * 20}'"),
        (("basis", "--group", "A1", "--mult", f"{'9' * 50}:1,{'9' * 50}:2"),
         f"orbit id '{'9' * 20}' given twice"),
    ):
        code, out, err = call(*argv)
        assert code == 1, argv
        assert out == "" and "Traceback" not in err and err.strip(), argv
        assert message in err and err.count("\n") == 1, argv


def test_out_of_range_inputs_exit_with_a_message():
    for argv, expected in (
        # spec numbers longer than int() reads are refused as past the order cap
        (("group", "--spec", "Z/" + "9" * 5000), 1),
        (("group", "--spec", "A1^" + "9" * 5000), 1),
        (("group", "--spec", "Z/100"), 1),
        # the generator needs its t^2 coefficient: orders below 3 are refused
        (("fake", "ktheory", "--series", "0,0,3,1", "--order", "2"), 2),
        (("fake", "ktheory", "--series", "0,0,3,1", "--order", "0"), 2),
        (("fake", "ktheory", "--series", "0,0,3,1", "--order", "-2"), 2),
        # the distinguishing quotient needs N_B != 0, as the ring itself does
        (("fake", "distinguish", "--nb", "0", "--mult", "2", "--prime", "5"), 2),
        (("exp", "basis", "--mult", "-1"), 1),
        (("elliptic", "elldim", "--mult", "-1", "--n", "2"), 1),
        (("fake-cohomology", "--nb", "3", "--mult", "-1"), 1),
        # A1 has the single hyperplane 0
        (("demazure", "--group", "A1", "--mult", "1", "--apply", "x^5", "--hyperplane", "1"), 1),
        (("demazure", "--group", "A1", "--mult", "1", "--apply", "x^5", "--hyperplane", "-1"), 1),
        # a half-integer constant on a group with a non-Coxeter orbit
        (("filtration", "--group", "A1 x Z/3", "--mult", "1/2", "--mult-high", "1"), 1),
    ):
        code, out, err = call(*argv)
        assert code == expected, argv
        assert out == "" and "Traceback" not in err and err.strip(), argv


def test_degree_bounds_past_the_monomial_cap_are_refused():
    # C(D + 4, 4) monomials through degree D in rank 4: 63 is the last accepted bound
    assert comb(63 + 4, 4) <= MAX_MONOMIALS < comb(64 + 4, 4)
    for argv in (
        ("basis", "--group", "A1^4", "--mult", "1", "--max-deg", "64"),
        ("hilbert", "--group", "A1^4", "--mult", "1", "--max-deg", "64"),
        ("freeness", "--group", "A1^4", "--mult", "1", "--max-deg", "64"),
        ("filtration", "--group", "A1^4", "--mult", "0", "--mult-high", "1", "--max-deg", "64"),
        ("x1", "--group", "A1^4", "--max-deg", "64"),
        ("freeness", "--group", "A1^6", "--mult", "1"),  # the default bound, 48
    ):
        start = time.perf_counter()
        code, out, err = call(*argv, "--json")
        assert time.perf_counter() - start < 1, argv
        assert code == 1 and out == "", argv
        assert f"exceed the cap of {MAX_MONOMIALS:,}" in err, argv


# -- fuzzing the subcommand grammar ------------------------------------------------

SPECS = ("A1", "A1^2", "A1 x A1", "I2(3)", "I2(4)", "Z/3", "Z/4", "A1 x Z/3",
         "", "E8", "I2(2)", "Z/1", "A1^0", "A1 x I2(3)", "I2(33)", "Z/" + "9" * 5000,
         "A1^" + "9" * 5000)
MULTS = ("0", "1", "2", "1/2", "-1", "0:1", "0:2,1:1", "0:1+2", "0:a+b", "1:1", "x", "", "33",
         "1e5000", "9" * 5000, "1e99999999", "0e99999999", "1e-99999999", "0:1,0:2", "0:1,7:3",
         "0:1,1:1,2:1")
POLYNOMIALS = ("x^5", "x", "z1^3*z2", "3*x^2 - 1/2*x + 4", "z1 - z2", "x^", "(", "",
               "3^30000000*x", "3^10000*x", "9" * 5000 + "*x", f"x^{MAX_DEGREE + 1}", "1/0*x",
               "x - -x", "x^(2)", "x*", "+")
CHARACTERS = ("z^2 - 2 + z^-2", "z - z^-1", "3*z^-1", "z^(-3)", "2", "zz", "",
              "z^100000", "9" * 5000 + "*z", "z^-" + "9" * 5000, "1/0*z", "2*3*z", "z^2 z", "+")
SERIES = ("0,0,3,1", "0,0,1", "1,2", "0,0,0,1", "a,b", "")

small = st.integers(-3, 8).map(str)
specs = st.sampled_from(SPECS)
mults = st.sampled_from(MULTS)
windows = st.sampled_from(("3", "a:b", "", f"-{MAX_WINDOW + 1}:3",
                           f"0:{MAX_WINDOW + 1}")) | st.builds(
    lambda lo, hi: f"{lo}:{hi}", st.integers(-3, 8), st.integers(-3, 8))
nbs = small | st.sampled_from((str(MAX_NB + 1), str(-MAX_NB - 1), "9" * 150))
# A1^6 through degree 40 or more, given or by default (48), is past MAX_MONOMIALS
large_degrees = st.sampled_from(("40", "48", str(MAX_DEGREE)))


# the argv prefixes the grammar draws: (subcommand,), (subcommand, action)
# and (subcommand, option), and (option,) before any subcommand
DRAWN = set()


def _bound_values():
    """(subcommand, option) -> the values at and just past the bounds of each
    option that `cli._int_in` types, read off the parser: low - 1, low, high
    and high + 1, or high and high + 1 for an option bounded above only."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    out = {}
    for name, p in sub.choices.items():
        for a in p._actions:
            if hasattr(a.type, "bounds"):
                low, high = a.type.bounds
                values = (high, high + 1) if low is None else (low - 1, low, high, high + 1)
                out[name, a.option_strings[0]] = st.sampled_from([str(v) for v in values])
    return out


BOUNDS = _bound_values()


def _bounded(head, option, values):
    """`values`, and the bounds of the option if `_int_in` types it (`BOUNDS`)."""
    bounds = BOUNDS.get((head[0], f"--{option}"))
    return values if bounds is None else values | bounds


def _command(*head, max_deg=False, flags=(), **options):
    """argvs of one subcommand: each option and each flag present or left
    out, and a small --max-deg always present when the command takes one
    (its default degree bounds are larger); an option that `_int_in` types
    also draws its bounds."""
    present = [st.one_of(st.just(()), _bounded(head, k, value).map(lambda v, k=k: (f"--{k}", v)))
               for k, value in options.items()]
    present += [st.sampled_from(((), (f"--{k}",))) for k in flags]
    named = [f"--{k}" for k in (*options, *flags)]
    if max_deg:
        present.append(_bounded(head, "max-deg", small).map(lambda v: ("--max-deg", v)))
        named.append("--max-deg")
    DRAWN.update({head[:i] for i in range(1, len(head) + 1)}, ((head[0], o) for o in named))
    return st.tuples(*present).map(lambda parts: head + sum(parts, ()))


def _actions(head, actions, **options):
    return st.one_of(*(_command(*head, a, **options) for a in actions))


ARGVS = st.one_of(
    _command("--version"),
    _command("group", spec=specs),
    _actions((), ("basis", "hilbert", "freeness", "x1"), max_deg=True, group=specs, mult=mults),
    _actions((), ("basis", "hilbert", "freeness", "x1"), group=st.just("A1^6"), mult=mults,
             **{"max-deg": large_degrees}),
    _command("basis", max_deg=True, flags=("check-closure",), group=specs, mult=mults),
    _command("filtration", max_deg=True, group=specs, mult=mults, **{"mult-high": mults}),
    _command("tower", max_deg=True, steps=st.integers(-3, 3).map(str)),
    _command("fake-cohomology", max_deg=True, nb=nbs, mult=small),
    _command("demazure", group=specs, mult=mults, apply=st.sampled_from(POLYNOMIALS),
             hyperplane=small),
    _actions(("exp",), ("basis", "member"), mult=small, window=windows,
             elem=st.sampled_from(CHARACTERS)),
    _command("chern", mult=small, order=small, elem=st.sampled_from(CHARACTERS)),
    _actions(("fake",), ("ktheory", "distinguish", "nb"), series=st.sampled_from(SERIES),
             elem=st.sampled_from(SERIES), mult=small, order=small, nb=nbs, prime=small,
             assign=st.sampled_from(("3:2,5:3", "2:1", "4:1", "3:0", "x", "3:2,3:5",
                                     MANY_DIGIT_ASSIGN))),
    _actions(("elliptic",), ("theta", "sections", "elldim", "sheafdims"),
             form=st.sampled_from(("sum", "product")), qorder=small, window=windows,
             n=small, mult=small),
    _command("replay", suite=st.sampled_from(REPLAY_SUITES + ("all", "none"))),
)


@settings(max_examples=300, deadline=None)
@given(ARGVS, st.booleans())
def test_every_argv_exits_with_a_code(argv, as_json):
    # argparse errors exit 1 through the parser; nothing else may escape, and
    # no message repeats a long input
    code, _, err = call(*argv, *(("--json",) if as_json else ()))
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert len(err) < 1000, (argv, code, err[:200])


def test_the_fuzz_grammar_draws_every_part_of_the_parser():
    # a subcommand, action or option the grammar leaves out ships unfuzzed;
    # the fuzz test appends --json to any argv, and -h prints argparse's help
    parser = build_parser()
    parts = {(o,) for a in parser._actions for o in a.option_strings}
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for name, p in sub.choices.items():
        parts.add((name,))
        for a in p._actions:
            parts.update((name, part) for part in a.option_strings or a.choices or [a.dest])
    missing = {part for part in parts if part[-1] not in ("-h", "--help", "--json")} - DRAWN
    assert not missing, sorted(missing)


# -- per-command imports ---------------------------------------------------------


def _src_env():
    """The environment with this checkout's `src` first on PYTHONPATH."""
    src = os.path.join(HERE, "..", "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def _loaded_after(code):
    """The quasinv modules loaded in a fresh interpreter after running `code`."""
    probe = f"{code}\nimport json, sys\nprint(json.dumps(list(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", probe], env=_src_env(),
                          capture_output=True, text=True, check=True)
    return {m for m in json.loads(proc.stdout.splitlines()[-1]) if m.startswith("quasinv")}


def test_cli_import_loads_no_subcommand_module():
    loaded = _loaded_after("import quasinv.cli")
    assert "quasinv.cli" in loaded
    assert not loaded & {"quasinv.groups", "quasinv.quasi", "quasinv.tower", "quasinv.elliptic",
                         "quasinv.hilbert"}


def test_package_import_loads_no_module():
    assert _loaded_after("import quasinv") == {"quasinv"}


def test_elliptic_command_loads_no_group_module():
    loaded = _loaded_after("from quasinv import cli\n"
                           "cli.run(['elliptic', 'theta', '--qorder', '12', '--json'])")
    assert "quasinv.elliptic" in loaded
    assert not loaded & {"quasinv.groups", "quasinv.quasi"}


def test_closed_stdout_exits_1_with_a_message():
    """A reader that closed the pipe before the output came (as `| head`
    can) gets exit 1 and one error line, not a BrokenPipeError traceback;
    in development mode, so an unclosed file would add a warning line."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-m", "quasinv.cli",
             "elliptic", "theta", "--qorder", "12", "--json"],
            stdout=write_end, stderr=subprocess.PIPE, env=_src_env(), text=True)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1

