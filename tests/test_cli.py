import io
import json
import os
import shlex
from contextlib import redirect_stderr, redirect_stdout

from quasinv.cli import run

HERE = os.path.dirname(__file__)


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
    # order too small to separate the free part from the ideal
    code, _, _ = call(
        "fake", "ktheory", "--series", "0,0,3,1", "--mult", "3", "--order", "4",
        "--elem", "0,0,3",
    )
    assert code == 3


def test_exp_member_and_non_member():
    code, out, _ = call("exp", "member", "--mult", "1", "--elem", "z - 2 + z^-1")
    assert code == 0
    code, _, _ = call("exp", "member", "--mult", "1", "--elem", "z")
    assert code == 2


def test_group_json_deterministic():
    code1, out1, _ = call("group", "--spec", "I2(3)", "--json")
    code2, out2, _ = call("group", "--spec", "I2(3)", "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["payload"]["order"] == 6


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


def test_qorder_env_override(monkeypatch):
    monkeypatch.setenv("QUASINV_DEFAULT_QORDER", "6")
    code, out, _ = call("elliptic", "theta", "--form", "product", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["payload"]["series"]["q_order"] == 6


def test_missing_action_flags_are_parse_errors():
    for argv in (
        ("exp", "member", "--mult", "1"),
        ("fake", "ktheory", "--mult", "1"),
        ("fake", "nb", "--assign", "junk"),
        ("fake", "ktheory", "--series", "a,b", "--mult", "1"),
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
    ):
        code, out, err = call(*argv)
        assert code == 1, argv
        assert out == "" and "must be at least" in err


def test_qorder_env_override_is_bounded(monkeypatch):
    monkeypatch.setenv("QUASINV_DEFAULT_QORDER", "0")
    code, out, err = call("elliptic", "theta", "--form", "product")
    assert code == 1
    assert out == "" and "must be at least 1" in err


def test_malformed_multiplicities_are_parse_errors():
    for argv in (
        ("basis", "--group", "I2(3)", "--mult", "0:a+b"),
        ("basis", "--group", "Z/3", "--mult", "0:1"),
        ("basis", "--group", "A1 x Z/3", "--mult", "0:1,1:2+1"),
    ):
        code, out, err = call(*argv)
        assert code == 1, argv
        assert out == "" and "Traceback" not in err and err.strip(), argv
