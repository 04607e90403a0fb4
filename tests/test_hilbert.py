import io
import json
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import check_answer
from oracles import closed_form_numerator
from quasinv import quasi
from quasinv.cli import run
from quasinv.errors import ReconstructionError
from quasinv.groups import Multiplicity, parse_group
from quasinv.hilbert import HilbertSeries, gorenstein_shift, hilbert_from_basis
from quasinv.quasi import _free_degree_sum, freeness_certificate, quasi_basis
from test_acceptance import _max_entry, criterion_2_configurations, larger_battery_configurations


def test_polynomial_line_over_squares():
    # Q[x] is free over Q[x^2] with basis 1, x
    dims = [1] * 13
    series = hilbert_from_basis(dims, [2])
    assert series.numerator == (1, 1)
    assert series.dims(12) == dims


def test_multiplicity_one_line():
    dims = [1, 0] + [1] * 11
    series = hilbert_from_basis(dims, [2])
    assert series.numerator == (1, 0, 0, 1)
    assert series.numerator_string() == "1 + t^3"


@pytest.mark.parametrize("m", range(5))
def test_rank_one_general_multiplicity(m):
    dims = [1 if (d % 2 == 0 or d >= 2 * m + 1) else 0 for d in range(4 * m + 13)]
    series = hilbert_from_basis(dims, [2])
    expected = [1] + [0] * 2 * m + [1]
    assert list(series.numerator) == expected


def test_degree_bound_too_small():
    with pytest.raises(ReconstructionError):
        hilbert_from_basis([1, 1, 1], [2])
    # dims that stabilize to no polynomial numerator within range
    with pytest.raises(ReconstructionError):
        hilbert_from_basis([1, 2, 4, 8, 16, 32, 64, 128, 256], [2])


def test_expansion_matches():
    series = HilbertSeries([1, 0, 0, 1], [2], verified_through=8)
    assert series.dims(8) == [1, 0, 1, 1, 1, 1, 1, 1, 1]


def test_gorenstein_shift_polynomial_plane():
    series = HilbertSeries([1], [1, 1], verified_through=8)
    assert gorenstein_shift(series, 2) == 2


@pytest.mark.parametrize("m", range(4))
def test_gorenstein_shift_rank_one(m):
    series = HilbertSeries([1] + [0] * 2 * m + [1], [2], verified_through=12)
    assert gorenstein_shift(series, 1) == 1 - 2 * m


def test_gorenstein_shift_fails_on_non_palindromic():
    series = HilbertSeries([1, 2, 0, 1], [2], verified_through=8)
    assert gorenstein_shift(series, 1) is None


def test_series_certified_to_different_orders_are_not_equal():
    # a truncated object never compares equal across certified orders
    assert HilbertSeries([1], [2], 8) != HilbertSeries([1], [2], 9)


def test_shift_needs_one_degree_per_dimension():
    series = HilbertSeries([1], [2], verified_through=8)
    with pytest.raises(ValueError):
        gorenstein_shift(series, 2)


# -- the engine against the closed form of the Hilbert series ------------------------


def _assert_closed_form(group, mult, max_degree):
    """The certificate's numerator and the multiset of its generator degrees
    equal the closed form read off the spec and the multiplicity values."""
    cert = freeness_certificate(group, mult, max_degree)
    expected = closed_form_numerator(group.spec, mult.values.values())
    assert {d: c for d, c in enumerate(cert.hilbert.numerator) if c} == expected
    assert Counter(cert.generator_degrees()) == expected


def test_closed_form_at_the_criterion_2_degree():
    for group, mult in criterion_2_configurations() + larger_battery_configurations():
        _assert_closed_form(group, mult,
                            4 * group.sum_invariant_degrees() + 4 * _max_entry(mult))


_CLOSED_FORM_SPECS = ("A1", "A1 x A1", "A1^3", "I2(3)", "I2(4)", "I2(5)", "I2(6)",
                      "Z/3", "Z/4", "A1 x Z/3", "Z/3 x Z/4")


@st.composite
def _closed_form_case(draw):
    group = parse_group(draw(st.sampled_from(_CLOSED_FORM_SPECS)))
    small, values = st.integers(0, 2), {}
    for h in group.hyperplanes:
        n_h = h.stabilizer_order
        if h.orbit_id not in values:
            values[h.orbit_id] = (draw(small) if n_h == 2 else
                                  tuple(draw(small) for _ in range(n_h - 1)))
    return group, Multiplicity(group, values)


@settings(max_examples=30, deadline=None)
@given(_closed_form_case())
def test_closed_form_on_random_multiplicities(case):
    group, mult = case
    _assert_closed_form(group, mult, 4 * group.sum_invariant_degrees() + 8)


def _every_small_multiplicity(spec):
    """Every multiplicity of the group with each orbit entry in 0..2."""
    group = parse_group(spec)
    orders = {h.orbit_id: h.stabilizer_order for h in group.hyperplanes}
    for choice in product(*(range(3) if n == 2 else product(range(3), repeat=n - 1)
                            for n in orders.values())):
        yield group, Multiplicity(group, dict(zip(orders, choice)))


def test_free_degree_sum_is_the_derivative_of_the_closed_form():
    """|W| (N/2 + sum_H l_H), which a "free" certificate's generator degrees
    must sum to, is N'(1) of the closed-form numerator N(t)."""
    grid = [case for spec in _CLOSED_FORM_SPECS for case in _every_small_multiplicity(spec)]
    for group, mult in criterion_2_configurations() + larger_battery_configurations() + grid:
        num = closed_form_numerator(group.spec, mult.values.values())
        assert _free_degree_sum(group, mult) == sum(d * c for d, c in num.items()), group.spec


def test_a_free_certificate_off_the_degree_sum_is_refused(monkeypatch):
    """I2(3) at m = 1 has generator degrees 0, 4, 4, 5, 5, 9, summing to
    6 (3/2 + 3) = 27; one degree moved up is a failed self-check."""
    certify = quasi.module_certificate

    def moved(group, basis, predicted_shift=None):
        cert = certify(group, basis, predicted_shift)
        d, g = cert.generators[-1]
        cert.generators[-1] = (d + 1, g)
        return cert

    W = parse_group("I2(3)")
    assert sum(freeness_certificate(W, Multiplicity.constant(W, 1), 20).generator_degrees()) == 27
    monkeypatch.setattr(quasi, "module_certificate", moved)
    with pytest.raises(ArithmeticError, match="degree sum 28, not .* = 27"):
        freeness_certificate(W, Multiplicity.constant(W, 1), 20)
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        assert run(["freeness", "--group", "I2(3)", "--mult", "1", "--max-deg", "20"]) == 2
    assert err.getvalue().startswith("self-check failed: free generators of degree sum 28")


def _closed_form_dims(spec, values, denominator_degrees, max_degree):
    """The closed-form numerator expanded over the product of (1 - t^d_i)
    through max_degree, one geometric series at a time."""
    dims = [0] * (max_degree + 1)
    for d, c in closed_form_numerator(spec, values).items():
        if d <= max_degree:
            dims[d] += c
    for step in denominator_degrees:
        for d in range(step, max_degree + 1):
            dims[d] += dims[d - step]
    return dims


@pytest.mark.parametrize("k, m, max_degree", [(12, 32, 160), (32, 32, 256), (4, 32, 256),
                                               (3, 85, 256)])
def test_dihedral_dims_at_scale_equal_the_closed_form(k, m, max_degree):
    # the largest requests the CLI's timed checks make, and (3, 85, 256) the
    # intersection that `filtration` on I2(3) takes at D = 256 (m = 256 // 3);
    # their dims are read off one frame kernel per chain, none is checked
    # against another solve
    group = parse_group(f"I2({k})")
    mult = Multiplicity.constant(group, m)
    expected = _closed_form_dims(group.spec, mult.values.values(), (2, k), max_degree)
    assert quasi_basis(group, mult, max_degree).dims() == expected


@pytest.mark.parametrize("argv", [
    ("--group", "I2(4)", "--mult", "0:1,1:2", "--max-deg", "40"),
    ("--group", "A1 x Z/3", "--mult", "0:1+2,1:3", "--max-deg", "30"),
    # the numerator of degree 780 is cut at D = 60: only its constant term shows
    ("--group", "I2(12)", "--mult", "32", "--max-deg", "60"),
])
def test_check_answer_accepts_a_hilbert_answer_and_refuses_a_changed_one(argv, monkeypatch):
    out = io.StringIO()
    with redirect_stdout(out):
        assert run(["hilbert", *argv, "--json"]) == 0
    envelope = json.loads(out.getvalue())
    monkeypatch.setattr(sys, "stdin", io.StringIO(out.getvalue()))
    assert check_answer.main() == 0
    envelope["payload"]["series"]["numerator"][0] += 1
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(envelope)))
    with redirect_stderr(io.StringIO()):
        assert check_answer.main() == 1


@pytest.mark.parametrize("argv, code", [
    (("--group", "I2(4)", "--mult", "0:1,1:2", "--max-deg", "40"), 0),
    (("--group", "A1 x Z/3", "--mult", "0:1+2,1:3", "--max-deg", "30"), 0),
    # the generators of degree <= 15 of a numerator of degree 16
    (("--group", "I2(4)", "--mult", "0:1,1:2", "--max-deg", "15"), 3),
    # only the constant term of a numerator of degree 780 lies below D = 60
    (("--group", "I2(12)", "--mult", "32", "--max-deg", "60"), 3),
])
def test_check_answer_accepts_a_freeness_answer_and_refuses_a_changed_one(argv, code,
                                                                          monkeypatch):
    out = io.StringIO()
    with redirect_stdout(out):
        assert run(["freeness", *argv, "--json"]) == code
    monkeypatch.setattr(sys, "stdin", io.StringIO(out.getvalue()))
    assert check_answer.main() == 0
    for key, change in (("generator_degrees", lambda degrees: degrees[:-1]),
                        ("status", lambda status: "not-free")):
        envelope = json.loads(out.getvalue())
        envelope["payload"][key] = change(envelope["payload"][key])
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(envelope)))
        with redirect_stderr(io.StringIO()):
            assert check_answer.main() == 1


@pytest.mark.parametrize("argv", [
    ("--group", "I2(4)", "--mult", "0:1,1:0", "--mult-high", "0:1,1:2", "--max-deg", "40"),
    ("--group", "A1 x Z/3", "--mult", "0:0+1,1:0", "--mult-high", "0:1+1,1:1", "--max-deg", "20"),
])
def test_check_answer_accepts_a_filtration_answer_and_refuses_a_changed_one(argv, monkeypatch):
    out = io.StringIO()
    with redirect_stdout(out):
        assert run(["filtration", *argv, "--json"]) == 0
    monkeypatch.setattr(sys, "stdin", io.StringIO(out.getvalue()))
    assert check_answer.main() == 0
    for key, change in (("codims", lambda codims: codims[:-1] + [codims[-1] + 1]),
                        ("included", lambda included: False)):
        envelope = json.loads(out.getvalue())
        envelope["payload"][key] = change(envelope["payload"][key])
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(envelope)))
        with redirect_stderr(io.StringIO()):
            assert check_answer.main() == 1
