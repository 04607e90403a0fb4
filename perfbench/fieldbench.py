"""Coefficient-field microbenchmarks on harvested operands.

Operands are the nonzero entries of real constraint matrices (the matrices
`quasi_basis` hands to `nullspace` on a dihedral-freeness query, which are
cyclotomic) and of real span vectors (the vectors `module_certificate` adds
to an `IncrementalSpan` on a rational-freeness query, which are Fractions).
Timing runs after the workload, outside its timed region.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter_ns

from tracer import bindings, patched
from workloads import multiplicity

SAMPLE = 600
REPEATS = 9


def _capturing(module_name, path, pool, pick):
    original, sites = bindings(module_name, path)

    def capture(*args, **kwargs):
        for row in pick(args):
            pool.extend(c for c in row if c)
        return original(*args, **kwargs)

    return [(owner, attr, capture) for owner, attr in sites]


def harvest(cyclotomic_query, rational_query, rng: random.Random):
    """(cyclotomic operands, rational operands), SAMPLE of each."""
    from quasinv import groups, quasi

    cyc, rat = [], []
    spec, mult, degree = cyclotomic_query
    group = groups.parse_group(spec)
    with patched(_capturing("quasinv.linalg", "nullspace", cyc, lambda a: a[0])):
        quasi.quasi_basis(group, multiplicity(group, mult), degree)
    spec, mult, degree = rational_query
    group = groups.parse_group(spec)
    with patched(_capturing("quasinv.linalg", "IncrementalSpan.add", rat,
                            lambda a: [a[1]])):
        quasi.freeness_certificate(group, multiplicity(group, mult), degree)
    if not cyc or not rat:
        raise RuntimeError("operand harvest found no nonzero entries")
    return _sample(cyc, rng), _sample(rat, rng)


def _sample(pool, rng):
    return [pool[rng.randrange(len(pool))] for _ in range(SAMPLE)]


def _per_op_us(body, operands, ops) -> float:
    samples = []
    for _ in range(REPEATS):
        start = perf_counter_ns()
        body(operands)
        samples.append((perf_counter_ns() - start) / ops / 1e3)
    return statistics.median(samples)


def _muladd(values):
    for a, b, c in values:
        a * b + c


def _inverse(values):
    for a in values:
        a.inverse()


def _triples(values):
    n = len(values)
    return [(values[i], values[(i + 1) % n], values[(i + 2) % n]) for i in range(n)]


def field_metrics(cyc, rat) -> dict:
    """Microseconds per mul+add and per inverse on the harvested operands."""
    return {
        "fields.cyc_muladd_us": _per_op_us(_muladd, _triples(cyc), len(cyc)),
        "fields.cyc_inverse_us": _per_op_us(_inverse, cyc, len(cyc)),
        "fields.q_muladd_us": _per_op_us(_muladd, _triples(rat), len(rat)),
    }
