"""quasinv benchmark: one workload, one seed, one JSON line of metrics.

Usage, from the root of a quasinv checkout:

    python3 perfbench/run.py --workload dihedral-freeness --seed 1 --seconds 25 --trace 0

Every workload is a closed loop with one client: the next query starts
when the previous answer has been checked.  `dihedral-freeness` and
`rational-freeness` call `freeness_certificate` in this process;
`cli-session` starts one `python -m quasinv.cli ... --json` process per
command, one at a time.  `--seconds` is the work budget: the seeded query
list is drawn until its costs at the commit that introduced the benchmark
add up to that many seconds, so a faster program finishes the same list
sooner.

With `--trace 0` the last line holds the end-to-end metrics; with
`--trace 1` the list runs with every layer wrapped (see tracer.py) and the
last line holds the per-layer metrics.  Times are in seconds at a reference
machine speed (see gauge.py).  The exit code is 1 when any answer fails its
output check and 2 when the checkout is incomplete.  See README.md in this
directory for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from time import perf_counter

import checks
import fieldbench
import workloads
from cli_child import TRACE_MARK
from gauge import Gauge
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TESTS = os.path.join(ROOT, "tests")
CHILD = os.path.join(HERE, "cli_child.py")
SETUP_SAMPLES = 7
CHILD_CPU_SECONDS = 150

END_TO_END = {
    "total_s": "s", "query_p50_s": "s", "query_max_s": "s", "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "fields.cyc_muladd_us": "us", "fields.cyc_inverse_us": "us",
    "fields.cyc_ops": "count", "fields.q_muladd_us": "us",
    "poly.substitute.s": "s", "poly.substitute.calls": "count",
    "groups.parse_group.s": "s", "groups.apply.s": "s", "groups.monomial_blocks.s": "s",
    "quasi.freeness_certificate.s": "s",
    "quasi.quasi_basis.s": "s", "quasi.quasi_basis.calls": "count",
    "quasi.rowbuild.self_s": "s", "quasi.module_certificate.s": "s",
    "linalg.nullspace.s": "s", "linalg.nullspace.calls": "count",
    "linalg.nullspace.cells": "count",
    "linalg.span_add.s": "s", "linalg.span_add.calls": "count",
    "linalg.span_add.useful_ratio": "ratio",
    "linalg.solve_exact.s": "s", "linalg.solve_exact.calls": "count",
    "tower.fiber_product_basis.s": "s", "tower.ganea_step.s": "s",
    "series.zq_mul.s": "s", "series.zq_mul.calls": "count",
    "series.zq_mul.term_pairs": "count", "laurent.exact_div.s": "s",
    "elliptic.ell_graded_dimension.s": "s", "elliptic.section_basis.s": "s",
    "elliptic.zq_mul_share": "ratio",
    "cli.run.s": "s", "cli.process_s": "s", "cli.stdout_bytes": "bytes",
    "cli.readme_refused": "count",
    "trace.overhead_frac": "ratio", "trace.coverage_frac": "ratio",
    "trace.selfcheck_failures": "count", "bench.speed_factor": "ratio",
}

# Layer metrics that must read nonzero on each workload (the interaction
# table in README.md); the rational workload must do no cyclotomic work.
FREENESS_LAYERS = (
    "groups.parse_group.s", "groups.apply.s", "groups.monomial_blocks.s",
    "quasi.quasi_basis.s", "quasi.quasi_basis.calls", "quasi.rowbuild.self_s",
    "quasi.module_certificate.s",
)
EXPECT_NONZERO = {
    "dihedral-freeness": FREENESS_LAYERS + (
        "fields.cyc_muladd_us", "fields.cyc_inverse_us", "fields.cyc_ops",
        "poly.substitute.s", "poly.substitute.calls", "linalg.nullspace.s",
        "linalg.nullspace.calls", "linalg.nullspace.cells"),
    "rational-freeness": FREENESS_LAYERS + (
        "fields.q_muladd_us", "linalg.span_add.s", "linalg.span_add.calls",
        "linalg.span_add.useful_ratio"),
    "cli-session": (
        "fields.q_muladd_us", "groups.parse_group.s", "quasi.quasi_basis.calls",
        "linalg.solve_exact.s", "linalg.solve_exact.calls",
        "tower.fiber_product_basis.s", "tower.ganea_step.s", "series.zq_mul.s",
        "series.zq_mul.calls", "series.zq_mul.term_pairs", "laurent.exact_div.s",
        "elliptic.ell_graded_dimension.s", "elliptic.section_basis.s", "cli.run.s",
        "cli.process_s", "cli.stdout_bytes"),
}
EXPECT_ZERO = {"rational-freeness": ("fields.cyc_ops",)}
MIN_COVERAGE = 0.95


def _limit_cpu():
    # A CPU limit instead of a wait timeout: subprocess polls in growing
    # sleeps while it waits with a timeout, which rounds the measured time.
    resource.setrlimit(resource.RLIMIT_CPU, (CHILD_CPU_SECONDS, CHILD_CPU_SECONDS + 5))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env.pop("QUASINV_DEFAULT_QORDER", None)  # the README commands assume the default
    return env


def measure_setup(workload: str, gauge: Gauge) -> float:
    """Median time from process start to a loaded library: interpreter plus
    `import quasinv` (`import quasinv.cli` for cli-session), at the
    reference speed.  One untimed start first, so byte-code compilation is
    not counted."""
    module = "quasinv.cli" if workload == "cli-session" else "quasinv"
    argv = [sys.executable, "-c", f"import {module}"]
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        gauge.sample()
        start = perf_counter()
        subprocess.run(argv, cwd=ROOT, env=child_env(), check=True,
                       stdout=subprocess.DEVNULL, preexec_fn=_limit_cpu)
        end = perf_counter()
        if i:
            samples.append((end - start, (start, end)))
    return statistics.median(t * gauge.factor(*w) for t, w in samples)


class Pass:
    """Timings and failures of one pass over the query list."""

    def __init__(self):
        self.answered = []  # queries that returned, in order
        self.times = []  # their seconds
        self.windows = []  # their (start, end) perf_counter values
        self.failures = []  # (query, problems)
        self.wall = 0.0  # loop wall time without the output checks
        self.stdout_bytes = 0

    def reference_times(self, gauge: Gauge) -> list:
        """Each query's time at the reference speed of its own interval."""
        return [t * gauge.factor(*w) for t, w in zip(self.times, self.windows)]


def freeness_pass(queries, gauge: Gauge, tracer=None) -> Pass:
    with gauge.ticking():
        return _freeness_pass(queries, tracer)


def _freeness_pass(queries, tracer) -> Pass:
    import oracles
    from quasinv import groups, quasi

    out = Pass()
    start = perf_counter()
    checking = 0.0
    for query in queries:
        try:
            with tracer.installed() if tracer else nullcontext():
                t0 = perf_counter()
                group = groups.parse_group(query.spec)
                mult = workloads.multiplicity(group, query.mult)
                cert = quasi.freeness_certificate(group, mult, query.max_degree)
                t1 = perf_counter()
        except Exception as exc:  # a failed query is counted, the run goes on
            out.failures.append((query, [repr(exc)]))
            continue
        out.answered.append(query)
        out.times.append(t1 - t0)
        out.windows.append((t0, t1))
        t0 = perf_counter()
        problems = checks.freeness(
            group, mult, cert, oracles.brute_quasi_dims(group, mult, checks.ORACLE_DEGREE))
        checking += perf_counter() - t0
        if problems:
            out.failures.append((query, problems))
    out.wall = perf_counter() - start - checking
    return out


def run_command(command, traced: bool):
    """(seconds, exit code, stdout, child trace snapshot or None)."""
    if traced:
        argv = [sys.executable, CHILD, *command.argv, "--json"]
    else:
        argv = [sys.executable, "-m", "quasinv.cli", *command.argv, "--json"]
    start = perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, preexec_fn=_limit_cpu)
    elapsed = perf_counter() - start
    snapshot = None
    if traced and TRACE_MARK in proc.stderr:
        snapshot = json.loads(proc.stderr.rsplit(TRACE_MARK, 1)[1])
    return elapsed, proc.returncode, proc.stdout, snapshot


def cli_pass(commands, gauge: Gauge, tracer=None) -> Pass:
    out = Pass()
    start = perf_counter()
    checking = 0.0
    for command in commands:
        gauge.sample()
        elapsed, code, stdout, snapshot = run_command(command, tracer is not None)
        end = perf_counter()
        out.answered.append(command)
        out.times.append(elapsed)
        out.windows.append((end - elapsed, end))
        out.stdout_bytes += len(stdout.encode())
        if tracer is not None:
            if snapshot is None:
                out.failures.append((command, ["child wrote no trace"]))
                continue
            tracer.merge(snapshot)
            tracer.top_ns += int(elapsed * 1e9)  # the process is the top-level span
            if command.argv[:2] == ("elliptic", "elldim"):
                # every q-series product of this command runs inside elldim
                tracer.counts["elldim.zq_mul_ns"] += snapshot["incl"].get("series.zq_mul", 0)
                tracer.counts["elldim.ns"] += snapshot["incl"].get(
                    "elliptic.ell_graded_dimension", 0)
        t0 = perf_counter()
        problems = checks.cli(command, code, stdout)
        checking += perf_counter() - t0
        if problems:
            out.failures.append((command, problems))
    out.wall = perf_counter() - start - checking
    return out


def probe_readme_forms() -> int:
    """Run the README's `--window` forms as documented; count refusals."""
    refused = 0
    for command in workloads.README_PROBES:
        _, code, stdout, _ = run_command(command, traced=False)
        problems = checks.cli(command, code, stdout)
        if problems:
            refused += 1
            print(f"perfbench: README form refused: quasinv {' '.join(command.argv)}: "
                  f"{'; '.join(problems)}", file=sys.stderr)
    return refused


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli-session" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(workload: str, queries) -> tuple:
    gauge = Gauge()
    setup = measure_setup(workload, gauge)
    if workload == "cli-session":
        result = cli_pass(queries, gauge)
        probe_readme_forms()
    else:
        result = freeness_pass(queries, gauge)
    report_speed(gauge, {"total_s": sum(result.times),
                         "query_max_s": max(result.times or [0.0])})
    times = result.reference_times(gauge) or [0.0]
    metrics = {
        "total_s": sum(times),
        "query_p50_s": statistics.median(times),
        "query_max_s": max(times),
        "setup_s": setup,
        "peak_rss_mb": peak_rss_mb(workload),
    }
    return result, metrics


def report_speed(gauge: Gauge, measured: dict) -> None:
    print(f"perfbench: speed factor {gauge.factor():.4f} from {len(gauge.samples)} "
          f"samples; measured {json.dumps(measured)}", file=sys.stderr)


def per_layer(workload: str, queries, seed: int) -> tuple:
    tracer, gauge = Tracer(), Gauge()
    if workload == "cli-session":
        result = cli_pass(queries, gauge, tracer)
    else:
        result = freeness_pass(queries, gauge, tracer)
    overhead = tracing_overhead(workload, result, gauge)
    with gauge.ticking():
        cyc_query, rat_query = workloads.harvest_queries(seed)
        cyc, rat = fieldbench.harvest(cyc_query, rat_query, random.Random(seed))
        fields = fieldbench.field_metrics(cyc, rat)

    def s(name):
        return tracer.incl[name] / 1e9

    calls, counts = tracer.calls, tracer.counts
    cli_run = s("cli.run")
    metrics = dict(fields)
    metrics.update({
        "fields.cyc_ops": counts["fields.cyc_ops"],
        "poly.substitute.s": s("poly.substitute"),
        "poly.substitute.calls": calls["poly.substitute"],
        "groups.parse_group.s": s("groups.parse_group"),
        "groups.apply.s": s("groups.apply"),
        "groups.monomial_blocks.s": s("groups.monomial_blocks"),
        "quasi.freeness_certificate.s": s("quasi.freeness_certificate"),
        "quasi.quasi_basis.s": s("quasi.quasi_basis"),
        "quasi.quasi_basis.calls": calls["quasi.quasi_basis"],
        "quasi.rowbuild.self_s": tracer.self_ns["quasi.quasi_basis"] / 1e9,
        "quasi.module_certificate.s": s("quasi.module_certificate"),
        "linalg.nullspace.s": s("linalg.nullspace"),
        "linalg.nullspace.calls": calls["linalg.nullspace"],
        "linalg.nullspace.cells": counts["linalg.nullspace.cells"],
        "linalg.span_add.s": s("linalg.span_add"),
        "linalg.span_add.calls": calls["linalg.span_add"],
        "linalg.span_add.useful_ratio": (counts["linalg.span_add.useful"]
                                         / calls["linalg.span_add"]
                                         if calls["linalg.span_add"] else 0.0),
        "linalg.solve_exact.s": s("linalg.solve_exact"),
        "linalg.solve_exact.calls": calls["linalg.solve_exact"],
        "tower.fiber_product_basis.s": s("tower.fiber_product_basis"),
        "tower.ganea_step.s": s("tower.ganea_step"),
        "series.zq_mul.s": s("series.zq_mul"),
        "series.zq_mul.calls": calls["series.zq_mul"],
        "series.zq_mul.term_pairs": counts["series.zq_mul.term_pairs"],
        "laurent.exact_div.s": s("laurent.exact_div"),
        "elliptic.ell_graded_dimension.s": s("elliptic.ell_graded_dimension"),
        "elliptic.section_basis.s": s("elliptic.section_basis"),
        "elliptic.zq_mul_share": (counts["elldim.zq_mul_ns"] / counts["elldim.ns"]
                                  if counts["elldim.ns"] else 0.0),
        "cli.run.s": cli_run,
        "cli.process_s": sum(result.times) - cli_run if workload == "cli-session" else 0.0,
        "cli.stdout_bytes": result.stdout_bytes,
        "cli.readme_refused": probe_readme_forms() if workload == "cli-session" else 0,
        "trace.overhead_frac": overhead,
        "trace.coverage_frac": tracer.top_ns / 1e9 / result.wall if result.wall else 0.0,
    })
    failures = selfcheck(workload, metrics, tracer.missing)
    metrics["trace.selfcheck_failures"] = len(failures)
    for line in failures:
        print(f"perfbench: trace self-check: {line}", file=sys.stderr)
    report_speed(gauge, metrics)
    factor = gauge.factor()
    metrics = {name: value * factor if name.endswith(("_s", ".s", "_us")) else value
               for name, value in metrics.items()}
    metrics["bench.speed_factor"] = factor
    return result, metrics


def tracing_overhead(workload: str, traced_pass: Pass, gauge: Gauge) -> float:
    """Traced over untraced time of the queries around the median traced
    time (one freeness query, or nine commands), run again back to back,
    untraced and then traced; their answers are not counted again."""
    order = sorted(range(len(traced_pass.times)), key=traced_pass.times.__getitem__)
    width = 9 if workload == "cli-session" else 1
    middle = order[max(0, (len(order) - width) // 2):][:width]
    subset = [traced_pass.answered[i] for i in middle]
    if not subset:
        return 0.0
    run_pass = cli_pass if workload == "cli-session" else freeness_pass
    untraced = run_pass(subset, gauge).reference_times(gauge)
    traced = run_pass(subset, gauge, Tracer()).reference_times(gauge)
    return sum(traced) / sum(untraced) - 1.0 if untraced and traced else 0.0


def selfcheck(workload: str, metrics: dict, missing) -> list:
    out = [f"{target} not found in the program" for target in missing]
    out += [f"{name} is 0 on {workload}" for name in EXPECT_NONZERO[workload]
            if not metrics[name]]
    out += [f"{name} is {metrics[name]} on {workload}, expected 0"
            for name in EXPECT_ZERO.get(workload, ()) if metrics[name]]
    if metrics["trace.coverage_frac"] < MIN_COVERAGE:
        out.append(f"top-level spans cover {metrics['trace.coverage_frac']:.3f} "
                   f"of the wall time, below {MIN_COVERAGE}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    needed = [os.path.join(SRC, "quasinv", "__init__.py"), os.path.join(TESTS, "oracles.py")]
    absent = [path for path in needed if not os.path.isfile(path)]
    if absent:
        print(f"perfbench: not a quasinv checkout, missing {', '.join(absent)}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, TESTS]
    queries = workloads.queries(args.workload, args.seed, args.seconds)
    if args.trace:
        result, values = per_layer(args.workload, queries, args.seed)
        units = PER_LAYER
    else:
        result, values = end_to_end(args.workload, queries)
        units = END_TO_END
    for query, problems in result.failures:
        print(f"perfbench: FAILED {query}: {'; '.join(problems)}", file=sys.stderr)
    line = {
        "correct": not result.failures,
        "attempted": len(queries),
        "failed": len(result.failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
