"""Tests of the benchmark's seeded generators and of its metric tables."""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SECONDS = json.load(open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")))["run_seconds"]


def test_same_seed_gives_the_same_queries():
    for name in workloads.WORKLOADS:
        assert workloads.queries(name, 7, SECONDS) == workloads.queries(name, 7, SECONDS)


def test_different_seeds_give_different_queries():
    for name in workloads.WORKLOADS:
        lists = {tuple(workloads.queries(name, seed, SECONDS)) for seed in range(10)}
        assert len(lists) == 10, name


def test_freeness_queries_never_repeat_within_a_run():
    for name in ("dihedral-freeness", "rational-freeness"):
        for seed in range(20):
            for seconds in (1, SECONDS, 2 * SECONDS):
                qs = workloads.queries(name, seed, seconds)
                pairs = [(q.spec, q.mult) for q in qs]
                assert len(pairs) == len(set(pairs)), (name, seed, seconds)


def test_a_budget_beyond_the_pool_is_refused():
    try:
        workloads.queries("dihedral-freeness", 1, 1000)
    except ValueError:
        return
    raise AssertionError("expected ValueError")


def test_freeness_queries_follow_the_pool_definition():
    for seed in range(10):
        for q in workloads.queries("dihedral-freeness", seed, SECONDS):
            assert q.spec in ("I2(3)", "I2(4)", "I2(5)", "I2(6)")
            assert set(q.mult) <= {0, 1, 2}
            k = int(q.spec[3])
            assert len(q.mult) == (1 if k % 2 else 2)
            assert q.max_degree == 4 * (k + 2) + 4 * max(q.mult)
        for q in workloads.queries("rational-freeness", seed, SECONDS):
            assert q.spec in ("A1 x A1", "A1^3") and set(q.mult) <= {0, 1, 2}


def test_every_stratum_gives_its_picks_once_per_round():
    for name, strata in (("dihedral-freeness", workloads.DIHEDRAL_STRATA),
                         ("rational-freeness", workloads.RATIONAL_STRATA)):
        qs = workloads.queries(name, 3, SECONDS)
        assert len(qs) == sum(count for _, count, _ in strata)
        drawn = {(q.spec, q.mult) for q in qs}
        for _, count, members in strata:
            assert len(drawn & set(members)) == count


def test_cli_session_starts_with_the_readme_commands():
    commands = workloads.queries("cli-session", 5, SECONDS)
    readme = list(workloads.README_COMMANDS)
    assert commands[:len(readme)] == readme
    assert len(commands) > len(readme)
    for command in commands:
        assert command.check in checks.CLI_CHECKS


def test_benchmark_json_matches_the_metric_tables():
    spec = json.load(open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
