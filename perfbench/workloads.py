"""Seeded query generators for the three workloads.

The program never sees the seed, only the queries generated from it.

Freeness queries come from a fixed pool of (group, multiplicity) pairs,
split into strata of pairs that took about the same time at the commit that
introduced this benchmark (the cost column below, in seconds on a 2-vCPU
x86-64 sandbox, two runs each).  A run takes a fixed number of pairs from
each stratum, in table order, round after round, until the summed costs
reach the requested seconds; the seed decides which pairs of each stratum
are taken and the order of the final list.  Every seed therefore does about
the same work, which keeps run-to-run spread low, while different seeds
still ask different questions.  No pair is drawn twice in one run.

The cli-session workload runs every README command (its two `--window`
forms are probed separately, see `README_PROBES`) and then seeded extra
`tower`, `elliptic elldim` and `elliptic theta` commands, drawn the same way.
"""

from __future__ import annotations

import random
from typing import NamedTuple

WORKLOADS = ("dihedral-freeness", "rational-freeness", "cli-session")


class FreenessQuery(NamedTuple):
    spec: str
    mult: tuple  # one entry per hyperplane orbit, in orbit-id order
    max_degree: int


class CliCommand(NamedTuple):
    argv: tuple
    exit_code: int  # expected
    check: str  # name of the output check in checks.CLI_CHECKS


# sum of the invariant degrees, for the criterion-2 degree bound
INVARIANT_DEGREE_SUMS = {
    "I2(3)": 5, "I2(4)": 6, "I2(5)": 7, "I2(6)": 8, "A1 x A1": 4, "A1^3": 6,
}


def multiplicity(group, mult):
    """The quasinv Multiplicity for per-orbit values in orbit-id order."""
    from quasinv.groups import Multiplicity

    orbits = sorted({h.orbit_id for h in group.hyperplanes})
    return Multiplicity(group, dict(zip(orbits, mult)))


def degree_bound(spec: str, mult) -> int:
    """D = 4 * sum(invariant degrees) + 4 * max m, as in acceptance criterion 2."""
    return 4 * INVARIANT_DEGREE_SUMS[spec] + 4 * max(mult)


# (cost per pick in seconds, picks per round, members); members are (spec, mult).
# The picks of the 2.1 s dihedral stratum and of the 2.6 s rational stratum
# sit in the middle of every list, so `query_p50_s` compares like with like
# across seeds.  The last stratum holds the hardest certificates, one of
# which is in every run (`query_max_s`); the two 4.5 s rational picks keep
# that maximum from hanging on a single draw.
DIHEDRAL_STRATA = (
    (0.2, 1, (("I2(3)", (0,)), ("I2(4)", (0, 0)), ("I2(5)", (0,)), ("I2(6)", (0, 0)))),
    (1.2, 2, (("I2(3)", (1,)), ("I2(3)", (2,)), ("I2(4)", (0, 1)), ("I2(4)", (1, 0)))),
    (2.1, 2, (("I2(4)", (0, 2)), ("I2(4)", (2, 0)), ("I2(4)", (1, 1)))),
    (3.6, 1, (("I2(6)", (0, 1)), ("I2(6)", (1, 0)), ("I2(4)", (2, 2)), ("I2(4)", (2, 1)),
              ("I2(4)", (1, 2)), ("I2(5)", (1,)))),
    (6.0, 1, (("I2(6)", (2, 0)), ("I2(6)", (0, 2)), ("I2(5)", (2,)), ("I2(6)", (1, 1)))),
    (9.5, 1, (("I2(6)", (1, 2)), ("I2(6)", (2, 1)), ("I2(6)", (2, 2)))),
)

RATIONAL_STRATA = (
    (1.3, 1, (("A1^3", (0, 0, 0)),)),
    (0.07, 3, tuple(("A1 x A1", (a, b)) for a in range(3) for b in range(3))),
    (2.6, 4, (("A1^3", (0, 0, 1)), ("A1^3", (0, 1, 0)), ("A1^3", (0, 1, 1)),
              ("A1^3", (1, 0, 0)), ("A1^3", (1, 0, 1)), ("A1^3", (1, 1, 0)),
              ("A1^3", (1, 1, 1)))),
    (4.5, 2, tuple(("A1^3", m) for m in
                   ((0, 0, 2), (0, 1, 2), (0, 2, 0), (0, 2, 1), (0, 2, 2), (1, 0, 2),
                    (1, 2, 0), (1, 2, 1), (1, 2, 2), (2, 0, 0), (2, 0, 1), (2, 0, 2),
                    (2, 1, 0), (2, 1, 1), (2, 1, 2), (2, 2, 0), (2, 2, 1), (2, 2, 2)))),
    (5.0, 1, (("A1^3", (1, 1, 2)),)),
)

# Every command of the README's command-line section, in README order, with
# its expected exit code (the ktheory element is a non-member by design).
README_COMMANDS = (
    CliCommand(("group", "--spec", "I2(3)"), 0, "group_i2_3"),
    CliCommand(("basis", "--group", "A1 x A1", "--mult", "0:1,1:2", "--max-deg", "12"),
               0, "basis_a1xa1"),
    CliCommand(("hilbert", "--group", "A1", "--mult", "2", "--max-deg", "12"), 0, "hilbert_a1"),
    CliCommand(("freeness", "--group", "I2(4)", "--mult", "0:2,1:1"), 0, "freeness_i2_4"),
    CliCommand(("filtration", "--group", "A1", "--mult", "1", "--mult-high", "2",
                "--max-deg", "8"), 0, "filtration_a1"),
    CliCommand(("tower", "--steps", "5", "--max-deg", "16"), 0, "tower"),
    CliCommand(("x1", "--group", "A1 x A1"), 0, "x1_a1xa1"),
    CliCommand(("fake-cohomology", "--nb", "3", "--mult", "2", "--max-deg", "20"),
               0, "fake_cohomology"),
    CliCommand(("demazure", "--group", "A1", "--mult", "1", "--apply", "x^5"), 0, "demazure"),
    CliCommand(("exp", "member", "--mult", "1", "--elem", "z - 2 + z^-1"), 0, "exp_member"),
    CliCommand(("chern", "--mult", "1", "--order", "10", "--elem", "z - 2 + z^-1"), 0, "chern"),
    CliCommand(("fake", "nb", "--assign", "3:2,5:3"), 0, "fake_nb"),
    CliCommand(("fake", "ktheory", "--series", "0,0,3,1", "--mult", "1", "--order", "12",
                "--elem", "0,0,3"), 2, "fake_ktheory"),
    CliCommand(("fake", "distinguish", "--nb", "3", "--mult", "2", "--prime", "5"),
               0, "fake_distinguish"),
    CliCommand(("elliptic", "sections", "--n", "2", "--qorder", "12"), 0, "sections"),
    CliCommand(("elliptic", "elldim", "--mult", "1", "--n", "3"), 0, "elldim"),
    CliCommand(("elliptic", "sheafdims", "--mult", "2"), 0, "sheafdims"),
    CliCommand(("replay", "--suite", "all"), 0, "replay"),
)

# The README writes these two as `--window -3:3` and `--window -8:8`, which
# argparse refuses today.  They run exactly as documented, outside the timed
# list, and each refusal is reported as `cli.readme_refused`.
README_PROBES = (
    CliCommand(("exp", "basis", "--mult", "2", "--window", "-3:3"), 0, "exp_basis"),
    CliCommand(("elliptic", "theta", "--form", "sum", "--qorder", "12", "--window", "-8:8"),
               0, "theta"),
)
README_COST = 5.0  # seconds for README_COMMANDS, measured like the strata

# (cost per pick, picks per round, members) for the seeded extra commands;
# these may repeat within a run, as a CLI user's commands do
CLI_EXTRA_STRATA = (
    (0.15, 1, tuple(("elliptic", "theta", "--qorder", str(q)) for q in range(12, 21))),
    (0.3, 1, tuple(("elliptic", "elldim", "--mult", str(m), "--n", str(n), "--qorder", str(q))
                   for m in range(0, 4) for n in range(1, 6) for q in range(12, 21))),
    (0.2, 1, tuple(("tower", "--steps", str(s), "--max-deg", str(d))
                   for s in range(3, 11) for d in (12, 16, 20, 24, 28, 32))),
)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def _draw(strata, rng, seconds, spent=0.0, repeat=False):
    """Each stratum's picks, in table order, round after round, until the
    pick costs reach `seconds`.  Without `repeat` no member is drawn twice,
    and a stratum is skipped once it is used up."""
    remaining = [list(members) for _, _, members in strata]
    picks = []
    while any(remaining):
        for (cost, count, _), pool in zip(strata, remaining):
            for _ in range(min(count, len(pool))):
                if spent >= seconds and picks:
                    return picks
                index = rng.randrange(len(pool))
                picks.append(pool[index] if repeat else pool.pop(index))
                spent += cost
    raise ValueError(f"--seconds {seconds} needs more queries than the pool holds")


def freeness_queries(workload: str, seed: int, seconds: float):
    strata = DIHEDRAL_STRATA if workload == "dihedral-freeness" else RATIONAL_STRATA
    rng = _rng(workload, seed)
    picks = _draw(strata, rng, seconds)
    rng.shuffle(picks)
    return [FreenessQuery(spec, mult, degree_bound(spec, mult)) for spec, mult in picks]


def cli_commands(seed: int, seconds: float):
    rng = _rng("cli-session", seed)
    extras = _draw(CLI_EXTRA_STRATA, rng, seconds, spent=README_COST, repeat=True)
    rng.shuffle(extras)
    return list(README_COMMANDS) + [CliCommand(argv, 0, argv[0] if argv[0] == "tower"
                                               else argv[1]) for argv in extras]


def harvest_queries(seed: int):
    """Small real queries whose matrices and span vectors feed the field
    microbenchmarks: a dihedral one (cyclotomic rows) and a rational one."""
    rng = _rng("harvest", seed)
    spec, mult = rng.choice(DIHEDRAL_STRATA[1][2])
    cyclotomic = (spec, mult, degree_bound(spec, mult))
    spec, mult = rng.choice([m for m in RATIONAL_STRATA[1][2] if any(m[1])])
    rational = (spec, mult, degree_bound(spec, mult))
    return cyclotomic, rational


def queries(workload: str, seed: int, seconds: float):
    if workload == "cli-session":
        return cli_commands(seed, seconds)
    return freeness_queries(workload, seed, seconds)
