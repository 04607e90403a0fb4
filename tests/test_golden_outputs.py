"""Byte-for-byte regression of the documented outputs.

The files in tests/golden/ hold
- the `--json` stdout and exit code of every `quasinv ...` line of
  README.md, run in-process through `cli.run` (`replay --suite all
  --json` is one of them);
- the stdout of each script in demos/;
- the `quasinv group --json` stdout of each spec in GROUP_SPECS, the
  element matrices in their order included.

After a deliberate output change, and only then, regenerate them with

    PYTHONPATH=src python tests/test_golden_outputs.py
"""

import glob
import io
import json
import os
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from quasinv.cli import run

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(HERE, "golden")
README_GOLDEN = os.path.join(GOLDEN, "readme_commands.json")
GROUP_GOLDEN = os.path.join(GOLDEN, "group_specs.json")
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))
# the odd-lcm fields (Z/3, Z/5, A1 x Z/3) index their roots through -zeta_n
GROUP_SPECS = ("A1", "A1^3", "A1^6", "Z/3", "Z/5", "Z/64", "A1 x Z/3", "Z/3 x Z/4",
               "Z/4 x Z/4 x Z/4", "I2(3)", "I2(8)", "I2(32)")


def readme_argvs():
    with open(os.path.join(ROOT, "README.md")) as fh:
        argvs = [shlex.split(line)[1:] for line in fh if line.startswith("quasinv ")]
    return [argv if "--json" in argv else argv + ["--json"] for argv in argvs]


def group_argvs():
    return [["group", "--spec", spec, "--json"] for spec in GROUP_SPECS]


def run_json(argv):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = run(list(argv))
    return {"argv": list(argv), "exit_code": code, "stdout": out.getvalue()}


def demo_stdout(path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run([sys.executable, path], cwd=ROOT, env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout


def _demo_golden(path):
    return os.path.join(GOLDEN, "demos", os.path.basename(path)[:-3] + ".txt")


def test_readme_commands_match_golden():
    with open(README_GOLDEN) as fh:
        golden = json.load(fh)
    assert [record["argv"] for record in golden] == readme_argvs()
    assert ["replay", "--suite", "all", "--json"] in readme_argvs()
    for record in golden:
        assert run_json(record["argv"]) == record, record["argv"]


def test_group_commands_match_golden():
    with open(GROUP_GOLDEN) as fh:
        golden = json.load(fh)
    assert [record["argv"] for record in golden] == group_argvs()
    for record in golden:
        assert run_json(record["argv"]) == record, record["argv"]


@pytest.mark.parametrize("demo", DEMOS, ids=os.path.basename)
def test_demo_stdout_matches_golden(demo):
    with open(_demo_golden(demo)) as fh:
        assert demo_stdout(demo) == fh.read()


if __name__ == "__main__":
    with open(README_GOLDEN, "w") as fh:
        json.dump([run_json(argv) for argv in readme_argvs()], fh, indent=1)
        fh.write("\n")
    with open(GROUP_GOLDEN, "w") as fh:
        json.dump([run_json(argv) for argv in group_argvs()], fh, indent=1)
        fh.write("\n")
    os.makedirs(os.path.join(GOLDEN, "demos"), exist_ok=True)
    for demo in DEMOS:
        with open(_demo_golden(demo), "w") as fh:
            fh.write(demo_stdout(demo))
