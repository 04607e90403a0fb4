"""Traced stand-in for `python -m quasinv.cli`.

Installs the layer wrappers, runs `quasinv.cli.run` on the given arguments
inside a `cli.run` span, and appends the span totals to stderr after a
marker line, so stdout stays the command's own `--json` document.
"""

import json
import sys

from tracer import Tracer

TRACE_MARK = "@@perfbench-trace@@"


def main() -> int:
    from quasinv import cli

    tracer = Tracer()
    with tracer.installed():
        code = tracer.wrap("cli.run", cli.run)(sys.argv[1:])
    sys.stdout.flush()
    sys.stderr.write(f"\n{TRACE_MARK}{json.dumps(tracer.snapshot())}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
