"""Child process that times homsim's set-up for the benchmark's setup_s.

Usage: python3 bench/setup_probe.py '<CLI argv as a JSON list>'

Imports homsim, wraps every layer boundary with a hook and runs the CLI
command in-process. The first layer call prints the CLOCK_MONOTONIC time
(``time.monotonic``, shared by all processes of the machine) and ends the
process at once, so the parent can subtract its own launch time: set-up
is interpreter start, ``import homsim`` and argument/config parsing, up
to the first layer call.
"""

import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import tracing  # noqa: E402


def main() -> int:
    argv = json.loads(sys.argv[1])

    from homsim import cli

    def make_hook(_name, _fn):
        def first_layer_call(*_args, **_kwargs):
            sys.stdout.write(f"{time.monotonic()!r}\n")
            sys.stdout.flush()
            os._exit(0)

        return first_layer_call

    tracing.patch(tracing.layer_targets(), make_hook)
    cli.main(argv)
    print("the command made no layer call", file=sys.stderr)
    return 3


if __name__ == "__main__":
    sys.exit(main())
