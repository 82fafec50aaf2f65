"""Run one ``gravent`` command with the layer tracer installed.

Usage (with src/ on PYTHONPATH):

    python perfbench/traced_cli.py <gravent arguments...>

The command's stdout and exit code are the program's own.  After the
command ends, one line ``PERFBENCH-TRACE <json>`` on stderr carries the
span summary and the duration of the process's first product_integral
call, which holds SciPy's first-call set-up.
"""

from __future__ import annotations

import json
import sys

import gravent.cli

import layers
from spans import Tracer


def main() -> int:
    tracer = Tracer()
    layers.install(tracer)
    try:
        rc = gravent.cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    summary["product_integral_first_s"] = tracer.first_duration("wigner.product_integral")
    sys.stdout.flush()
    print("PERFBENCH-TRACE " + json.dumps(summary), file=sys.stderr)
    return rc


if __name__ == "__main__":
    sys.exit(main())
