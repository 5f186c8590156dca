"""Run the timelens CLI with the benchmark's tracer installed.

    python3 perfbench/launch.py SPANS_JSON simulate|design|sweep ARGS...

Installs ``tracer.Tracer``, calls ``timelens.cli.main(ARGS)``, writes the
spans and counters to SPANS_JSON and exits with the CLI's exit code.
"""

import sys

import timelens.cli
from tracer import Tracer

if __name__ == "__main__":
    tracer = Tracer()
    tracer.install()
    code = timelens.cli.main(sys.argv[2:])
    tracer.dump(sys.argv[1])
    sys.exit(code)
