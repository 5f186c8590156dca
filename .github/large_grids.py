"""Run every topology of perfbench/propagate.py on a 2^20-sample grid.

No shipped scenario reaches the 2^17-sample threshold at which transforms
move to the one-worker thread pool, so this checks that path: every large
transform runs there, and all of them share one worker thread.  Run it from
anywhere with timelens importable, under a timeout so that a hang fails::

    timeout 300 python .github/large_grids.py
"""

import sys
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import propagate  # noqa: E402
import timelens.envelope  # noqa: E402

for topology in propagate.TOPOLOGIES:
    print(topology, propagate.propagate(topology, 20.0))
assert timelens.envelope._helpers, "no transform ran on the helper"
helpers = [t for t in threading.enumerate() if t.name.startswith("timelens-fft")]
assert len(helpers) == 1, helpers
