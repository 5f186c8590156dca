"""Run every topology of perfbench/propagate.py on a 2^20-sample grid.

No shipped scenario reaches the 2^17-sample threshold at which transforms
move to the one-worker thread pool, so this checks that path: every large
transform runs there, and all of them share one worker thread.  It also
checks, with tracemalloc, that each op (pulse, propagation, fidelity and
visibility) peaks below MAX_WAVEFORMS waveform sizes: a run holds its input,
the stage it reads and the stage it writes, and the analyzer ports are formed
only on the central window.  Run it from anywhere with timelens importable,
under a timeout so that a hang fails::

    timeout 300 python .github/large_grids.py
"""

import sys
import threading
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import propagate  # noqa: E402
import timelens.envelope  # noqa: E402

#: Traced peak of one op, in complex128 waveforms of N_SAMPLES; 3.5 measured.
MAX_WAVEFORMS = 4.0

waveform = propagate.N_SAMPLES * 16
for topology in propagate.TOPOLOGIES:
    tracemalloc.start()
    try:
        figures = propagate.propagate(topology, 20.0)
        peak = tracemalloc.get_traced_memory()[1] / waveform
    finally:
        tracemalloc.stop()
    print(topology, figures, f"peak {peak:.2f} waveforms")
    assert peak < MAX_WAVEFORMS, (topology, peak)
assert timelens.envelope._helpers, "no transform ran on the helper"
helpers = [t for t in threading.enumerate() if t.name.startswith("timelens-fft")]
assert len(helpers) == 1, helpers
