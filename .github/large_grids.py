"""Run every topology of perfbench/propagate.py on a 2^20-sample grid.

No shipped scenario reaches the 2^17-sample threshold from which transforms
run as an in-place four-step FFT, so this checks that path.  It checks, with
tracemalloc, that each op (pulse, propagation, fidelity and visibility)
peaks below MAX_WAVEFORMS waveform sizes: a run holds its input, the stage it
reads and the stage it writes, and the analyzer ports are formed only on the
central window.  tracemalloc does not see numpy's FFT scratch, so it also
checks that the three ops together raise the process's peak RSS, after a
warm-up on a small grid, by less than MAX_RSS_WAVEFORMS: a single 1-D numpy
FFT of a waveform would take two more.  Last, it checks that the blocked
reductions the ops do not reach, the skewness and the intensity overlap,
stay below MAX_WAVEFORMS on one 2^20 image too.  Run it from anywhere with
timelens importable, under a timeout so that a hang fails::

    timeout 300 python .github/large_grids.py
"""

import resource
import sys
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import propagate  # noqa: E402
import timelens as tl  # noqa: E402
from timelens.interferometry import asymmetry  # noqa: E402

#: Traced peak of one op, in complex128 waveforms of N_SAMPLES; 3.1-3.3 measured.
MAX_WAVEFORMS = 4.0

#: Rise of the peak RSS over the three ops, in waveforms; 2.4-2.5 measured,
#: 5.5 when each transform was a single numpy call.
MAX_RSS_WAVEFORMS = 3.5

waveform = propagate.N_SAMPLES * 16
propagate.warm_up()
start = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
for topology in propagate.TOPOLOGIES:
    tracemalloc.start()
    try:
        figures = propagate.propagate(topology, 20.0)
        peak = tracemalloc.get_traced_memory()[1] / waveform
    finally:
        tracemalloc.stop()
    print(topology, figures, f"peak {peak:.2f} waveforms")
    assert peak < MAX_WAVEFORMS, (topology, peak)
rise = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 - start) / waveform
print(f"peak RSS rise {rise:.2f} waveforms")
assert rise < MAX_RSS_WAVEFORMS, rise

system, pulse, m, _ = propagate.setup_system("field-lens", 20.0, propagate.N_SAMPLES)
image = tl.run_system(pulse, system).final
ideal = tl.magnified_copy(pulse, m)
for name, reduce in (
    ("asymmetry", lambda: asymmetry(image)),
    ("intensity_overlap", lambda: tl.intensity_overlap(image, ideal)),
):
    tracemalloc.start()
    try:
        value = reduce()
        peak = tracemalloc.get_traced_memory()[1] / waveform
    finally:
        tracemalloc.stop()
    print(name, value, f"peak {peak:.2f} waveforms")
    assert peak < MAX_WAVEFORMS, (name, peak)
