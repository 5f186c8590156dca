"""In-memory span tracer that times timelens layers from outside the package.

``Tracer.install()`` replaces selected public functions of ``timelens`` with
wrappers.  A wrapper is set on every ``timelens`` module that holds the
function, so ``timelens.runner.run_system`` is traced as well as
``timelens.imaging.run_system``.  FFTs are counted by wrapping
``numpy.fft.fft``/``ifft``, which ``timelens.envelope`` looks up at call time.

Each wrapped call records a span ``[name, start, end, parent, op]``.  Spans
stay in memory; ``dump`` writes them out once the traced process is done.
``layer_totals`` turns spans into per-layer self times: a span's duration
minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import defaultdict

import numpy.fft

# (module, function, span name).  Several metric functions share one span.
TARGETS = (
    ("timelens.scenario", "parse_scenario", "scenario.parse_scenario"),
    ("timelens.runner", "run_simulate", "runner.run_simulate"),
    ("timelens.runner", "run_design", "runner.run_design"),
    ("timelens.runner", "run_sweep", "runner.run_sweep"),
    ("timelens.runner", "waveform_csv", "runner.waveform_csv"),
    ("timelens.runner", "write_artifacts", "runner.write_artifacts"),
    ("timelens.imaging", "plan_grid", "imaging.plan_grid"),
    ("timelens.imaging", "verify_topology", "imaging.verify_topology"),
    ("timelens.imaging", "run_system", "imaging.run_system"),
    ("timelens.elements", "apply_dispersion", "elements.apply_dispersion"),
    ("timelens.elements", "apply_time_lens", "elements.apply_time_lens"),
    ("timelens.elements", "synthesize_pump", "elements.synthesize_pump"),
    ("timelens.envelope", "to_frequency", "envelope.to_frequency"),
    ("timelens.envelope", "to_time", "envelope.to_time"),
    ("timelens.envelope", "shifted", "envelope.shifted"),
    ("timelens.envelope", "magnified_copy", "envelope.magnified_copy"),
    ("timelens.envelope", "fwhm", "envelope.metrics"),
    ("timelens.envelope", "energy", "envelope.metrics"),
    ("timelens.envelope", "overlap", "envelope.metrics"),
    ("timelens.envelope", "intensity_overlap", "envelope.metrics"),
    ("timelens.envelope", "phase_fit_quadratic", "envelope.metrics"),
    ("timelens.envelope", "phase_rms", "envelope.metrics"),
    ("timelens.envelope", "boundary_leakage", "envelope.metrics"),
    ("timelens.interferometry", "visibility_experiment",
     "interferometry.visibility_experiment"),
    ("timelens.interferometry", "recombine", "interferometry.recombine"),
    ("timelens.design", "requirements", "design.requirements"),
)

RENDERERS = ("runner.run_simulate", "runner.run_design", "runner.run_sweep")


def _artifact_bytes(files: dict[str, str]) -> int:
    # Artifacts are ASCII (repr floats, json.dumps with ensure_ascii).
    return sum(len(text) for text in files.values())


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.op = 0
        self._stack: list[int] = []
        self._pump_keys: set = set()
        self._patches: list[tuple[object, str, object]] = []

    def begin_op(self, op: int) -> None:
        """Tag later spans with ``op``; pump reuse is counted per op."""
        self.op = op
        self._pump_keys = set()

    def _after(self, name: str, args: tuple, result) -> None:
        if name in RENDERERS:
            self.counters["render_bytes"] += _artifact_bytes(result[1])
        elif name == "runner.write_artifacts":
            self.counters["write_bytes"] += _artifact_bytes(args[1])
        elif name == "elements.synthesize_pump":
            key = tuple(args[:3])
            if key not in self._pump_keys:
                self._pump_keys.add(key)
                self.counters["pump_distinct"] += 1

    def _wrap(self, name: str, func):
        spans, stack = self.spans, self._stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            self._after(name, args, result)
            return result

        return wrapper

    def _wrap_fft(self, func):
        counters = self.counters

        @functools.wraps(func)
        def wrapper(a, *args, **kwargs):
            n = a.shape[-1]
            counters["fft_calls"] += 1
            counters["fft_points"] += n
            counters["fft_ops_computed"] += 5.0 * n * math.log2(n)
            return func(a, *args, **kwargs)

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target wherever a ``timelens`` module imported it."""
        import timelens.cli  # noqa: F401  (loads every module that imports a target)

        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "timelens"]
        for module_name, func_name, span_name in TARGETS:
            original = getattr(sys.modules[module_name], func_name)
            wrapper = self._wrap(span_name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)
        for func_name in ("fft", "ifft"):
            self._patch(numpy.fft, func_name, self._wrap_fft(getattr(numpy.fft, func_name)))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"spans": self.spans, "counters": self.counters}, f)


def layer_totals(spans: list[list]) -> tuple[dict[str, float], dict[str, int]]:
    """(self seconds, call count) summed per span name."""
    child_time = defaultdict(float)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for index, (name, start, end, _, _) in enumerate(spans):
        self_s[name] += end - start - child_time[index]
        calls[name] += 1
    return self_s, calls
