"""Benchmark for timelens: closed-loop workloads, one client, one op at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Workloads (BENCHMARK.json says why each exists):

* ``cli_scenarios``: one ``python -m timelens simulate|design`` subprocess
  per op, cycling through the seven shipped scenarios;
* ``fringe_sweep``: one ``python -m timelens sweep fringe_scan.scn`` subprocess
  per op, 25 analyzer phases over [phi0, phi0 + 2 pi], phi0 drawn from the
  seed;
* ``propagate_large``: the in-process library chain of ``propagate.py`` at
  2**20 samples, cycling single-lens, field-lens and telescope systems with
  |M| drawn from the seed for each op.

Ops run in whole cycles, so each kind of op is equally frequent in every
run; the timed phase starts cycles until ``--seconds`` have passed.  Every
op is checked; a non-zero exit, a raised ``TimeLensError`` or a failed check
counts as a failed op.  Artifact digests are kept in
``.perfbench_work/digests.json``, keyed by a fingerprint of the sources, so
re-runs of the same code on the same inputs must be byte-identical, within a
run and across runs.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it holds the
per-layer metrics: the timed phase runs once untraced and once with
``tracer.Tracer`` installed, and the difference of their median op times is
reported as ``trace.overhead_s``.  ``--workload all`` runs every workload
both ways and prints every metric with its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from tracer import TARGETS, Tracer, layer_totals

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCENARIOS = ROOT / "scenarios"
WORK = ROOT / ".perfbench_work"
SPEC = ROOT / "BENCHMARK.json"

WORKLOADS = ("cli_scenarios", "fringe_sweep", "propagate_large")
SETUP_SAMPLES = 3
OP_TIMEOUT_S = 150
SWEEP_POINTS = 25
MAGNIFICATION_RANGE = (10.0, 30.0)
CLI_CYCLE = (
    ("simulate", "ideal_magnifier"),
    ("simulate", "visibility_field_lens"),
    ("simulate", "visibility_single_lens"),
    ("simulate", "visibility_telescope"),
    ("simulate", "fringe_scan"),
    ("design", "design_far_field"),
    ("design", "design_field_lens"),
)
DESIGN_FIELD_LENS_PS2 = {"D1": 5.25, "Df": 5.0, "D2": 105.0, "Dr": 100.0}
IMPORT_LAYERS = ("numpy", "scipy", "timelens")


class CheckFailed(Exception):
    """An op's output broke one of the benchmark's correctness checks."""


@dataclass
class Op:
    label: str
    wall_s: float
    rss_mb: float
    error: str | None = None


# ---------------------------------------------------------------------------
# correctness checks
# ---------------------------------------------------------------------------


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def check_visibility(topology: str, visibility: float) -> None:
    if topology == "single-lens":
        require(visibility < 0.05, f"single-lens visibility {visibility:.4f} >= 0.05")
    else:
        require(visibility >= 0.97, f"{topology} visibility {visibility:.4f} < 0.97")


def check_cli_output(name: str, out: Path) -> None:
    report = json.loads((out / "report.json").read_text())
    if name == "ideal_magnifier":
        image = report["image"]
        require(image["fidelity_to_ideal"] >= 0.999,
                f"fidelity_to_ideal {image['fidelity_to_ideal']} < 0.999")
        require(image["phase_rms_rad"] < 0.01,
                f"phase_rms_rad {image['phase_rms_rad']} >= 0.01")
    elif name == "design_field_lens":
        entries = {e["element"]: e for e in report["entries"]}
        for element, bound in DESIGN_FIELD_LENS_PS2.items():
            entry = entries[element]
            require(entry["bound_kind"] == ">="
                    and math.isclose(entry["dispersion_bound_ps2"], bound, rel_tol=1e-9),
                    f"{element} {entry['bound_kind']} {entry['dispersion_bound_ps2']}, "
                    f"expected >= {bound}")
    elif report["subcommand"] == "simulate":
        check_visibility(report["topology"], report["interference"]["visibility"])


def check_sweep_output(out: Path) -> None:
    lines = (out / "sweep.csv").read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]
    require(len(rows) == SWEEP_POINTS, f"{len(rows)} sweep rows, expected {SWEEP_POINTS}")
    energies = [row["central_energy"] for row in rows]
    contrast = (max(energies) - min(energies)) / (max(energies) + min(energies))
    for row in rows:
        require(abs(contrast - row["visibility"]) <= 0.01 * row["visibility"],
                f"fringe contrast {contrast:.5f} vs visibility {row['visibility']:.5f}")


def check_propagation(topology: str, figures: dict) -> None:
    check_visibility(topology, figures["visibility"])
    if topology != "single-lens":
        require(figures["fidelity"] >= 0.99, f"{topology} fidelity {figures['fidelity']:.5f} < 0.99")


def digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def source_fingerprint() -> str:
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *SCENARIOS.glob("*.scn")]):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    for package in ("numpy", "scipy"):
        h.update(importlib.metadata.version(package).encode())
    h.update(sys.version.encode())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# running ops
# ---------------------------------------------------------------------------


class Bench:
    """Paths, environment and state shared by the ops of one run."""

    def __init__(self, tmp: Path, seed: int):
        self.tmp = tmp
        self.rng = random.Random(seed)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )
        self.fingerprint = source_fingerprint()
        self.digest_path = WORK / "digests.json"
        try:
            self.digests = json.loads(self.digest_path.read_text())
        except (OSError, ValueError):
            self.digests = {}
        self.traced = False
        self.tracer = None  # installed in process by propagate_large when traced
        self.chunks: list[tuple[list, dict]] = []  # (spans, counters) of traced ops
        self.ops = 0
        for name in {n for _, n in CLI_CYCLE}:
            shutil.copyfile(SCENARIOS / f"{name}.scn", tmp / f"{name}.scn")

    def same_bytes(self, key: str, out: Path) -> None:
        """Artifacts must match the first op on the same inputs."""
        found = digest(out)
        first = self.digests.setdefault(f"{self.fingerprint}:{key}", found)
        require(first == found, f"{key}: artifacts differ from an earlier op on the same inputs")

    def save_digests(self) -> None:
        current = {k: v for k, v in self.digests.items() if k.startswith(self.fingerprint)}
        self.digest_path.write_text(json.dumps(current, indent=1, sort_keys=True))

    def spawn(self, argv: list[str], err_path: Path) -> tuple[float, float, int]:
        """(wall s, child peak RSS MB, exit code) of one subprocess."""
        with open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            signal.signal(signal.SIGALRM, lambda *_: proc.kill())
            signal.alarm(OP_TIMEOUT_S)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                signal.alarm(0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024.0, proc.returncode

    def cli_op(self, args: list[str], label: str, key: str, check) -> Op:
        """One CLI subprocess writing into a fresh output dir, then its checks."""
        self.ops += 1
        out = self.tmp / f"op{self.ops}"
        err = self.tmp / "stderr.txt"
        spans = self.tmp / "spans.json"
        argv = [*args, "--out", str(out)]
        if self.traced:
            argv = [sys.executable, str(HERE / "launch.py"), str(spans), *argv]
        else:
            argv = [sys.executable, "-m", "timelens", *argv]
        wall, rss, code = self.spawn(argv, err)
        op = Op(label, wall, rss)
        try:
            require(code == 0, f"exit {code}: {err.read_text().strip()[-300:]}")
            check(out)
            self.same_bytes(key, out)
        except CheckFailed as exc:
            op.error = str(exc)
        if self.traced and code == 0:
            data = json.loads(spans.read_text())
            self.chunks.append((data["spans"], data["counters"]))
        shutil.rmtree(out, ignore_errors=True)
        return op

    def setup_samples(self, argv: list[str]) -> list[float]:
        """Wall times of SETUP_SAMPLES fresh ``python ARGV`` processes."""
        samples = []
        for _ in range(SETUP_SAMPLES):
            wall, _, code = self.spawn([sys.executable, *argv], self.tmp / "stderr.txt")
            if code != 0:
                raise SystemExit(f"set-up failed: {(self.tmp / 'stderr.txt').read_text()}")
            samples.append(wall)
        return samples


def run_cycles(cycle, seconds: float) -> tuple[list[Op], float]:
    """Run whole cycles of ops until ``seconds`` have passed."""
    ops: list[Op] = []
    start = time.perf_counter()
    while True:
        ops.extend(op() for op in cycle)
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return ops, elapsed


# ---------------------------------------------------------------------------
# workloads: each returns (set-up samples, cycle of zero-argument ops)
# ---------------------------------------------------------------------------


def cli_scenarios(bench: Bench):
    start = bench.rng.randrange(len(CLI_CYCLE))
    order = CLI_CYCLE[start:] + CLI_CYCLE[:start]

    def make(command: str, name: str):
        args = [command, str(bench.tmp / f"{name}.scn")]
        return lambda: bench.cli_op(args, f"{command} {name}", f"{command}:{name}",
                                    lambda out: check_cli_output(name, out))

    return bench.setup_samples(["-c", "import timelens"]), [make(c, n) for c, n in order]


def fringe_sweep(bench: Bench):
    phi0 = bench.rng.uniform(0.0, 2.0 * math.pi)
    args = ["sweep", str(bench.tmp / "fringe_scan.scn"),
            "--param", "analysis.analyzer_phase",
            "--range", f"{phi0!r}:{phi0 + 2.0 * math.pi!r}:{SWEEP_POINTS}"]

    def op() -> Op:
        return bench.cli_op(args, f"sweep from {phi0:.4f} rad", f"sweep:{phi0!r}",
                            check_sweep_output)

    return bench.setup_samples(["-c", "import timelens"]), [op]


def propagate_large(bench: Bench):
    setup = bench.setup_samples([str(HERE / "propagate.py")])
    sys.path.insert(0, str(SRC))
    import propagate
    import timelens

    if not Path(timelens.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"timelens imported from {timelens.__file__}, not {SRC}")
    propagate.warm_up()

    def make(topology: str):
        def op() -> Op:
            magnitude = bench.rng.uniform(*MAGNIFICATION_RANGE)
            bench.ops += 1
            if bench.tracer is not None:
                bench.tracer.begin_op(bench.ops)
            label = f"{topology} |M|={magnitude:.3f}"
            start = time.perf_counter()
            try:
                figures = propagate.propagate(topology, magnitude)
            except timelens.TimeLensError as exc:
                return Op(label, time.perf_counter() - start, 0.0, repr(exc))
            op = Op(label, time.perf_counter() - start,
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
            try:
                check_propagation(topology, figures)
            except CheckFailed as exc:
                op.error = str(exc)
            return op
        return op

    return setup, [make(t) for t in propagate.TOPOLOGIES]


WORKLOAD_FUNCS = {f.__name__: f for f in (cli_scenarios, fringe_sweep, propagate_large)}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def import_times(bench: Bench) -> dict[str, float]:
    """Self import time per package, median of SETUP_SAMPLES ``-X importtime`` runs."""
    samples = defaultdict(list)
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import timelens"],
                              cwd=ROOT, env=bench.env, capture_output=True, text=True,
                              timeout=OP_TIMEOUT_S, check=True)
        totals = dict.fromkeys(IMPORT_LAYERS, 0.0)
        for line in proc.stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) != 3 or not fields[0].strip().isdigit():
                continue
            package = fields[2].strip().split(".")[0]
            if package in totals:
                totals[package] += int(fields[0]) * 1e-6
        for package, seconds in totals.items():
            samples[package].append(seconds)
    return {f"import.{p}_s": statistics.median(v) for p, v in samples.items()}


def layer_values(chunks: list[tuple[list, dict]], n_ops: int) -> dict[str, float]:
    """Per-op self times, call counts and counters of the traced ops."""
    self_s = dict.fromkeys((name for _, _, name in TARGETS), 0.0)
    calls = dict.fromkeys(self_s, 0)
    counters: dict[str, float] = defaultdict(float)
    for spans, chunk_counters in chunks:
        chunk_self, chunk_calls = layer_totals(spans)
        for name in chunk_self:
            self_s[name] += chunk_self[name]
            calls[name] += chunk_calls[name]
        for name, value in chunk_counters.items():
            counters[name] += value
    values = {f"{name}_s": t / n_ops for name, t in self_s.items()}
    values.update({f"{name}_calls": c / n_ops for name, c in calls.items()})
    for name in ("fft_calls", "fft_points", "fft_ops_computed"):
        values[f"envelope.{name}"] = counters[name] / n_ops
    values["runner.render_bytes"] = counters["render_bytes"] / n_ops
    values["runner.write_bytes"] = counters["write_bytes"] / n_ops
    values["runner.render_useful_ratio"] = (
        counters["write_bytes"] / counters["render_bytes"] if counters["render_bytes"] else 0.0
    )
    values["elements.synthesize_pump_distinct"] = counters["pump_distinct"] / n_ops
    return values


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = json.loads(SPEC.read_text())
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=WORK))
    try:
        bench = Bench(tmp, seed)
        setup, cycle = WORKLOAD_FUNCS[name](bench)
        ops, elapsed = run_cycles(cycle, seconds)
        all_ops = list(ops)
        if trace:
            bench.traced = True
            if name == "propagate_large":
                bench.tracer = Tracer()
                bench.tracer.install()
            traced_ops, _ = run_cycles(cycle, seconds)
            if bench.tracer is not None:
                bench.tracer.uninstall()
                bench.chunks.append((bench.tracer.spans, bench.tracer.counters))
            all_ops += traced_ops
            (WORK / f"spans-{name}.json").write_text(json.dumps(bench.chunks))
        bench.save_digests()
        failed = sum(op.error is not None for op in all_ops)
        print(f"workload {name}, seed {seed}, trace {int(trace)}: {len(all_ops)} ops")
        for op in all_ops:
            status = "PASS" if op.error is None else f"FAIL {op.error}"
            print(f"  {op.wall_s:8.3f} s {op.rss_mb:8.1f} MB  {op.label}: {status}")
        walls = sorted(op.wall_s for op in ops)
        if trace:
            values = layer_values(bench.chunks, len(traced_ops))
            values.update(import_times(bench))
            values["trace.overhead_s"] = (
                statistics.median(op.wall_s for op in traced_ops) - statistics.median(walls)
            )
            values["fail_ratio"] = failed / len(all_ops)
            wanted = spec["per_layer"]
        else:
            values = {
                "setup_s": statistics.median(setup),
                "op_s_p50": statistics.median(walls),
                "ops_per_s": len(ops) / elapsed,
                "peak_rss_mb": max(op.rss_mb for op in ops),
            }
            print(f"  {len(walls)} timed ops in {elapsed:.3f} s; slowest {walls[-1]:.3f} s; "
                  f"set-up samples {', '.join(f'{s:.3f}' for s in setup)} s")
            wanted = spec["end_to_end"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
        for metric, entry in metrics.items():
            print(f"  {metric} = {entry['value']:.6g} {entry['unit']}")
        print(f"  checks: {'PASS' if failed == 0 else 'FAIL'} ({len(all_ops) - failed} of "
              f"{len(all_ops)} ops correct)")
        return {"correct": failed == 0, "attempted": len(all_ops), "failed": failed,
                "metrics": metrics}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def machine() -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = (index / "level").read_text().strip()
        kind = (index / "type").read_text().strip()
        if kind != "Instruction":
            caches[f"L{level}"] = (index / "size").read_text().strip()
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "cpu0_caches": caches,
        "complex128_array_bytes": {f"2^{k}": 16 * 2**k for k in (14, 15, 17, 20)},
    }


def run_all(seed: int, seconds: int) -> int:
    """Every workload, untraced and traced, each in a fresh process."""
    print(json.dumps({"machine": machine()}))
    results = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, check=True)
            print(proc.stdout.rstrip("\n").rsplit("\n", 1)[0])
            results[f"{name}/trace{trace}"] = json.loads(proc.stdout.splitlines()[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "timelens" / "__init__.py").is_file() or not SCENARIOS.is_dir():
        print(f"error: no timelens sources under {ROOT}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
