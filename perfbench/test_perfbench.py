"""Tests of the benchmark itself; run with ``python3 -m pytest perfbench``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import propagate  # noqa: E402
import run  # noqa: E402
import timelens  # noqa: E402
from tracer import Tracer, layer_totals  # noqa: E402


def fft_calls_in_run_system(topology: str) -> int:
    """FFTs made by one traced run_system at the benchmark's system settings."""
    system, pulse, _, _ = propagate.setup_system(topology, 20.0, propagate.WARMUP_N_SAMPLES)
    tracer = Tracer()
    tracer.install()
    try:
        timelens.run_system(pulse, system)
    finally:
        tracer.uninstall()
    return tracer.counters["fft_calls"]


@pytest.mark.parametrize("topology", propagate.TOPOLOGIES)
def test_fft_calls_per_run_system_repeat(topology):
    first = fft_calls_in_run_system(topology)
    print(f"{topology}: {first:g} FFTs per run_system")
    assert first > 0
    assert fft_calls_in_run_system(topology) == first


def test_fft_counter_matches_transform_spans():
    tracer = Tracer()
    tracer.install()
    try:
        propagate.propagate("telescope", 20.0, propagate.WARMUP_N_SAMPLES)
    finally:
        tracer.uninstall()
    transforms = [s for s in tracer.spans if s[0] in ("envelope.to_frequency", "envelope.to_time")]
    assert tracer.counters["fft_calls"] == len(transforms)
    assert tracer.counters["fft_points"] == len(transforms) * propagate.WARMUP_N_SAMPLES


def test_install_patches_every_importer_and_uninstall_restores():
    original = timelens.imaging.run_system
    tracer = Tracer()
    tracer.install()
    try:
        assert timelens.imaging.run_system is not original
        assert timelens.runner.run_system is timelens.imaging.run_system
        assert timelens.run_system is timelens.imaging.run_system
        assert timelens.elements.boundary_leakage is timelens.envelope.boundary_leakage
    finally:
        tracer.uninstall()
    assert timelens.imaging.run_system is original
    assert timelens.runner.run_system is original


def test_layer_totals_subtracts_child_spans():
    spans = [
        ["outer", 0.0, 10.0, -1, 1],
        ["inner", 1.0, 4.0, 0, 1],
        ["inner", 5.0, 6.0, 0, 1],
        ["leaf", 2.0, 3.0, 1, 1],
    ]
    self_s, calls = layer_totals(spans)
    assert self_s == {"outer": 6.0, "inner": 3.0, "leaf": 1.0}
    assert calls == {"outer": 1, "inner": 2, "leaf": 1}


def test_every_metric_in_benchmark_json_is_produced():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    produced = set(run.layer_values([], 1))
    produced |= {f"import.{p}_s" for p in run.IMPORT_LAYERS}
    produced |= {"trace.overhead_s", "fail_ratio"}
    assert {m["name"] for m in spec["per_layer"]} <= produced
    record = json.loads((HERE / "record.json").read_text())
    assert set(record["per_layer"]) == {m["name"] for m in spec["per_layer"]}
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "op_s_p50", "ops_per_s", "peak_rss_mb"
    }
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fringe_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
