"""Exact time-scale twins of the shipped simulations.

Scaling every time of a scenario by s (widths, separations, centers and
seed FWHMs by s, GDDs by s**2, the TOD ratio by s) at the same sample
count scales the planned window, dt and every dispersion with it, and
leaves every phase and amplitude unchanged.  For a power of two s each
product is exact, so every waveform keeps its bits and every report value
is its unscaled value times s**p, p its power of ps; s = 3 agrees to
rounding.
"""

from __future__ import annotations

from pathlib import Path

import pytest
from test_fuzz import _load_tool

from timelens import parse_scenario, run_simulate

ROOT = Path(__file__).resolve().parent.parent
SIMULATIONS = (
    "fringe_scan",
    "ideal_magnifier",
    "visibility_field_lens",
    "visibility_single_lens",
    "visibility_telescope",
)

fuzz = _load_tool()


def _twins(name: str, tod_ratio: float, scales):
    """The simulate result of ``name`` with ``tod_ratio``, and its twin at
    each of ``scales``."""
    text = (ROOT / "scenarios" / f"{name}.scn").read_text(encoding="utf-8")
    overrides = {"system.tod_ratio": tod_ratio}
    run = run_simulate(parse_scenario(text, overrides))
    for s in scales:
        scaled = fuzz.time_scaled(text, overrides, s)
        yield s, run, run_simulate(parse_scenario(text, scaled))


@pytest.mark.parametrize("tod_ratio", [0.0, 0.3])
@pytest.mark.parametrize("name", SIMULATIONS)
def test_power_of_two_scales_are_exact(name, tod_ratio):
    for s, run, twin in _twins(name, tod_ratio, (0.5, 2.0, 4.0)):
        assert fuzz.scale_mismatches(run, twin, s) == [], s


@pytest.mark.parametrize("tod_ratio", [0.0, 0.3])
@pytest.mark.parametrize("name", SIMULATIONS)
def test_scale_three_agrees_to_rounding(name, tod_ratio):
    ((s, run, twin),) = _twins(name, tod_ratio, (3.0,))
    assert fuzz.scale_mismatches(run, twin, s, rel=1e-11, small=1e-15) == []


def test_a_value_off_its_scaling_is_a_mismatch():
    ((s, run, twin),) = _twins("ideal_magnifier", 0.0, (2.0,))
    twin[0]["image"]["fwhm_ps"] *= 1.0 + 2.0**-52
    twin[0]["grid"]["window_ps"] = run[0]["grid"]["window_ps"]
    assert fuzz.scale_mismatches(run, twin, s) == ["grid/window_ps", "image/fwhm_ps"]
    name = "stage_01_input_gdd.npy"
    twin[1][name] = -twin[1][name]
    assert fuzz.scale_mismatches(run, twin, s)[-1] == name
