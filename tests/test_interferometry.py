"""Recombination, skewness metric, and the two-setting visibility experiment."""

from __future__ import annotations

import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from timelens import (
    DegenerateInputError,
    SampledEnvelope,
    TimeGrid,
    WindowOverflowError,
    gaussian_pulse,
    parse_scenario,
    recombine,
    run_simulate,
    shifted,
    time_bin_pulse,
    visibility_experiment,
)
from timelens.interferometry import METRICS, _window_energy, analyzer_port, asymmetry
from timelens.runner import _compute

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture
def two_bin(small_grid):
    return time_bin_pulse(small_grid, bin_fwhm=5.0, separation=15.0)


class TestRecombine:
    def test_zero_delay_zero_phase_is_identity(self, small_grid):
        env = gaussian_pulse(small_grid, fwhm=5.0)
        out = recombine(env, delay=0.0, phase=0.0)
        assert np.max(np.abs(out.samples - env.samples)) < 1e-12

    def test_zero_delay_pi_phase_cancels(self, small_grid):
        env = gaussian_pulse(small_grid, fwhm=5.0)
        out = recombine(env, delay=0.0, phase=np.pi)
        assert np.max(np.abs(out.samples)) < 1e-12

    def test_two_bin_input_gives_three_peaks(self, two_bin):
        from scipy.signal import find_peaks

        out = recombine(two_bin, delay=15.0, phase=0.0)
        peaks, _ = find_peaks(out.intensity, height=0.01 * out.intensity.max())
        assert len(peaks) == 3

    def test_linear_in_the_input(self, small_grid):
        a = gaussian_pulse(small_grid, fwhm=5.0)
        b = time_bin_pulse(small_grid, bin_fwhm=4.0, separation=10.0)
        alpha, beta = 1.3 - 0.2j, 0.4 + 0.9j
        combo = SampledEnvelope(a.grid, alpha * a.samples + beta * b.samples)
        lhs = recombine(combo, delay=8.0, phase=0.5)
        rhs_samples = (
            alpha * recombine(a, delay=8.0, phase=0.5).samples
            + beta * recombine(b, delay=8.0, phase=0.5).samples
        )
        assert np.max(np.abs(lhs.samples - rhs_samples)) < 1e-12


class TestAsymmetry:
    def test_even_profile_has_zero_skewness(self, small_grid):
        env = gaussian_pulse(small_grid, fwhm=5.0)
        assert abs(asymmetry(env)) < 1e-9

    def test_two_bin_profile_is_symmetric_for_any_phase(self, small_grid):
        env = time_bin_pulse(
            small_grid, bin_fwhm=5.0, separation=15.0, relative_phase=2.1
        )
        assert abs(asymmetry(env)) < 1e-9

    def test_sign_follows_the_heavier_tail(self, small_grid):
        t = small_grid.times
        late_heavy = np.exp(-((t - 2.0) ** 2) / 8.0) + 0.5 * np.exp(
            -((t - 10.0) ** 2) / 8.0
        )
        env = SampledEnvelope(small_grid, late_heavy.astype(complex))
        assert asymmetry(env) > 0.01
        flipped = SampledEnvelope(small_grid, late_heavy[::-1].astype(complex))
        assert asymmetry(flipped) < -0.01

    def test_skewness_magnitude_against_moment_oracle(self, small_grid):
        # two unequal Gaussian lobes: moments computed independently
        t = small_grid.times
        amp = np.exp(-(t**2) / 4.0) + 0.6 * np.exp(-((t - 12.0) ** 2) / 4.0)
        env = SampledEnvelope(small_grid, amp.astype(complex))
        intensity = np.abs(amp) ** 2
        w = intensity / intensity.sum()
        mu = np.sum(w * t)
        var = np.sum(w * (t - mu) ** 2)
        skew = np.sum(w * (t - mu) ** 3) / var**1.5
        assert asymmetry(env) == pytest.approx(skew, rel=1e-12)

    def test_zero_energy_rejected(self, small_grid):
        zero = SampledEnvelope(small_grid, np.zeros(small_grid.n_samples))
        with pytest.raises(DegenerateInputError):
            asymmetry(zero)


class TestVisibilityExperiment:
    def test_perfect_two_bin_state_has_near_unit_visibility(self, two_bin):
        result = visibility_experiment(two_bin, bin_separation=15.0)
        assert result.visibility > 0.999
        assert result.constructive_energy > result.destructive_energy

    def test_ports_share_one_delayed_copy(self, two_bin):
        result = visibility_experiment(two_bin, 15.0, relative_phase=0.3)
        assert np.array_equal(result.delayed.samples, shifted(two_bin, 15.0).samples)
        energies = ((result.constructive_energy, 0.3), (result.destructive_energy, 0.3 + np.pi))
        for got, phase in energies:
            port = recombine(two_bin, 15.0, phase)
            assert got == _full_port_window_energy(port, result.window, "energy")

    def test_visibility_bounded(self, two_bin):
        result = visibility_experiment(two_bin, bin_separation=15.0)
        assert 0.0 <= result.visibility <= 1.0

    def test_quadratic_phase_washes_out_visibility(self, two_bin):
        # fast curvature across the pattern decorrelates the overlapped bins
        t = two_bin.times
        blurred = SampledEnvelope(two_bin.grid, two_bin.samples * np.exp(0.5j * t**2))
        result = visibility_experiment(blurred, bin_separation=15.0)
        assert result.visibility < 0.05

    def test_invariant_under_global_phase_and_scale(self, two_bin):
        base = visibility_experiment(two_bin, bin_separation=15.0).visibility
        scaled = SampledEnvelope(two_bin.grid, two_bin.samples * (0.31 * np.exp(1.1j)))
        again = visibility_experiment(scaled, bin_separation=15.0).visibility
        assert again == pytest.approx(base, abs=1e-12)

    def test_swapping_analyzer_settings_leaves_visibility(self, small_grid):
        env = time_bin_pulse(
            small_grid, bin_fwhm=5.0, separation=15.0, relative_phase=0.9
        )
        matched = visibility_experiment(env, 15.0, relative_phase=0.9)
        swapped = visibility_experiment(env, 15.0, relative_phase=0.9 + np.pi)
        assert swapped.visibility == pytest.approx(matched.visibility, abs=1e-12)
        # the two settings exchange constructive/destructive roles
        assert matched.constructive_energy == pytest.approx(
            swapped.destructive_energy, rel=1e-9
        )

    def test_analyzer_phase_must_match_preparation(self, small_grid):
        env = time_bin_pulse(
            small_grid, bin_fwhm=5.0, separation=15.0, relative_phase=1.2
        )
        matched = visibility_experiment(env, 15.0, relative_phase=1.2)
        quadrature = visibility_experiment(env, 15.0, relative_phase=1.2 + np.pi / 2)
        assert matched.visibility > 0.999
        assert quadrature.visibility < 0.05

    def test_window_starts_at_the_image_centroid(self, small_grid):
        # unequal bins, so the centroid is not midway between them
        t = small_grid.times
        amp = np.exp(-2.0 * np.log(2) * ((t + 7.5) / 5.0) ** 2) + 0.6 * np.exp(
            -2.0 * np.log(2) * ((t - 7.5) / 5.0) ** 2
        )
        image = SampledEnvelope(small_grid, amp.astype(complex))
        intensity = amp**2
        centroid = float(np.sum(intensity * t) / np.sum(intensity))
        assert centroid < -1.0
        lo, hi = visibility_experiment(image, bin_separation=15.0).window
        assert lo == pytest.approx(centroid, abs=1e-12)
        assert hi == pytest.approx(centroid + 15.0, abs=1e-12)

    def test_peak_metric_variant(self, two_bin):
        result = visibility_experiment(two_bin, bin_separation=15.0, metric="peak")
        assert result.metric == "peak"
        assert result.visibility > 0.999

    def test_lone_pulse_has_no_visibility(self, small_grid):
        # a delay of 8 FWHM leaves the pulse and its delayed copy apart
        env = gaussian_pulse(small_grid, fwhm=5.0)
        assert visibility_experiment(env, bin_separation=40.0).visibility < 1e-6

    def test_zero_image_rejected(self, small_grid):
        zero = SampledEnvelope(small_grid, np.zeros(small_grid.n_samples, complex))
        with pytest.raises(DegenerateInputError):
            visibility_experiment(zero, bin_separation=15.0)

    @pytest.mark.parametrize("metric", ["energy", "peak"])
    def test_delay_below_the_sample_step_gives_a_result(self, two_bin, metric):
        # the central window holds at most one sample
        delay = 0.3 * two_bin.grid.dt
        result = visibility_experiment(two_bin, bin_separation=delay, metric=metric)
        assert 0.0 <= result.visibility <= 1.0
        assert result.constructive_energy > 0.0

    def test_nonpositive_separation_rejected(self, two_bin):
        with pytest.raises(ValueError):
            visibility_experiment(two_bin, bin_separation=0.0)

    def test_unknown_metric_rejected(self, two_bin):
        # the 390 ps delay would overflow the window: the metric is checked
        # before the image is shifted
        with pytest.raises(ValueError, match="metric"):
            visibility_experiment(two_bin, bin_separation=390.0, metric="median")

    def test_analyzer_delay_overflow_names_the_delay(self, two_bin):
        # the 400 ps window cannot hold the bins delayed by 390 ps
        with pytest.raises(WindowOverflowError, match=r"^analyzer delay 390\.0 ps: "):
            visibility_experiment(two_bin, bin_separation=390.0)

    def test_peak_memory_is_bounded_by_the_image(self):
        # The delayed copy is the one full-size output, formed in place; the
        # centroid reads the image a block at a time, and each port is formed
        # only on the window's samples, so under two images' worth is held
        # at once (whole ports held over three).  One untraced run first, so
        # numpy's FFT plan is not charged.
        grid = TimeGrid(2**16, 400.0 / 2**16)
        image = time_bin_pulse(grid, bin_fwhm=5.0, separation=15.0)
        visibility_experiment(image, 15.0)
        tracemalloc.start()
        try:
            visibility_experiment(image, 15.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * image.samples.nbytes


def _full_port_window_energy(port, window, metric):
    """The window integral taken from a whole analyzer port: the
    reference that the windowed port must match bit for bit."""
    grid = port.grid
    x0, x1 = np.clip(grid._index(np.asarray(window)), 0, grid.n_samples - 1)
    k0, k1 = math.floor(x0), math.ceil(x1)
    nodes = np.concatenate(([x0], np.arange(k0 + 1, k1), [x1]))
    intensity = np.abs(port.samples[k0 : k1 + 1]) ** 2
    values = np.interp(nodes, np.arange(k0, k1 + 1), intensity)
    if metric == "peak":
        return float(values.max())
    return float(np.trapezoid(values, nodes) * grid.dt)


class TestWindowedPortsMatchWholePorts:
    # visibility_experiment forms each port on the window's samples only; its
    # energies must be the whole port's, bit for bit
    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("name", ["visibility_single_lens", "visibility_field_lens",
                                      "visibility_telescope"])
    def test_energies_equal_the_whole_port_integrals(self, name, metric):
        text = (SCENARIO_DIR / f"{name}.scn").read_text(encoding="utf-8")
        scenario = parse_scenario(text)
        scenario = replace(scenario, analysis=replace(scenario.analysis, metric=metric))
        run = _compute(scenario)
        result = run.interference
        phase = run.report["interference"]["image_frame_phase_rad"]
        assert result.metric == metric
        for got, port_phase in ((result.constructive_energy, phase),
                                (result.destructive_energy, phase + np.pi)):
            port = analyzer_port(run.image, result.delayed, port_phase)
            want = _full_port_window_energy(port, result.window, metric)
            assert np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64)


def _interpolant_integral(grid, intensity, lo, hi):
    """Integral over [lo, hi] of the piecewise-linear interpolant of
    ``intensity`` on the grid's times, cell by cell: each cell's overlap with
    the window times the interpolant at the overlap's midpoint."""
    t = grid.times
    total = 0.0
    for k in range(grid.n_samples - 1):
        a, b = max(lo, t[k]), min(hi, t[k + 1])
        if a < b:
            slope = (intensity[k + 1] - intensity[k]) / (t[k + 1] - t[k])
            total += (intensity[k] + slope * (0.5 * (a + b) - t[k])) * (b - a)
    return total


class TestWindowEnergy:
    # the analyzer port of ``env`` and an undelayed copy at phase 0 is
    # 0.5*(a + a) = a exactly, so these integrate |a|^2 itself
    @pytest.fixture
    def env(self):
        grid = TimeGrid(n_samples=256, dt=0.4)
        rng = np.random.default_rng(7)
        return SampledEnvelope(grid, rng.normal(size=256) + 1j * rng.normal(size=256))

    @staticmethod
    def _windows(t):
        # ends on samples, between samples, inside one cell, on one cell's
        # ends, and at the grid's first and last sample
        return [(t[10], t[50]), (t[10] + 0.1, t[50] - 0.13), (t[20] + 0.1, t[20] + 0.2),
                (t[20], t[21]), (t[0], t[-1]), (t[0], t[3] + 0.05), (t[-4] - 0.05, t[-1])]

    def test_energy_is_the_exact_interpolant_integral(self, env):
        grid, intensity = env.grid, env.intensity
        for lo, hi in self._windows(grid.times):
            expected = _interpolant_integral(grid, intensity, lo, hi)
            got = _window_energy(env, env, 0.0, (lo, hi), "energy")
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_peak_is_the_interpolant_maximum(self, env):
        grid, intensity = env.grid, env.intensity
        t = grid.times
        for lo, hi in self._windows(t):
            inside = intensity[(t > lo) & (t < hi)]
            ends = np.interp([lo, hi], t, intensity)
            expected = max(inside.max(initial=0.0), ends.max())
            assert _window_energy(env, env, 0.0, (lo, hi), "peak") == pytest.approx(
                expected, rel=1e-12
            )

    @pytest.mark.parametrize("metric", ["energy", "peak"])
    def test_window_without_a_sample(self, metric):
        # the window (0.01, 0.02) ps lies inside the cell [0, 0.1] ps
        grid = TimeGrid(n_samples=64, dt=0.1)
        env = gaussian_pulse(grid, fwhm=1.0)
        ends = np.interp([0.01, 0.02], grid.times, env.intensity)
        expected = {"energy": 0.5 * (ends[0] + ends[1]) * 0.01, "peak": ends.max()}
        got = _window_energy(env, env, 0.0, (0.01, 0.02), metric)
        assert got == pytest.approx(expected[metric], rel=1e-12)


def _simulate(name: str, overrides: dict[str, float] | None = None) -> dict:
    """``report.json`` of a shipped scenario run with the ``section.key``
    ``overrides``."""
    text = (SCENARIO_DIR / f"{name}.scn").read_text(encoding="utf-8")
    return run_simulate(parse_scenario(text, overrides=overrides))[0]


class TestVisibilityConvergence:
    # The window and its integrals are continuous in the grid step, so a
    # finer grid over the same window moves the visibility by O(dt^2).
    @pytest.mark.parametrize(
        "name",
        ["fringe_scan", "visibility_field_lens", "visibility_telescope",
         "visibility_single_lens"],
    )
    def test_shipped_visibility_holds_under_half_the_step(self, name):
        coarse = _simulate(name)
        grid = coarse["grid"]
        fine = _simulate(
            name, {"grid.n_samples": 2 * grid["n_samples"], "grid.window": grid["window_ps"]}
        )
        move = fine["interference"]["visibility"] - coarse["interference"]["visibility"]
        assert abs(move) < 1e-7

    @pytest.mark.parametrize(
        "magnification, bin_fwhm, bin_separation, pump_seed_fwhm, largest_gdd",
        [(-5.623, 8.277, 12.567, 4.281, 1490.624),
         (-4.134, 5.553, 11.014, 3.624, 536.041)],
    )
    def test_structured_single_lens_image_holds_on_finer_and_wider_grids(
        self, magnification, bin_fwhm, bin_separation, pump_seed_fwhm, largest_gdd
    ):
        # fuzz draws whose structured single-lens images sit on coarse grids
        case = {
            "system.magnification": magnification, "input.bin_fwhm": bin_fwhm,
            "input.bin_separation": bin_separation,
            "system.pump_seed_fwhm": pump_seed_fwhm,
            "system.largest_gdd": largest_gdd,
        }
        name = "visibility_single_lens"
        base = _simulate(name, {**case, "grid.n_samples": 2048})
        window = base["grid"]["window_ps"]
        reports = [base] + [
            _simulate(name, {**case, "grid.n_samples": n, "grid.window": w})
            for n, w in [(4096, window), (8192, window), (8192, 2 * window)]
        ]
        values = [report["interference"]["visibility"] for report in reports]
        assert max(values) - min(values) < 1e-3
