"""Envelope representation, transforms, pulse constructors, and metrics."""

from __future__ import annotations

import dataclasses
import math
import pickle
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import fresh_python
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

import timelens.elements as elements_module
import timelens.envelope as envelope_module
import timelens.interferometry as interferometry_module
from timelens import (
    ConversionDirection,
    DegenerateInputError,
    DispersiveElement,
    InsufficientSupportError,
    SampledEnvelope,
    SpectralEnvelope,
    TimeGrid,
    TimeLens,
    UndersampledError,
    WindowOverflowError,
    apply_dispersion,
    apply_time_lens,
    boundary_leakage,
    energy,
    fwhm,
    gaussian_pulse,
    intensity_overlap,
    magnified_copy,
    overlap,
    parse_scenario,
    phase_fit_quadratic,
    phase_rms,
    run_simulate,
    shifted,
    time_bin_pulse,
    to_frequency,
    to_time,
    visibility_experiment,
)
from timelens.envelope import AnyEnvelope
from timelens.interferometry import asymmetry

LN2 = math.log(2.0)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
SHIPPED_SIMULATIONS = sorted(
    p.stem for p in SCENARIO_DIR.glob("*.scn") if not p.stem.startswith("design_")
)


def _planned_grid(name: str) -> TimeGrid:
    """The grid a shipped simulation plans, as its report records it."""
    report, _ = run_simulate(parse_scenario((SCENARIO_DIR / f"{name}.scn").read_text()))
    return TimeGrid(report["grid"]["n_samples"], report["grid"]["dt_ps"])


class TestTimeGrid:
    def test_centered_window_and_step(self):
        grid = TimeGrid(256, 100.0 / 256)
        assert grid.n_samples == 256
        assert grid.dt == pytest.approx(100.0 / 256, rel=1e-15)
        assert grid.window == 100.0
        assert grid.t0 == pytest.approx(-50.0, rel=1e-15)
        t = grid.times
        assert len(t) == 256
        assert np.all(np.diff(t) > 0)
        assert not hasattr(TimeGrid, "centered")

    @pytest.mark.parametrize("name", SHIPPED_SIMULATIONS)
    def test_times_are_exactly_odd_on_shipped_grids(self, name):
        grid = _planned_grid(name)
        t, half = grid.times, grid.n_samples // 2
        assert t[half] == 0.0 and t[0] == grid.t0
        assert np.array_equal(t[half + 1 :], -t[half - 1 : 0 : -1])

    def test_rejects_non_power_of_two(self):
        for n in (8, 100):
            with pytest.raises(ValueError, match="power of two >= 16"):
                TimeGrid(n_samples=n, dt=0.1)
        with pytest.raises(TypeError):
            TimeGrid(n_samples=256, dt=0.1, t0=0.0)

    def test_omega_axis_spacing(self):
        grid = TimeGrid(256, 100.0 / 256)
        w = grid.omegas
        assert w[1] - w[0] == pytest.approx(2.0 * np.pi / 100.0, rel=1e-12)
        # axis is centered on zero offset from the carrier
        assert abs(w[len(w) // 2]) < 1e-12


def _bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Bitwise equality of complex arrays; signed zeros count."""
    return np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestTransformSideEffects:
    def test_transform_leaves_pickle_size_unchanged(self):
        grid = TimeGrid(2**12, 400.0 / 2**12)
        env = gaussian_pulse(grid, fwhm=5.0)
        fresh = len(pickle.dumps(env))
        to_frequency(env)
        assert len(pickle.dumps(env)) == fresh
        assert pickle.loads(pickle.dumps(grid)) == grid

    # a four-step transform (2**17 samples) evaluates its two twiddle tables
    # on the first transform of its size only
    @pytest.mark.parametrize("n_samples, first", [(2**12, 0), (2**17, 2)])
    def test_centered_transforms_evaluate_no_exponential(self, n_samples, first, monkeypatch):
        env = gaussian_pulse(TimeGrid(n_samples, 400.0 / n_samples), fwhm=5.0)
        envelope_module._twiddle_tables.cache_clear()
        calls = []
        exp = np.exp

        def counting_exp(*args, **kwargs):
            calls.append(args[0].shape)
            return exp(*args, **kwargs)

        monkeypatch.setattr(np, "exp", counting_exp)
        to_frequency(env)
        assert len(calls) == first
        calls.clear()
        to_time(to_frequency(env))
        assert calls == []

    def test_transforms_leave_input_unchanged(self, small_grid):
        rng = np.random.default_rng(3)
        n = small_grid.n_samples
        env = SampledEnvelope(small_grid, rng.normal(size=n) + 1j * rng.normal(size=n))
        before = env.samples.copy()
        spec = to_frequency(env)
        assert _bits_equal(env.samples, before)
        spec_before = spec.samples.copy()
        to_time(spec)
        assert _bits_equal(spec.samples, spec_before)


# The references below take their phase kernels from ``full_kernel``: the
# library's blocked kernel loop on a unit input, the whole axis in one array.
# TestPlainKernels checks those kernels against the plain per-sample formulas.


def _reference_to_frequency(samples: np.ndarray, grid: TimeGrid) -> np.ndarray:
    n = grid.n_samples
    spectrum = np.fft.fft(samples * (-1.0) ** np.arange(n))
    spectrum *= grid.dt / np.sqrt(2.0 * np.pi)
    spectrum *= (-1.0) ** (np.arange(n) - n // 2)
    return spectrum


def _reference_to_time(spectrum: np.ndarray, grid: TimeGrid) -> np.ndarray:
    n = grid.n_samples
    work = spectrum * (-1.0) ** (np.arange(n) - n // 2)
    samples = np.fft.ifft(work) * (-1.0) ** np.arange(n)
    samples *= n * grid.domega / np.sqrt(2.0 * np.pi)
    return samples


def _reference_filter(samples: np.ndarray, grid: TimeGrid, kernel, full_kernel) -> np.ndarray:
    spec = _reference_to_frequency(samples, grid)
    product = np.multiply(spec, full_kernel(grid, **kernel))
    return _reference_to_time(product, grid)


def _reference_dispersion(
    samples: np.ndarray, grid: TimeGrid, element: DispersiveElement, full_kernel
) -> np.ndarray:
    kernel = elements_module._dispersion_kernel(element, grid)
    return _reference_filter(samples, grid, kernel, full_kernel)


def _reference_shift(
    samples: np.ndarray, grid: TimeGrid, delay: float, full_kernel
) -> np.ndarray:
    kernel = envelope_module._ramp(grid, delay)
    return _reference_filter(samples, grid, kernel, full_kernel)


def _reference_magnified_copy(env: SampledEnvelope, magnification: float) -> np.ndarray:
    n = env.grid.n_samples
    x = n // 2 + env.times / magnification / env.grid.dt
    inside = (x >= 0.0) & (x <= n - 1)
    u, k = np.modf(x[inside])
    prefilter = np.sqrt(3.0) * (np.sqrt(3.0) - 2.0) ** np.abs(np.arange(-32, 33))
    c = np.convolve(env.samples, prefilter)
    j = k.astype(np.intp) + 32
    values = np.zeros(n, dtype=np.complex128)
    values[inside] = (
        (1.0 - u) ** 3 * c[j - 1] + (4.0 - 6.0 * u**2 + 3.0 * u**3) * c[j]
        + (1.0 + 3.0 * (u + u**2 - u**3)) * c[j + 1] + u**3 * c[j + 2]
    ) / 6.0
    return values / np.sqrt(abs(magnification))


def _reference_time_bin_pulse(
    grid: TimeGrid, bin_fwhm: float, separation: float, relative_phase: float
) -> np.ndarray:
    t = grid.times
    half = 0.5 * separation
    early = np.exp(-2.0 * LN2 * ((t + half) / bin_fwhm) ** 2)
    late = np.exp(-2.0 * LN2 * ((t - half) / bin_fwhm) ** 2)
    return 0.5 * early + 0.5 * np.exp(1j * relative_phase) * late


# Every grid is centered on t = 0 and has at least 16 samples.  The kernel
# tests below keep their cases for the grids that rule removed: an n = 2 or 4
# case checks that the grid is refused (the ``centered_grid`` fixture), and
# an off-center case runs on a waveform moved off center by a time shift
# instead of on a grid that starts off center.


def _off_center(grid: TimeGrid) -> float:
    """The delay that moves a waveform off center: 1.5 ps and 0.37 samples."""
    return 0.37 * grid.dt + 1.5


@pytest.fixture
def unguarded(monkeypatch):
    """Random samples fill the window, which the wrap checks of a time shift
    would reject: turn them off."""
    monkeypatch.setattr(envelope_module, "_support", lambda env: None)
    for module in (envelope_module, elements_module):
        monkeypatch.setattr(module, "boundary_leakage", lambda env: 0.0)


# 2**12 and 2**15 samples lie on either side of numpy's 256 KiB threshold for
# reusing temporaries in place, which can swap the operands of a complex
# product and so change its rounding; 2**13 is one block.
@pytest.mark.parametrize("n_samples", [2**12, 2**13, 2**15])
class TestTransformBitIdentity:
    """The transform path matches the plain closed-form expressions, with
    their phase kernels built by the same blocked kernel loop, bit for bit."""

    @staticmethod
    def _random(grid: TimeGrid) -> SampledEnvelope:
        rng = np.random.default_rng(grid.n_samples)
        n = grid.n_samples
        return SampledEnvelope(grid, rng.normal(size=n) + 1j * rng.normal(size=n))

    @pytest.mark.parametrize("t0", [None, -123.4])
    def test_round_trip(self, n_samples, t0, full_kernel, unguarded):
        grid = TimeGrid(n_samples, 400.0 / n_samples)
        env = self._random(grid)
        samples = env.samples
        if t0 is not None:  # the waveform delayed to start at t0, not at -200 ps
            env = shifted(env, t0 - grid.t0)
            samples = _reference_shift(samples, grid, t0 - grid.t0, full_kernel)
        spec = to_frequency(env)
        assert _bits_equal(spec.samples, _reference_to_frequency(samples, grid))
        assert _bits_equal(to_time(spec).samples, _reference_to_time(spec.samples, grid))

    @pytest.mark.parametrize(
        "element",
        [
            DispersiveElement(gdd=7.0, tod=1.5, transmission=0.8),
            DispersiveElement(gdd=-12.0),
        ],
    )
    def test_dispersion(self, n_samples, element, full_kernel):
        grid = TimeGrid(n_samples, 400.0 / n_samples)
        pulse = gaussian_pulse(grid, fwhm=5.0, center=-20.0)
        env = SampledEnvelope(grid, (0.7 + 0.2j) * pulse.samples)
        out = apply_dispersion(env, element)
        reference = _reference_dispersion(env.samples, grid, element, full_kernel)
        assert _bits_equal(out.samples, reference)

    def test_shift(self, n_samples, full_kernel):
        grid = TimeGrid(n_samples, 400.0 / n_samples)
        env = time_bin_pulse(grid, bin_fwhm=5.0, separation=15.0, relative_phase=0.4)
        out = shifted(env, 37.3)
        reference = _reference_shift(env.samples, grid, 37.3, full_kernel)
        assert _bits_equal(out.samples, reference)

    @pytest.mark.parametrize("magnification", [-20.0, 13.7, 1.0, -0.5])
    def test_magnified_copy(self, n_samples, magnification):
        env = self._random(TimeGrid(n_samples, 400.0 / n_samples))
        out = magnified_copy(env, magnification)
        assert _bits_equal(out.samples, _reference_magnified_copy(env, magnification))

    def test_time_bin_pulse(self, n_samples):
        grid = TimeGrid(n_samples, 400.0 / n_samples)
        out = time_bin_pulse(grid, bin_fwhm=5.0, separation=15.0, relative_phase=0.4)
        assert _bits_equal(out.samples, _reference_time_bin_pulse(grid, 5.0, 15.0, 0.4))


# The kernels are evaluated on w <= 0, indices 0 .. n/2, in blocks of
# grid.BLOCK and mirrored: n = 16, the smallest grid, mirrors 7 samples; at
# 2**13 the one block ends in a one-sample table span holding w = 0 alone,
# and at 2**14 the range ends in a one-sample block.
@pytest.mark.parametrize("n_samples", [2, 4, 16, 2**12, 2**13, 2**14, 2**15])
@pytest.mark.parametrize("centered", [True, False])
@pytest.mark.usefixtures("unguarded")
class TestFilterBitIdentity:
    """Every spectral stage matches the full-axis formulas, with kernels built
    by the same blocked kernel loop, bit for bit on random samples, whose
    spectra reach every kernel value, centered or moved off center by a time
    shift, and leaves its input unchanged."""

    @staticmethod
    def _random(grid: TimeGrid, centered: bool, full_kernel) -> SampledEnvelope:
        n = grid.n_samples
        rng = np.random.default_rng(n)
        samples = rng.normal(size=n) + 1j * rng.normal(size=n)
        env = SampledEnvelope(grid, samples)
        if centered:
            return env
        moved = shifted(env, _off_center(grid))
        reference = _reference_shift(samples, grid, _off_center(grid), full_kernel)
        assert _bits_equal(moved.samples, reference)
        return moved

    @pytest.mark.parametrize(
        "element",
        [
            DispersiveElement(gdd=7.0, tod=1.5, transmission=0.8),
            DispersiveElement(gdd=-12.0),
            DispersiveElement(gdd=3.0, transmission=0.6),
            DispersiveElement(gdd=0.0, tod=-2.0),
        ],
    )
    def test_dispersion(self, n_samples, centered, element, full_kernel, centered_grid):
        grid = centered_grid(400.0, n_samples)
        if grid is None:
            return
        env = self._random(grid, centered, full_kernel)
        before = env.samples.copy()
        out = apply_dispersion(env, element)
        reference = _reference_dispersion(env.samples, env.grid, element, full_kernel)
        assert _bits_equal(out.samples, reference)
        assert _bits_equal(env.samples, before)

    @pytest.mark.parametrize("delay", [37.3, -0.61])
    def test_shift(self, n_samples, centered, delay, full_kernel, centered_grid):
        grid = centered_grid(400.0, n_samples)
        if grid is None:
            return
        env = self._random(grid, centered, full_kernel)
        before = env.samples.copy()
        out = shifted(env, delay)
        reference = _reference_shift(env.samples, env.grid, delay, full_kernel)
        assert _bits_equal(out.samples, reference)
        assert _bits_equal(env.samples, before)


@pytest.mark.parametrize("n_samples", [2, 4, 16, 2**12, 2**15])
@pytest.mark.parametrize("centered", [True, False])
class TestPlainKernels:
    """The spectral kernels, per-sample phases evaluated in blocks, agree
    with the plain whole-axis formulas within those formulas' own rounding.
    Off center, each kernel is checked times the ramp of the time shift
    that moved the waveform there."""

    @staticmethod
    def _off_center_ramp(grid: TimeGrid, centered: bool, full_kernel):
        """The kernel of the shift that moves a waveform off center and its
        plain phase; 1 and 0 for a centered waveform."""
        if centered:
            return 1.0, 0.0
        delay = _off_center(grid)
        ramp = full_kernel(grid, **envelope_module._ramp(grid, delay))
        return ramp, -grid.omegas * delay

    @pytest.mark.parametrize(
        "element",
        [
            DispersiveElement(gdd=7.0, tod=1.5, transmission=0.8),
            DispersiveElement(gdd=-12.0),
            DispersiveElement(gdd=1000.0, transmission=0.6),
            DispersiveElement(gdd=0.0, tod=-2.0),
        ],
    )
    def test_dispersion(
        self, n_samples, centered, element, full_kernel, within_rounding, centered_grid
    ):
        grid = centered_grid(400.0, n_samples)
        if grid is None:
            return
        ramp, ramp_phase = self._off_center_ramp(grid, centered, full_kernel)
        w = grid.omegas
        phase = 0.5 * element.gdd * w**2 + (element.tod / 6.0) * w**3
        kernel = full_kernel(grid, **elements_module._dispersion_kernel(element, grid))
        plain = element.transmission * np.exp(1j * (phase + ramp_phase))
        within_rounding(kernel * ramp, plain, np.abs(phase) + np.abs(ramp_phase))

    @pytest.mark.parametrize("delay", [37.3, -0.61])
    def test_shift(
        self, n_samples, centered, delay, full_kernel, within_rounding, centered_grid
    ):
        grid = centered_grid(400.0, n_samples)
        if grid is None:
            return
        ramp, ramp_phase = self._off_center_ramp(grid, centered, full_kernel)
        phase = -grid.omegas * delay
        kernel = full_kernel(grid, **envelope_module._ramp(grid, delay))
        plain = np.exp(1j * (phase + ramp_phase))
        within_rounding(kernel * ramp, plain, np.abs(phase) + np.abs(ramp_phase))

    def test_recentering_ramp(
        self, n_samples, centered, full_kernel, within_rounding, centered_grid
    ):
        """The ramp exp(-i*w*t_c) that re-centers a waveform whose center sits
        at t_c: exactly 1 on a grid's own center, so no transform needs one."""
        grid = centered_grid(400.0, n_samples)
        if grid is None:
            return
        center = grid.t0 + grid.dt * (grid.n_samples // 2)
        t_c = center if centered else _off_center(grid)
        phase = -grid.omegas * t_c
        kernel = full_kernel(grid, **envelope_module._ramp(grid, t_c))
        within_rounding(kernel, np.exp(1j * phase), phase)
        if centered:
            assert t_c == 0.0 and np.all(kernel == 1.0)


class TestBlockedMagnitudes:
    """boundary_leakage reads its peak |a| block by block, and every
    waveform sum (energy, overlap, intensity_overlap and the centroid) goes
    through the blocked pairwise tree: each gives the full-array formula's
    result bit for bit.  The shift's support check, which takes |a| over
    the whole array, is checked against the same formula at block edges."""

    GRID = TimeGrid(2**15, 400.0 / 2**15)

    @staticmethod
    def _full_support(env: SampledEnvelope) -> np.ndarray:
        mags = np.abs(env.samples)
        floor = envelope_module.BOUNDARY_TOLERANCE * mags.max()
        significant = np.nonzero(mags > floor)[0]
        return env.grid.t0 + env.grid.dt * significant[[0, -1]]

    # samples on either side of each block edge, and the grid's two ends
    @pytest.mark.parametrize(
        "first, last",
        [(0, 2**15 - 1), (8191, 8192), (8192, 24575), (5, 5), (16383, 24576)],
    )
    def test_support_and_leakage(self, first, last):
        rng = np.random.default_rng(first + last)
        samples = 1e-9 * (rng.normal(size=2**15) + 1j * rng.normal(size=2**15))
        samples[first] = samples[last] = 0.3 - 0.2j
        samples[(first + last) // 2] = 1.7 + 0.4j
        env = SampledEnvelope(self.GRID, samples)
        assert _bits_equal(envelope_module._support(env), self._full_support(env))
        mags = np.abs(env.samples)
        full = float(max(mags[0], mags[-1]) / mags.max())
        assert boundary_leakage(env) == full

    # less than a block, one block, and several: numpy's pairwise sum of
    # the whole array splits at the block edges; amplitudes span e**(+-30)
    @pytest.mark.parametrize("n_samples", [16, 2**13, 2**14, 2**17])
    def test_sums_match_the_whole_array_sums(self, n_samples):
        rng = np.random.default_rng(n_samples)
        grid = TimeGrid(n_samples, 400.0 / n_samples)

        def random():
            scale = np.exp(rng.uniform(-30.0, 30.0, size=n_samples))
            return SampledEnvelope(
                grid, scale * (rng.normal(size=n_samples) + 1j * rng.normal(size=n_samples))
            )

        a, b = random(), random()
        ea, eb = (float(np.sum(np.abs(x.samples) ** 2) * grid.dt) for x in (a, b))
        assert energy(a) == ea and energy(b) == eb
        inner = np.sum(np.conjugate(a.samples) * b.samples)
        assert overlap(a, b) == complex(inner * grid.dt / np.sqrt(ea * eb))
        ia, ib = np.abs(a.samples) ** 2, np.abs(b.samples) ** 2
        whole = np.sum(ia * ib) / np.sqrt(float(np.sum(ia * ia)) * float(np.sum(ib * ib)))
        assert intensity_overlap(a, b) == float(whole)
        sums = interferometry_module._moments(a, 0.0, 0)
        assert _bits_equal(sums, np.array([np.sum(ia), np.sum(ia * grid.times)]))
        assert interferometry_module._centroid(a) == float(sums[1] / sums[0])

    # the sums are taken one block at a time; a full-size intensity or time
    # array would be half a waveform.  Measured 0.16 and 0.25: intensity_overlap
    # holds eight block-sized arrays, a quarter of a waveform at 2**17.
    @pytest.mark.parametrize(
        "reduction, bound",
        [(asymmetry, 0.25), (lambda env: intensity_overlap(env, env), 0.4)],
        ids=["asymmetry", "intensity_overlap"],
    )
    def test_reductions_form_no_full_size_array(self, reduction, bound):
        grid = TimeGrid(2**17, 400.0 / 2**17)
        pulse = time_bin_pulse(grid, bin_fwhm=5.0, separation=15.0)
        reduction(pulse)
        tracemalloc.start()
        try:
            reduction(pulse)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * pulse.samples.nbytes

    def test_all_zero(self):
        env = SampledEnvelope(self.GRID, np.zeros(2**15))
        assert envelope_module._support(env) is None
        assert boundary_leakage(env) == 0.0


class TestCompactBitIdentity:
    """Compact waveforms on a window that is mostly zeros: the constructors and
    magnified_copy skip the samples that can only be zero, bit for bit."""

    # a 1 ps bin underflows to 0.0 about 23 ps from its center, so the pulse
    # spans under 1 % of the window and magnified copies a few blocks of it
    GRID = TimeGrid(2**17, 8000.0 / 2**17)

    @pytest.mark.parametrize("relative_phase", [0.4, 2.0, -2.0, -0.4])
    def test_time_bin_pulse(self, relative_phase):
        out = time_bin_pulse(self.GRID, 1.0, 3.0, relative_phase)
        reference = _reference_time_bin_pulse(self.GRID, 1.0, 3.0, relative_phase)
        assert _bits_equal(out.samples, reference)

    def test_gaussian_pulse(self):
        out = gaussian_pulse(self.GRID, fwhm=1.0, center=-20.0)
        t = self.GRID.times
        reference = np.exp(-2.0 * LN2 * ((t + 20.0) / 1.0) ** 2).astype(np.complex128)
        assert _bits_equal(out.samples, reference)

    @pytest.mark.parametrize("magnification", [-20.0, 13.7, -0.5])
    def test_magnified_copy(self, magnification):
        env = time_bin_pulse(self.GRID, 1.0, 3.0, 0.7)
        out = magnified_copy(env, magnification)
        assert _bits_equal(out.samples, _reference_magnified_copy(env, magnification))


@pytest.mark.parametrize("n_samples", [2, 4, 16, 64])
@pytest.mark.parametrize("centered", [True, False])
@pytest.mark.usefixtures("unguarded")
class TestTransformConvention:
    """The transforms equal their defining sums, for waveforms centered and
    moved off center: samples delayed by d have the spectrum of the sum over
    the sample times plus d."""

    @staticmethod
    def _grid_and_samples(n_samples, centered_grid):
        grid = centered_grid(10.0, n_samples)
        if grid is None:
            return None, None
        rng = np.random.default_rng(n_samples)
        return grid, rng.normal(size=n_samples) + 1j * rng.normal(size=n_samples)

    def test_to_frequency_is_the_direct_sum(self, n_samples, centered, centered_grid):
        grid, samples = self._grid_and_samples(n_samples, centered_grid)
        if grid is None:
            return
        delay = 0.0 if centered else _off_center(grid)
        phases = np.exp(-1j * np.outer(grid.omegas, grid.times + delay))
        direct = grid.dt / np.sqrt(2.0 * np.pi) * (phases @ samples)
        spectrum = to_frequency(shifted(SampledEnvelope(grid, samples), delay)).samples
        assert np.max(np.abs(spectrum - direct)) <= 1e-13 * np.max(np.abs(direct))

    def test_to_time_is_the_direct_sum(self, n_samples, centered, centered_grid):
        grid, spectrum = self._grid_and_samples(n_samples, centered_grid)
        if grid is None:
            return
        delay = 0.0 if centered else _off_center(grid)
        phases = np.exp(1j * np.outer(grid.times + delay, grid.omegas))
        direct = grid.domega / np.sqrt(2.0 * np.pi) * (phases @ spectrum)
        samples = shifted(to_time(SpectralEnvelope(grid, spectrum)), -delay).samples
        assert np.max(np.abs(samples - direct)) <= 1e-13 * np.max(np.abs(direct))


class TestEnvelopeTypes:
    """Both envelope types share one base; each stays its own type."""

    @pytest.mark.parametrize("cls", [SampledEnvelope, SpectralEnvelope])
    def test_unhashable_like_their_samples(self, small_grid, cls):
        with pytest.raises(TypeError, match="unhashable"):
            hash(cls(small_grid, np.ones(small_grid.n_samples)))

    def test_types_never_compare_equal(self, small_grid):
        sampled = SampledEnvelope(small_grid, np.ones(small_grid.n_samples), 710.0)
        # the same field values, down to the samples array
        spectral = envelope_module._adopt(
            SpectralEnvelope, small_grid, sampled.samples, 710.0
        )
        assert sampled == sampled and spectral == spectral
        assert sampled != spectral and spectral != sampled
        assert isinstance(sampled, AnyEnvelope) and isinstance(spectral, AnyEnvelope)

    @pytest.mark.parametrize("cls", [SampledEnvelope, SpectralEnvelope])
    def test_pickle_round_trip(self, small_grid, cls):
        env = cls(small_grid, np.arange(small_grid.n_samples) * (1.0 - 0.5j), 710.0)
        back = pickle.loads(pickle.dumps(env))
        assert type(back) is cls
        assert back.grid == small_grid and back.carrier_wavelength_nm == 710.0
        assert _bits_equal(back.samples, env.samples)
        assert not back.samples.flags.writeable
        assert back == env and not back != env

    @pytest.mark.parametrize("cls", [SampledEnvelope, SpectralEnvelope])
    def test_equal_by_grid_carrier_and_samples(self, small_grid, cls):
        samples = np.arange(small_grid.n_samples) * (1.0 - 0.5j)
        env = cls(small_grid, samples, 710.0)
        assert env == cls(small_grid, samples.copy(), 710.0)
        assert env != cls(small_grid, samples + 1.0, 710.0)
        assert env != cls(small_grid, samples, 1310.0)
        assert env != cls(small_grid, samples, None)
        coarse = TimeGrid(small_grid.n_samples, 2.0 * small_grid.dt)
        assert env != cls(coarse, samples, 710.0)
        half = TimeGrid(small_grid.n_samples // 2, small_grid.dt)
        assert env != cls(half, samples[: half.n_samples], 710.0)

    @pytest.mark.parametrize("other", [None, 1.0, "envelope", (1, 2)])
    def test_comparing_with_other_objects_never_raises(self, small_grid, other):
        env = SampledEnvelope(small_grid, np.ones(small_grid.n_samples), 710.0)
        assert env != other and not env == other

    @pytest.mark.parametrize("cls", [SampledEnvelope, SpectralEnvelope])
    def test_replace_round_trip(self, small_grid, cls):
        env = cls(small_grid, np.ones(small_grid.n_samples), 710.0)
        moved = dataclasses.replace(env, carrier_wavelength_nm=1310.0)
        assert type(moved) is cls and moved.carrier_wavelength_nm == 1310.0
        back = dataclasses.replace(moved, carrier_wavelength_nm=710.0)
        assert type(back) is cls and back.grid == small_grid
        assert _bits_equal(back.samples, env.samples)
        assert back.samples is not env.samples and not back.samples.flags.writeable


class TestOwnership:
    """Public constructors copy; envelopes the library builds are read-only."""

    def test_constructor_copies_its_input(self, small_grid):
        samples = np.ones(small_grid.n_samples, dtype=np.complex128)
        env = SampledEnvelope(small_grid, samples)
        samples[0] = 5.0
        assert env.samples[0] == 1.0
        spec = SpectralEnvelope(small_grid, samples)
        samples[0] = 7.0
        assert spec.samples[0] == 5.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_constructor_rejects_non_finite_samples(self, small_grid, bad):
        samples = np.zeros(small_grid.n_samples, dtype=np.complex128)
        samples[3] = bad
        with pytest.raises(ValueError, match="finite"):
            SampledEnvelope(small_grid, samples)

    def test_built_envelopes_are_read_only(self, small_grid):
        pulse = time_bin_pulse(
            small_grid, bin_fwhm=5.0, separation=15.0, carrier_wavelength_nm=710.0
        )
        lens = TimeLens(ConversionDirection.DOWN, focal_gdd=7.0, pump_seed_fwhm=2.5)
        built = [
            pulse,
            to_time(to_frequency(pulse)),
            apply_time_lens(pulse, lens),
            magnified_copy(pulse, -3.0),
            apply_dispersion(pulse, DispersiveElement(gdd=7.0)),
            apply_dispersion(pulse, DispersiveElement(gdd=7.0, tod=0.5)),
            shifted(pulse, 12.5),
        ]
        for env in built:
            assert not env.samples.flags.writeable
            with pytest.raises(ValueError):
                env.samples[0] = 1.0

    @pytest.mark.parametrize("position", [0, 129, -1])
    @pytest.mark.parametrize(
        "bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(0.0, -np.inf)]
    )
    def test_rejects_a_non_finite_part_anywhere(self, small_grid, position, bad):
        samples = np.ones(small_grid.n_samples, dtype=np.complex128)
        samples[position] = bad
        with pytest.raises(ValueError, match="finite"):
            SampledEnvelope(small_grid, samples)

    def test_rejects_opposite_infinities(self, small_grid):
        # their sum is NaN, not an infinity
        samples = np.zeros(small_grid.n_samples, dtype=np.complex128)
        samples[[3, 200]] = [np.inf, -np.inf]
        with pytest.raises(ValueError, match="finite"):
            SampledEnvelope(small_grid, samples)

    def test_accepts_finite_samples_whose_sum_overflows(self, small_grid):
        samples = np.zeros(small_grid.n_samples, dtype=np.complex128)
        samples[[5, 6]] = 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            env = SampledEnvelope(small_grid, samples)
        assert env.samples[5] == 1e308

    def test_to_time_rejects_a_non_finite_spectrum(self, small_grid):
        samples = np.zeros(small_grid.n_samples, dtype=np.complex128)
        samples[10] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="finite"):
            to_time(SpectralEnvelope(small_grid, samples))


class TestFourStepTransform:
    """Transforms of at least ``_FOUR_STEP_MIN_SAMPLES`` samples run in place
    as a four-step FFT: two batched numpy calls around a twiddle multiply,
    then a transpose.  Smaller ones are one ``fft(work, out=work)`` call."""

    @staticmethod
    def _random(n_samples: int, seed: int = 7) -> SampledEnvelope:
        rng = np.random.default_rng(seed)
        grid = TimeGrid(n_samples, 400.0 / n_samples)
        return SampledEnvelope(grid, rng.normal(size=n_samples) + 1j * rng.normal(size=n_samples))

    # 2**17 is viewed as 256 x 512 and transposed through a copy; 2**18 is
    # 512 x 512 and transposed in place
    @pytest.mark.parametrize("n_samples", [2**17, 2**18])
    def test_agrees_with_numpy(self, n_samples):
        env = self._random(n_samples)
        spec = to_frequency(env)
        want = _reference_to_frequency(env.samples, env.grid)
        assert np.abs(spec.samples - want).max() < 1e-15 * np.abs(want).max()
        back = to_time(spec)
        want = _reference_to_time(spec.samples, env.grid)
        assert np.abs(back.samples - want).max() < 1e-15 * np.abs(want).max()
        peak = np.abs(env.samples).max()
        assert np.abs(back.samples - env.samples).max() < 1e-15 * peak

    # below the threshold, TestTransformBitIdentity checks the bits against
    # one plain numpy call
    @pytest.mark.parametrize(
        "n_samples, calls",
        [(2**16, [((2**16,), None)]), (2**18, [((512, 512), 0), ((512, 512), 1)])],
    )
    def test_numpy_calls(self, n_samples, calls, monkeypatch):
        env = self._random(n_samples)
        recorded = []
        for name in ("fft", "ifft"):

            def recording(a, *args, _fft=getattr(np.fft, name), _name=name, **kwargs):
                recorded.append((_name, a.shape, kwargs.get("axis")))
                return _fft(a, *args, **kwargs)

            monkeypatch.setattr(np.fft, name, recording)
        to_time(to_frequency(env))
        assert recorded == [(name, *call) for name in ("fft", "ifft") for call in calls]

    def test_errstate_applies(self):
        env = self._random(2**17)
        spectrum = np.zeros(env.grid.n_samples, dtype=np.complex128)
        spectrum[10] = np.inf
        spec = SpectralEnvelope(env.grid, spectrum)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="finite"):
                to_time(spec)
            with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
                to_time(spec)

    def test_concurrent_callers_get_the_serial_bits(self):
        # more threads than this suite's 2-core hosts have, switching often,
        # racing to build the twiddle tables: each must get its own
        # transform's bits
        envs = [self._random(2**17, seed) for seed in range(4)]
        expected = [to_frequency(env).samples for env in envs]
        envelope_module._twiddle_tables.cache_clear()
        start = threading.Barrier(len(envs))
        results: list[list[np.ndarray]] = [[] for _ in envs]

        def transform(k):
            start.wait()
            for _ in range(3):
                results[k].append(to_frequency(envs[k]).samples)

        workers = [threading.Thread(target=transform, args=(k,)) for k in range(len(envs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        for got, want in zip(results, expected):
            assert len(got) == 3 and all(_bits_equal(g, want) for g in got)

    # VmHWM, not ru_maxrss: a child's ru_maxrss starts at the peak of the
    # process that forked it, here the test runner
    @pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="needs /proc")
    def test_a_large_transform_takes_no_full_size_scratch(self):
        # the peak RSS of a fresh process across its first 2**20 transform,
        # after a small one has loaded numpy's FFT: about 2 waveforms more
        # when numpy's single 1-D call takes its two arrays of scratch
        code = (
            "import re, numpy as np\n"
            "from timelens import SampledEnvelope, TimeGrid, to_frequency\n"
            "def peak_kib():\n"
            "    status = open('/proc/self/status').read()\n"
            "    return int(re.search(r'VmHWM:\\s*(\\d+) kB', status).group(1))\n"
            "def random(n):\n"
            "    rng = np.random.default_rng(5)\n"
            "    return SampledEnvelope(TimeGrid(n, 400.0 / n), rng.normal(size=n) + 0j)\n"
            "to_frequency(random(2**14))\n"
            "env = random(2**20)\n"
            "before = peak_kib()\n"
            "spec = to_frequency(env)\n"
            "print((peak_kib() - before) * 1024 / env.samples.nbytes)\n"
        )
        result = fresh_python(code)
        assert result.returncode == 0, result.stderr
        assert float(result.stdout) < 1.5


class TestPeakMemory:
    """Kernels allocate little beyond their output (tracemalloc counts numpy's
    buffers); full-size intermediates would take several times it.  A
    spectral stage holds one full-size array, the transform's work array,
    plus the temporaries of one kernel block at a time.  Each operation runs
    once untraced first, so numpy's FFT plan for the size is not charged to
    it."""

    @staticmethod
    def _operations(n_samples: int):
        grid = TimeGrid(n_samples, 400.0 / n_samples)
        pulse = time_bin_pulse(
            grid, bin_fwhm=5.0, separation=15.0, carrier_wavelength_nm=710.0
        )
        lens = TimeLens(ConversionDirection.DOWN, focal_gdd=7.0, pump_seed_fwhm=2.5)
        element = DispersiveElement(gdd=7.0, transmission=0.9)
        off_center = shifted(pulse, 0.3)
        operations = {
            "magnified_copy": lambda: magnified_copy(pulse, -17.0),
            "pumped_lens": lambda: apply_time_lens(pulse, lens),
            "shifted": lambda: shifted(pulse, 37.3),
            "dispersion": lambda: apply_dispersion(pulse, element),
            "tod_dispersion": lambda: apply_dispersion(
                pulse, DispersiveElement(gdd=7.0, tod=0.5)
            ),
            "off_center_dispersion": lambda: apply_dispersion(off_center, element),
            "gaussian_pulse": lambda: gaussian_pulse(grid, fwhm=5.0),
            "time_bin_pulse": lambda: time_bin_pulse(grid, 5.0, 15.0),
            "visibility_experiment": lambda: visibility_experiment(pulse, 15.0),
        }
        return operations, pulse.samples.nbytes

    @staticmethod
    def _traced_peak(run) -> int:
        run()
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize(
        "operation, bound",
        [("magnified_copy", 2.0), ("pumped_lens", 2.0), ("shifted", 1.75),
         ("dispersion", 1.75), ("gaussian_pulse", 2.0), ("time_bin_pulse", 2.0),
         ("visibility_experiment", 3.3)],
    )
    def test_peak_is_bounded_by_the_output(self, operation, bound):
        # every output, and the interference experiment's image, is one
        # waveform on the grid
        operations, waveform = self._operations(2**16)
        assert self._traced_peak(operations[operation]) <= bound * waveform

    def test_overlap_forms_no_full_size_product(self):
        # the inner product and both energies are summed block by block; the
        # largest temporaries are one block's conjugate and product, a
        # quarter of a waveform at 2**16 samples
        pulse = time_bin_pulse(
            TimeGrid(2**16, 400.0 / 2**16), bin_fwhm=5.0, separation=15.0
        )
        other = shifted(pulse, 0.3)
        peak = self._traced_peak(lambda: overlap(pulse, other))
        assert peak <= 0.3 * pulse.samples.nbytes

    # At 2**18 samples a kernel block's temporaries are a few percent of the
    # output: a second full-size array would take the peak past 2.
    @pytest.mark.parametrize(
        "operation",
        ["shifted", "dispersion", "tod_dispersion", "off_center_dispersion"],
    )
    def test_spectral_stage_holds_one_array(self, operation):
        operations, waveform = self._operations(2**18)
        assert self._traced_peak(operations[operation]) <= 1.25 * waveform


class TestTransforms:
    def test_round_trip_identity(self, small_grid):
        env = gaussian_pulse(small_grid, fwhm=5.0)
        chirped = SampledEnvelope(env.grid, env.samples * np.exp(0.03j * env.times**2))
        back = to_time(to_frequency(chirped))
        assert np.max(np.abs(back.samples - chirped.samples)) < 1e-12

    def test_parseval(self, small_grid):
        pulse = gaussian_pulse(small_grid, fwhm=5.0)
        env = SampledEnvelope(small_grid, (1.3 - 0.4j) * pulse.samples)
        spec = to_frequency(env)
        assert energy(spec) == pytest.approx(energy(env), rel=1e-12)

    def test_transform_limited_spectral_width(self, fine_grid):
        # Gaussian intensity FWHM t_i maps to angular spectral FWHM 4*ln2/t_i
        env = gaussian_pulse(fine_grid, fwhm=5.0)
        spec = to_frequency(env)
        expected = 4.0 * LN2 / 5.0
        assert fwhm(spec) == pytest.approx(expected, rel=1e-4)

    def test_single_sample_impulse_has_flat_spectrum(self):
        grid = TimeGrid(512, 50.0 / 512)
        samples = np.zeros(512, dtype=complex)
        samples[256] = 1.0
        spec = to_frequency(SampledEnvelope(grid, samples))
        mags = np.abs(spec.samples)
        assert np.max(mags) - np.min(mags) < 1e-9 * np.max(mags)


class TestGaussianPulse:
    def test_half_max_at_half_fwhm(self):
        # dt = 40/256 = 0.15625 puts t = +/-2.5 exactly on the grid
        grid = TimeGrid(256, 40.0 / 256)
        env = gaussian_pulse(grid, fwhm=5.0)
        t = env.times
        i_plus = int(np.argmin(np.abs(t - 2.5)))
        i_minus = int(np.argmin(np.abs(t + 2.5)))
        assert t[i_plus] == pytest.approx(2.5, abs=1e-12)
        assert env.intensity[i_plus] == pytest.approx(0.5, abs=1e-12)
        assert env.intensity[i_minus] == pytest.approx(0.5, abs=1e-12)

    def test_translation_covariance(self):
        grid = TimeGrid(256, 80.0 / 256)  # dt = 0.3125
        base = gaussian_pulse(grid, fwhm=5.0)
        moved = gaussian_pulse(grid, fwhm=5.0, center=10.0)
        steps = int(round(10.0 / grid.dt))
        assert steps * grid.dt == 10.0  # exact on this grid
        np.testing.assert_allclose(
            moved.samples[steps:], base.samples[:-steps], atol=1e-14
        )

    def test_centered_pulse_is_exactly_even(self):
        # visibility_field_lens: 2**15 samples over 8449.8 ps, dt not dyadic
        grid = _planned_grid("visibility_field_lens")
        samples, half = gaussian_pulse(grid, fwhm=100.0).samples, grid.n_samples // 2
        assert _bits_equal(samples[half + 1 :], samples[half - 1 : 0 : -1].copy())

    def test_measured_fwhm_matches_request(self, small_grid):
        env = gaussian_pulse(small_grid, fwhm=5.0)
        assert abs(fwhm(env) - 5.0) < small_grid.dt

    def test_overflow_when_pulse_exceeds_window(self):
        grid = TimeGrid(64, 10.0 / 64)  # dt = 0.15625 ps
        # the message names the extent and the first and last sample times
        message = r"\[-10\.0, 10\.0\] ps; grid window is \[-5\.0, 4\.84375\] ps"
        with pytest.raises(WindowOverflowError, match=message):
            gaussian_pulse(grid, fwhm=5.0)  # needs a 20 ps extent

    def test_energy_against_quadrature(self, small_grid):
        env = gaussian_pulse(small_grid, fwhm=5.0)
        expected, _ = quad(lambda t: math.exp(-4.0 * LN2 * (t / 5.0) ** 2), -40, 40)
        assert energy(env) == pytest.approx(expected, rel=1e-9)


class TestSpectralEdge:
    # A 5 ps Gaussian keeps 1e-8 of its peak spectral amplitude at
    # w = sqrt(8*ln2*ln(1e8))/5 = 2.0214 rad/ps; the check puts that at
    # (63/64)*pi/dt, so it admits dt <= 1.5299 ps.
    @pytest.mark.parametrize(
        "make",
        [
            lambda grid: gaussian_pulse(grid, fwhm=5.0),
            lambda grid: time_bin_pulse(grid, bin_fwhm=5.0, separation=15.0),
        ],
    )
    def test_both_sides_of_the_limit(self, make):
        make(TimeGrid(256, 256 * 1.52 / 256))
        coarse = TimeGrid(256, 256 * 1.54 / 256)
        with pytest.raises(UndersampledError, match=r"dt=1\.54 ps.*n_samples >= 512 "):
            make(coarse)

    def test_remedy_is_the_smallest_passing_power_of_two(self):
        grid = TimeGrid(64, 400.0 / 64)  # dt = 6.25 ps
        with pytest.raises(UndersampledError, match="n_samples >= 512 "):
            gaussian_pulse(grid, fwhm=5.0)
        gaussian_pulse(TimeGrid(512, 400.0 / 512), fwhm=5.0)
        with pytest.raises(UndersampledError):
            gaussian_pulse(TimeGrid(256, 400.0 / 256), fwhm=5.0)


class TestTimeBinPulse:
    def test_zero_separation_is_unit_gaussian(self, small_grid):
        two = time_bin_pulse(small_grid, bin_fwhm=5.0, separation=0.0)
        one = gaussian_pulse(small_grid, fwhm=5.0)
        # identical up to denormal underflow in the far tails
        assert np.max(np.abs(two.samples - one.samples)) < 1e-300

    def test_overflow_names_the_window_as_the_gaussian_does(self):
        grid = TimeGrid(64, 10.0 / 64)  # dt = 0.15625 ps
        message = r"\[-6\.0, 6\.0\] ps; grid window is \[-5\.0, 4\.84375\] ps"
        with pytest.raises(WindowOverflowError, match=message):
            time_bin_pulse(grid, bin_fwhm=2.0, separation=4.0)

    def test_magnitude_is_even_for_any_phase(self, small_grid):
        env = time_bin_pulse(
            small_grid, bin_fwhm=5.0, separation=15.0, relative_phase=1.1
        )
        mags = np.abs(env.samples)
        np.testing.assert_allclose(mags[1:], mags[1:][::-1], atol=1e-12)

    def test_total_pattern_width(self, small_grid):
        # outermost half-maximum crossings span separation + bin_fwhm
        env = time_bin_pulse(small_grid, bin_fwhm=5.0, separation=15.0)
        intensity = env.intensity
        above = np.where(intensity >= 0.5 * intensity.max())[0]
        width = env.times[above[-1]] - env.times[above[0]]
        assert width == pytest.approx(20.0, abs=2 * small_grid.dt)

    def test_relative_phase_lives_on_late_bin(self, small_grid):
        env = time_bin_pulse(
            small_grid, bin_fwhm=5.0, separation=15.0, relative_phase=0.7
        )
        t = env.times
        early = env.samples[int(np.argmin(np.abs(t + 7.5)))]
        late = env.samples[int(np.argmin(np.abs(t - 7.5)))]
        # the opposite bin's tail contributes ~4e-6 rad of phase pull
        assert abs(np.angle(early)) < 1e-4
        assert np.angle(late) == pytest.approx(0.7, abs=1e-4)


class TestMetrics:
    def test_self_overlap_is_unity(self, small_grid):
        env = gaussian_pulse(small_grid, fwhm=5.0)
        val = overlap(env, env)
        assert val.real == pytest.approx(1.0, abs=1e-12)
        assert abs(val.imag) < 1e-12

    def test_global_phase_in_overlap(self, small_grid):
        env = gaussian_pulse(small_grid, fwhm=5.0)
        rotated = SampledEnvelope(env.grid, env.samples * np.exp(0.9j))
        val = overlap(env, rotated)
        assert abs(val) == pytest.approx(1.0, abs=1e-12)
        assert np.angle(val) == pytest.approx(0.9, abs=1e-12)

    def test_overlap_insensitive_to_amplitude_scale(self, small_grid):
        env = gaussian_pulse(small_grid, fwhm=5.0)
        scaled = SampledEnvelope(env.grid, 3.7 * env.samples)
        assert abs(overlap(env, scaled)) == pytest.approx(1.0, abs=1e-12)

    def test_zero_energy_inputs_raise(self, small_grid):
        zero = SampledEnvelope(small_grid, np.zeros(small_grid.n_samples))
        env = gaussian_pulse(small_grid, fwhm=5.0)
        with pytest.raises(DegenerateInputError):
            fwhm(zero)
        with pytest.raises(DegenerateInputError):
            overlap(env, zero)
        with pytest.raises(DegenerateInputError):
            intensity_overlap(zero, env)

    def test_intensity_overlap_is_phase_blind(self, small_grid):
        env = gaussian_pulse(small_grid, fwhm=5.0)
        chirped = SampledEnvelope(env.grid, env.samples * np.exp(0.05j * env.times**2))
        assert intensity_overlap(env, chirped) == pytest.approx(1.0, abs=1e-12)

    def test_boundary_leakage_of_contained_pulse(self, small_grid):
        env = gaussian_pulse(small_grid, fwhm=5.0)
        assert boundary_leakage(env) < 1e-8


class TestPhaseFit:
    def test_chirp_free_curvature_is_zero(self, small_grid):
        env = gaussian_pulse(small_grid, fwhm=5.0)
        c2, rms = phase_fit_quadratic(env)
        assert abs(c2) < 1e-6
        assert rms < 1e-6

    def test_recovers_constructed_quadratic_phase(self, small_grid):
        env = gaussian_pulse(small_grid, fwhm=5.0)
        chirped = SampledEnvelope(env.grid, env.samples * np.exp(1j * env.times**2 / 20.0))
        c2, rms = phase_fit_quadratic(chirped)
        assert c2 == pytest.approx(0.05, abs=1e-4)
        assert rms < 1e-6

    def test_linear_phase_does_not_alias_into_curvature(self, small_grid):
        env = gaussian_pulse(small_grid, fwhm=5.0)
        tilted = SampledEnvelope(env.grid, env.samples * np.exp(1j * (0.4 * env.times + 0.2)))
        c2, _ = phase_fit_quadratic(tilted)
        assert abs(c2) < 1e-6

    def test_phase_rms_detrends_linear_ramp(self, small_grid):
        env = gaussian_pulse(small_grid, fwhm=5.0)
        tilted = SampledEnvelope(env.grid, env.samples * np.exp(1j * (0.4 * env.times + 0.2)))
        assert phase_rms(tilted) < 1e-9

    def test_insufficient_support_raises(self):
        grid = TimeGrid(64, 50.0 / 64)
        samples = np.zeros(64, dtype=complex)
        samples[32] = 1.0
        with pytest.raises(InsufficientSupportError):
            phase_fit_quadratic(SampledEnvelope(grid, samples))


class TestShiftAndMagnify:
    def test_shifted_matches_recentered_pulse(self, small_grid):
        base = gaussian_pulse(small_grid, fwhm=5.0)
        moved = shifted(base, 12.5)
        reference = gaussian_pulse(small_grid, fwhm=5.0, center=12.5)
        assert np.max(np.abs(moved.samples - reference.samples)) < 1e-9

    def test_shift_overflow_detected(self, small_grid):
        base = gaussian_pulse(small_grid, fwhm=5.0)
        with pytest.raises(WindowOverflowError):
            shifted(base, 300.0)

    def test_magnified_copy_identity(self, small_grid):
        env = gaussian_pulse(small_grid, fwhm=5.0)
        same = magnified_copy(env, 1.0)
        assert np.max(np.abs(same.samples - env.samples)) < 1e-12

    @pytest.mark.parametrize("magnification", [-20.0, 13.7, 1.0, -0.5])
    def test_magnified_copy_matches_cubic_spline(self, magnification):
        grid = TimeGrid(2**14, 400.0 / 2**14)
        env = time_bin_pulse(grid, bin_fwhm=5.0, separation=15.0, relative_phase=0.7)
        t = env.times
        source_t = t / magnification
        spline_re = CubicSpline(t, env.samples.real, extrapolate=False)
        spline_im = CubicSpline(t, env.samples.imag, extrapolate=False)
        reference = np.nan_to_num(spline_re(source_t) + 1j * spline_im(source_t))
        reference /= np.sqrt(abs(magnification))
        got = magnified_copy(env, magnification).samples
        assert np.max(np.abs(got - reference)) <= 1e-12 * np.max(np.abs(reference))

    def test_magnified_copy_width_and_energy(self):
        grid = TimeGrid(2**13, 400.0 / 2**13)
        env = gaussian_pulse(grid, fwhm=5.0)
        mag = magnified_copy(env, 4.0)
        assert fwhm(mag) == pytest.approx(20.0, abs=2 * grid.dt)
        assert energy(mag) == pytest.approx(energy(env), rel=1e-6)

    def test_negative_magnification_time_reverses(self):
        grid = TimeGrid(2**13, 400.0 / 2**13)
        env = gaussian_pulse(grid, fwhm=5.0, center=3.0)
        mag = magnified_copy(env, -4.0)
        t = mag.times
        peak_t = t[int(np.argmax(mag.intensity))]
        assert peak_t == pytest.approx(-12.0, abs=2 * grid.dt)
