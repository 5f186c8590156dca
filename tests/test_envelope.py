"""Envelope representation, transforms, pulse constructors, and metrics."""

from __future__ import annotations

import math
import pickle
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

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
    phase_fit_quadratic,
    phase_rms,
    shifted,
    time_bin_pulse,
    to_frequency,
    to_time,
)

LN2 = math.log(2.0)


class TestTimeGrid:
    def test_centered_window_and_step(self):
        grid = TimeGrid.centered(window=100.0, n_samples=256)
        assert grid.n_samples == 256
        assert grid.dt == pytest.approx(100.0 / 256, rel=1e-15)
        assert grid.t0 == pytest.approx(-50.0, rel=1e-15)
        t = grid.times
        assert len(t) == 256
        assert np.all(np.diff(t) > 0)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(Exception):
            TimeGrid(n_samples=100, dt=0.1, t0=0.0)

    def test_omega_axis_spacing(self):
        grid = TimeGrid.centered(window=100.0, n_samples=256)
        w = grid.omegas
        assert w[1] - w[0] == pytest.approx(2.0 * np.pi / 100.0, rel=1e-12)
        # axis is centered on zero offset from the carrier
        assert abs(w[len(w) // 2]) < 1e-12


def _bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Bitwise equality of complex arrays; signed zeros count."""
    return np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestTransformSideEffects:
    def test_transform_leaves_pickle_size_unchanged(self):
        grid = TimeGrid.centered(window=400.0, n_samples=2**12)
        env = gaussian_pulse(grid, fwhm=5.0)
        fresh = len(pickle.dumps(env))
        to_frequency(env)
        assert len(pickle.dumps(env)) == fresh
        assert pickle.loads(pickle.dumps(grid)) == grid

    def test_centered_transforms_evaluate_no_exponential(self, small_grid, monkeypatch):
        env = gaussian_pulse(small_grid, fwhm=5.0)
        off_center = SampledEnvelope(
            TimeGrid(small_grid.n_samples, small_grid.dt, small_grid.t0 + 0.5), env.samples
        )
        calls = []
        exp = np.exp

        def counting_exp(*args, **kwargs):
            calls.append(args[0].shape)
            return exp(*args, **kwargs)

        monkeypatch.setattr(np, "exp", counting_exp)
        to_time(to_frequency(env))
        assert calls == []
        to_time(to_frequency(off_center))
        assert calls  # the counter sees the off-center grid's phase ramps

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


def _reference_to_frequency(samples: np.ndarray, grid: TimeGrid) -> np.ndarray:
    n = grid.n_samples
    spectrum = np.fft.fft(samples * (-1.0) ** np.arange(n))
    spectrum *= grid.dt / np.sqrt(2.0 * np.pi)
    spectrum *= (-1.0) ** (np.arange(n) - n // 2)
    t_c = grid.t0 + grid.dt * (n // 2)
    if t_c != 0.0:
        spectrum *= np.exp(-1j * grid.omegas * t_c)
    return spectrum


def _reference_to_time(spectrum: np.ndarray, grid: TimeGrid) -> np.ndarray:
    n = grid.n_samples
    t_c = grid.t0 + grid.dt * (n // 2)
    work = spectrum * (-1.0) ** (np.arange(n) - n // 2)
    if t_c != 0.0:
        work *= np.exp(1j * grid.omegas * t_c)
    samples = np.fft.ifft(work) * (-1.0) ** np.arange(n)
    samples *= n * grid.domega / np.sqrt(2.0 * np.pi)
    return samples


def _reference_dispersion(
    samples: np.ndarray, grid: TimeGrid, element: DispersiveElement
) -> np.ndarray:
    spec = _reference_to_frequency(samples, grid)
    w = grid.omegas
    phase = 0.5 * element.gdd * w**2
    if element.tod != 0.0:
        phase = phase + (element.tod / 6.0) * w**3
    kernel = element.transmission * np.exp(1j * phase)
    return _reference_to_time(np.multiply(spec, kernel), grid)


def _reference_shift(samples: np.ndarray, grid: TimeGrid, delay: float) -> np.ndarray:
    spec = _reference_to_frequency(samples, grid)
    kernel = np.exp(-1j * grid.omegas * delay)
    return _reference_to_time(np.multiply(spec, kernel), grid)


def _reference_magnified_copy(env: SampledEnvelope, magnification: float) -> np.ndarray:
    n = env.grid.n_samples
    x = (env.times / magnification - env.grid.t0) / env.grid.dt
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


# 2**12 and 2**15 samples lie on either side of numpy's 256 KiB threshold for
# reusing temporaries in place, which can swap the operands of a complex
# product and so change its rounding.
@pytest.mark.parametrize("n_samples", [2**12, 2**15])
class TestTransformBitIdentity:
    """The transform path matches the plain closed-form expressions bit for bit."""

    @staticmethod
    def _random(grid: TimeGrid) -> SampledEnvelope:
        rng = np.random.default_rng(grid.n_samples)
        n = grid.n_samples
        return SampledEnvelope(grid, rng.normal(size=n) + 1j * rng.normal(size=n))

    @pytest.mark.parametrize("t0", [None, -123.4])
    def test_round_trip(self, n_samples, t0):
        grid = TimeGrid.centered(window=400.0, n_samples=n_samples)
        if t0 is not None:  # a grid that does not start at -N/2*dt
            grid = TimeGrid(n_samples=n_samples, dt=grid.dt, t0=t0)
        env = self._random(grid)
        spec = to_frequency(env)
        assert _bits_equal(spec.samples, _reference_to_frequency(env.samples, grid))
        assert _bits_equal(
            to_time(spec).samples, _reference_to_time(spec.samples, grid)
        )

    @pytest.mark.parametrize(
        "element",
        [
            DispersiveElement(gdd=7.0, tod=1.5, transmission=0.8),
            DispersiveElement(gdd=-12.0),
        ],
    )
    def test_dispersion(self, n_samples, element):
        grid = TimeGrid.centered(window=400.0, n_samples=n_samples)
        env = gaussian_pulse(grid, fwhm=5.0, center=-20.0, amplitude=0.7 + 0.2j)
        out = apply_dispersion(env, element)
        assert _bits_equal(out.samples, _reference_dispersion(env.samples, grid, element))

    def test_shift(self, n_samples):
        grid = TimeGrid.centered(window=400.0, n_samples=n_samples)
        env = time_bin_pulse(grid, bin_fwhm=5.0, separation=15.0, relative_phase=0.4)
        out = shifted(env, 37.3)
        assert _bits_equal(out.samples, _reference_shift(env.samples, grid, 37.3))

    @pytest.mark.parametrize("magnification", [-20.0, 13.7, 1.0, -0.5])
    def test_magnified_copy(self, n_samples, magnification):
        env = self._random(TimeGrid.centered(window=400.0, n_samples=n_samples))
        out = magnified_copy(env, magnification)
        assert _bits_equal(out.samples, _reference_magnified_copy(env, magnification))

    def test_time_bin_pulse(self, n_samples):
        grid = TimeGrid.centered(window=400.0, n_samples=n_samples)
        out = time_bin_pulse(grid, bin_fwhm=5.0, separation=15.0, relative_phase=0.4)
        assert _bits_equal(out.samples, _reference_time_bin_pulse(grid, 5.0, 15.0, 0.4))


# n = 2 is the only size where n//2 is odd, which flips the other half of
# the spectral samples.
@pytest.mark.parametrize("n_samples", [2, 4, 16, 64])
@pytest.mark.parametrize("centered", [True, False])
class TestTransformConvention:
    """The transforms equal their defining sums on centered and off-center grids."""

    @staticmethod
    def _grid_and_samples(n_samples, centered):
        grid = TimeGrid.centered(window=10.0, n_samples=n_samples)
        if not centered:
            grid = TimeGrid(n_samples, grid.dt, grid.t0 + 0.37 * grid.dt + 1.5)
        rng = np.random.default_rng(n_samples)
        return grid, rng.normal(size=n_samples) + 1j * rng.normal(size=n_samples)

    def test_to_frequency_is_the_direct_sum(self, n_samples, centered):
        grid, samples = self._grid_and_samples(n_samples, centered)
        phases = np.exp(-1j * np.outer(grid.omegas, grid.times))
        direct = grid.dt / np.sqrt(2.0 * np.pi) * (phases @ samples)
        spectrum = to_frequency(SampledEnvelope(grid, samples)).samples
        assert np.max(np.abs(spectrum - direct)) <= 1e-13 * np.max(np.abs(direct))

    def test_to_time_is_the_direct_sum(self, n_samples, centered):
        grid, spectrum = self._grid_and_samples(n_samples, centered)
        phases = np.exp(1j * np.outer(grid.times, grid.omegas))
        direct = grid.domega / np.sqrt(2.0 * np.pi) * (phases @ spectrum)
        samples = to_time(SpectralEnvelope(grid, spectrum)).samples
        assert np.max(np.abs(samples - direct)) <= 1e-13 * np.max(np.abs(direct))


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
        ]
        for env in built:
            assert not env.samples.flags.writeable
            with pytest.raises(ValueError):
                env.samples[0] = 1.0

    def test_to_time_rejects_a_non_finite_spectrum(self, small_grid):
        samples = np.zeros(small_grid.n_samples, dtype=np.complex128)
        samples[10] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="finite"):
            to_time(SpectralEnvelope(small_grid, samples))


class TestPeakMemory:
    """Kernels allocate little beyond their output (tracemalloc counts numpy's
    buffers); full-size intermediates would take several times it.  A
    spectral filter holds its kernel and one transform's input and output."""

    @pytest.mark.parametrize(
        "operation, bound",
        [("magnified_copy", 2.0), ("pumped_lens", 2.0), ("shifted", 3.25),
         ("dispersion", 3.25)],
    )
    def test_peak_is_bounded_by_the_output(self, operation, bound):
        grid = TimeGrid.centered(window=400.0, n_samples=2**16)
        pulse = time_bin_pulse(
            grid, bin_fwhm=5.0, separation=15.0, carrier_wavelength_nm=710.0
        )
        lens = TimeLens(ConversionDirection.DOWN, focal_gdd=7.0, pump_seed_fwhm=2.5)
        element = DispersiveElement(gdd=7.0, transmission=0.9)
        tracemalloc.start()
        try:
            if operation == "magnified_copy":
                out = magnified_copy(pulse, -17.0)
            elif operation == "pumped_lens":
                out = apply_time_lens(pulse, lens)
            elif operation == "shifted":
                out = shifted(pulse, 37.3)
            else:
                out = apply_dispersion(pulse, element)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * out.samples.nbytes


class TestTransforms:
    def test_round_trip_identity(self, small_grid):
        env = gaussian_pulse(small_grid, fwhm=5.0)
        chirped = env.with_samples(env.samples * np.exp(0.03j * env.times**2))
        back = to_time(to_frequency(chirped))
        assert np.max(np.abs(back.samples - chirped.samples)) < 1e-12

    def test_parseval(self, small_grid):
        env = gaussian_pulse(small_grid, fwhm=5.0, amplitude=1.3 - 0.4j)
        spec = to_frequency(env)
        assert energy(spec) == pytest.approx(energy(env), rel=1e-12)

    def test_transform_limited_spectral_width(self, fine_grid):
        # Gaussian intensity FWHM t_i maps to angular spectral FWHM 4*ln2/t_i
        env = gaussian_pulse(fine_grid, fwhm=5.0)
        spec = to_frequency(env)
        expected = 4.0 * LN2 / 5.0
        assert fwhm(spec) == pytest.approx(expected, rel=1e-4)

    def test_single_sample_impulse_has_flat_spectrum(self):
        grid = TimeGrid.centered(window=50.0, n_samples=512)
        samples = np.zeros(512, dtype=complex)
        samples[256] = 1.0
        spec = to_frequency(SampledEnvelope(grid, samples))
        mags = np.abs(spec.samples)
        assert np.max(mags) - np.min(mags) < 1e-9 * np.max(mags)


class TestGaussianPulse:
    def test_half_max_at_half_fwhm(self):
        # dt = 40/256 = 0.15625 puts t = +/-2.5 exactly on the grid
        grid = TimeGrid.centered(window=40.0, n_samples=256)
        env = gaussian_pulse(grid, fwhm=5.0)
        t = env.times
        i_plus = int(np.argmin(np.abs(t - 2.5)))
        i_minus = int(np.argmin(np.abs(t + 2.5)))
        assert t[i_plus] == pytest.approx(2.5, abs=1e-12)
        assert env.intensity[i_plus] == pytest.approx(0.5, abs=1e-12)
        assert env.intensity[i_minus] == pytest.approx(0.5, abs=1e-12)

    def test_translation_covariance(self):
        grid = TimeGrid.centered(window=80.0, n_samples=256)  # dt = 0.3125
        base = gaussian_pulse(grid, fwhm=5.0)
        moved = gaussian_pulse(grid, fwhm=5.0, center=10.0)
        steps = int(round(10.0 / grid.dt))
        assert steps * grid.dt == 10.0  # exact on this grid
        np.testing.assert_allclose(
            moved.samples[steps:], base.samples[:-steps], atol=1e-14
        )

    def test_measured_fwhm_matches_request(self, small_grid):
        env = gaussian_pulse(small_grid, fwhm=5.0)
        assert abs(fwhm(env) - 5.0) < small_grid.dt

    def test_overflow_when_pulse_exceeds_window(self):
        grid = TimeGrid.centered(window=10.0, n_samples=64)
        with pytest.raises(WindowOverflowError):
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
        make(TimeGrid.centered(window=256 * 1.52, n_samples=256))
        coarse = TimeGrid.centered(window=256 * 1.54, n_samples=256)
        with pytest.raises(UndersampledError, match=r"dt=1\.54 ps.*n_samples >= 512 "):
            make(coarse)

    def test_remedy_is_the_smallest_passing_power_of_two(self):
        grid = TimeGrid.centered(window=400.0, n_samples=64)  # dt = 6.25 ps
        with pytest.raises(UndersampledError, match="n_samples >= 512 "):
            gaussian_pulse(grid, fwhm=5.0)
        gaussian_pulse(TimeGrid.centered(window=400.0, n_samples=512), fwhm=5.0)
        with pytest.raises(UndersampledError):
            gaussian_pulse(TimeGrid.centered(window=400.0, n_samples=256), fwhm=5.0)


class TestTimeBinPulse:
    def test_zero_separation_is_unit_gaussian(self, small_grid):
        two = time_bin_pulse(small_grid, bin_fwhm=5.0, separation=0.0)
        one = gaussian_pulse(small_grid, fwhm=5.0)
        # identical up to denormal underflow in the far tails
        assert np.max(np.abs(two.samples - one.samples)) < 1e-300

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
        rotated = env.with_samples(env.samples * np.exp(0.9j))
        val = overlap(env, rotated)
        assert abs(val) == pytest.approx(1.0, abs=1e-12)
        assert np.angle(val) == pytest.approx(0.9, abs=1e-12)

    def test_overlap_insensitive_to_amplitude_scale(self, small_grid):
        env = gaussian_pulse(small_grid, fwhm=5.0)
        scaled = env.with_samples(3.7 * env.samples)
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
        chirped = env.with_samples(env.samples * np.exp(0.05j * env.times**2))
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
        chirped = env.with_samples(env.samples * np.exp(1j * env.times**2 / 20.0))
        c2, rms = phase_fit_quadratic(chirped)
        assert c2 == pytest.approx(0.05, abs=1e-4)
        assert rms < 1e-6

    def test_linear_phase_does_not_alias_into_curvature(self, small_grid):
        env = gaussian_pulse(small_grid, fwhm=5.0)
        tilted = env.with_samples(env.samples * np.exp(1j * (0.4 * env.times + 0.2)))
        c2, _ = phase_fit_quadratic(tilted)
        assert abs(c2) < 1e-6

    def test_phase_rms_detrends_linear_ramp(self, small_grid):
        env = gaussian_pulse(small_grid, fwhm=5.0)
        tilted = env.with_samples(env.samples * np.exp(1j * (0.4 * env.times + 0.2)))
        assert phase_rms(tilted) < 1e-9

    def test_insufficient_support_raises(self):
        grid = TimeGrid.centered(window=50.0, n_samples=64)
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
        grid = TimeGrid.centered(window=400.0, n_samples=2**14)
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
        grid = TimeGrid.centered(window=400.0, n_samples=2**13)
        env = gaussian_pulse(grid, fwhm=5.0)
        mag = magnified_copy(env, 4.0)
        assert fwhm(mag) == pytest.approx(20.0, abs=2 * grid.dt)
        assert energy(mag) == pytest.approx(energy(env), rel=1e-6)

    def test_negative_magnification_time_reverses(self):
        grid = TimeGrid.centered(window=400.0, n_samples=2**13)
        env = gaussian_pulse(grid, fwhm=5.0, center=3.0)
        mag = magnified_copy(env, -4.0)
        t = mag.times
        peak_t = t[int(np.argmax(mag.intensity))]
        assert peak_t == pytest.approx(-12.0, abs=2 * grid.dt)
