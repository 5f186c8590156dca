"""Recombination, skewness metric, and the two-setting visibility experiment."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from timelens import (
    DegenerateInputError,
    PeakDetectionError,
    SampledEnvelope,
    TimeGrid,
    WindowOverflowError,
    asymmetry,
    gaussian_pulse,
    recombine,
    shifted,
    time_bin_pulse,
    visibility_experiment,
)
from timelens.interferometry import PEAK_HEIGHT_FLOOR, _outer_peaks, _window_energy


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
        combo = a.with_samples(alpha * a.samples + beta * b.samples)
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
        ports = ((result.constructive, 0.3), (result.destructive, 0.3 + np.pi))
        for port, phase in ports:
            assert np.array_equal(port.samples, recombine(two_bin, 15.0, phase).samples)

    def test_visibility_bounded(self, two_bin):
        result = visibility_experiment(two_bin, bin_separation=15.0)
        assert 0.0 <= result.visibility <= 1.0

    def test_quadratic_phase_washes_out_visibility(self, two_bin):
        # fast curvature across the pattern decorrelates the overlapped bins
        t = two_bin.times
        blurred = two_bin.with_samples(two_bin.samples * np.exp(0.5j * t**2))
        result = visibility_experiment(blurred, bin_separation=15.0)
        assert result.visibility < 0.05

    def test_invariant_under_global_phase_and_scale(self, two_bin):
        base = visibility_experiment(two_bin, bin_separation=15.0).visibility
        scaled = two_bin.with_samples(two_bin.samples * (0.31 * np.exp(1.1j)))
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

    def test_window_centered_between_outer_peaks(self, two_bin):
        result = visibility_experiment(two_bin, bin_separation=15.0)
        lo, hi = result.window
        assert hi - lo == pytest.approx(15.0, rel=1e-12)
        center = 0.5 * (result.outer_peaks[0] + result.outer_peaks[1])
        assert 0.5 * (lo + hi) == pytest.approx(center, abs=1e-9)

    def test_peak_metric_variant(self, two_bin):
        result = visibility_experiment(two_bin, bin_separation=15.0, metric="peak")
        assert result.metric == "peak"
        assert result.visibility > 0.999

    def test_single_lobe_input_rejected(self, small_grid):
        env = gaussian_pulse(small_grid, fwhm=5.0)
        with pytest.raises(PeakDetectionError):
            visibility_experiment(env, bin_separation=40.0)

    def test_nonpositive_separation_rejected(self, two_bin):
        with pytest.raises(ValueError):
            visibility_experiment(two_bin, bin_separation=0.0)

    def test_unknown_metric_rejected(self, two_bin):
        with pytest.raises(ValueError):
            visibility_experiment(two_bin, bin_separation=15.0, metric="median")

    def test_analyzer_delay_overflow_names_the_delay(self, two_bin):
        # the 400 ps window cannot hold the bins delayed by 390 ps
        with pytest.raises(WindowOverflowError, match=r"^analyzer delay 390\.0 ps: "):
            visibility_experiment(two_bin, bin_separation=390.0)

    def test_peak_memory_is_bounded_by_the_image(self):
        # The delayed copy and both ports are full-size outputs, each formed
        # in place; the summed intensity is held only over the blocks that
        # reach the peak floor, so about 3.3 images' worth is held at once.
        # One untraced run first, so numpy's FFT plan is not charged.
        grid = TimeGrid(2**16, 400.0 / 2**16)
        image = time_bin_pulse(grid, bin_fwhm=5.0, separation=15.0)
        visibility_experiment(image, 15.0)
        tracemalloc.start()
        try:
            visibility_experiment(image, 15.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.4 * image.samples.nbytes


def _full_array_outer_peaks(intensity: np.ndarray) -> np.ndarray:
    """Every counted maximum, by the formula ``_outer_peaks`` applies only to
    the span around the samples at or above its floor, here over the whole
    array."""
    steps = np.flatnonzero(np.diff(intensity))
    rising = intensity[steps + 1] > intensity[steps]
    tops = np.flatnonzero(rising[:-1] & ~rising[1:])
    indices = (steps[tops] + 1 + steps[tops + 1]) // 2
    return indices[intensity[indices] >= PEAK_HEIGHT_FLOOR * intensity.max()]


class TestOuterPeaks:
    @staticmethod
    def _check_against_the_full_array(intensity):
        ref = _full_array_outer_peaks(intensity)
        if len(ref) < 3:
            with pytest.raises(PeakDetectionError):
                _outer_peaks(intensity)
        else:
            assert _outer_peaks(intensity) == (ref[0], ref[-1])

    @pytest.mark.parametrize(
        "values",
        [
            [250, 0, 250, 0, 250, 0, 250, 0, 250],  # above the floor at 0 and n - 1
            [0, 250, 0, 100, 0, 250, 0],  # peaks next to either end
            [250, 250, 3, 100, 100, 100, 3, 250, 3, 100, 100, 3, 100, 100],  # plateaus
            [0, 1, 1, 250, 1, 250, 1, 250, 1, 0, 0],  # peaks next to the span's ends
            [2, 1, 2, 250, 2, 1, 2, 250, 2, 250, 2, 1, 2],  # maxima below the floor
            [250, 100, 250, 100, 250],  # one interior maximum
        ],
    )
    def test_matches_the_full_array_formula_at_the_edges(self, values):
        self._check_against_the_full_array(np.array(values, dtype=float))

    def test_matches_the_full_array_formula_on_random_profiles(self):
        rng = np.random.default_rng(715)
        levels = [0.0, 1.0, 2.0, 3.0, 100.0, 250.0]
        for _ in range(2000):
            values = rng.choice(levels, size=rng.integers(1, 30))
            intensity = np.repeat(values, rng.integers(1, 5, size=values.size))
            if intensity.max() > 0.0:
                self._check_against_the_full_array(intensity)
            smooth = rng.random(rng.integers(3, 60)) ** rng.integers(1, 12)
            self._check_against_the_full_array(smooth)

    def test_matches_find_peaks_on_plateaus(self):
        from scipy.signal import find_peaks

        rng = np.random.default_rng(20240611)
        # levels 1 and 2 fall under the 1 % height floor when 250 is present
        levels = [0.0, 1.0, 2.0, 3.0, 100.0, 250.0]
        for _ in range(2000):
            values = rng.choice(levels, size=rng.integers(1, 30))
            intensity = np.repeat(values, rng.integers(1, 5, size=values.size))
            if intensity.max() == 0.0:
                continue
            ref, _ = find_peaks(intensity, height=PEAK_HEIGHT_FLOOR * intensity.max())
            if len(ref) < 3:
                with pytest.raises(PeakDetectionError):
                    _outer_peaks(intensity)
            else:
                assert _outer_peaks(intensity) == (ref[0], ref[-1])


    def test_a_run_around_the_floor_gives_the_profile_indices(self):
        # the run holds the samples at or above the floor and one more on
        # each side, as visibility_experiment passes it
        rng = np.random.default_rng(716)
        for _ in range(2000):
            intensity = rng.random(rng.integers(3, 60)) ** rng.integers(1, 12)
            above = np.flatnonzero(intensity >= PEAK_HEIGHT_FLOOR * intensity.max())
            lo = max(int(above[0]) - 1, 0)
            hi = min(int(above[-1]) + 2, intensity.size)
            run = intensity[lo:hi].copy()
            try:
                expected = _outer_peaks(intensity)
            except PeakDetectionError:
                with pytest.raises(PeakDetectionError):
                    _outer_peaks(run, float(intensity.max()))
            else:
                first, last = _outer_peaks(run, float(intensity.max()))
                assert (lo + first, lo + last) == expected

    @pytest.mark.parametrize("start", [8191, 8192, 8193])
    def test_visibility_finds_the_full_array_peaks_at_block_edges(self, start):
        # a profile whose first sample above the floor lies at or next to a
        # block boundary: the run must keep the sample before it
        grid = TimeGrid(n_samples=2**15, dt=0.01)
        samples = np.zeros(grid.n_samples, dtype=np.complex128)
        samples[start : start + 9] = [1.0, 0.2, 3.0, 0.2, 1.0, 0.2, 3.0, 0.2, 1.0]
        image = SampledEnvelope(grid, samples)
        result = visibility_experiment(image, bin_separation=0.02)
        combined = (np.abs(result.constructive.samples) ** 2
                    + np.abs(result.destructive.samples) ** 2)
        lo, hi = _outer_peaks(combined)
        assert result.outer_peaks == (grid.times[lo], grid.times[hi])


class TestWindowEnergy:
    # windows laid out on the sample times moved to start at ``start``: from
    # the first sample time (-51.2 ps) their ends fall on sample times (the
    # window is closed), from 3.7 ps between them
    @pytest.mark.parametrize("start", [-51.2, 3.7])
    def test_matches_the_time_mask(self, start):
        grid = TimeGrid(n_samples=256, dt=0.4)
        rng = np.random.default_rng(7)
        env = SampledEnvelope(grid, rng.normal(size=256) + 1j * rng.normal(size=256))
        t = grid.times + (start - grid.t0)
        assert start != grid.t0 or np.array_equal(t, grid.times)
        # ends on the layout's times, between them and beyond
        for lo, hi in [(t[10], t[50]), (t[10] + 0.1, t[50] - 0.1),
                       (t[0] - 5.0, t[-1] + 5.0), (t[20] + 0.1, t[20] + 0.2)]:
            inside = (grid.times >= lo) & (grid.times <= hi)
            intensity = np.abs(env.samples[inside]) ** 2
            assert _window_energy(env, (lo, hi), "energy") == intensity.sum() * grid.dt
            if intensity.size:
                assert _window_energy(env, (lo, hi), "peak") == intensity.max()
