"""Dispersive elements, pump synthesis, and the pumped time lens."""

from __future__ import annotations

import math

import numpy as np
import pytest

import timelens.elements as elements_module
import timelens.envelope as envelope_module
from timelens import (
    CarrierMismatchError,
    ConversionDirection,
    DesignError,
    DispersiveElement,
    SampledEnvelope,
    TimeGrid,
    TimeLens,
    WindowOverflowError,
    apply_dispersion,
    apply_time_lens,
    converted_carrier,
    energy,
    fwhm,
    gaussian_pulse,
    phase_fit_quadratic,
    phase_rms,
    pump_phase_curvature,
    stretched_pump_fwhm,
    synthesize_pump,
    to_frequency,
)

LN2 = math.log(2.0)


class TestDispersiveElement:
    def test_identity_when_all_zero(self, small_grid):
        env = gaussian_pulse(small_grid, fwhm=5.0)
        out = apply_dispersion(env, DispersiveElement(gdd=0.0))
        assert np.array_equal(out.samples, env.samples)

    def test_analytic_gaussian_broadening(self, small_grid):
        env = gaussian_pulse(small_grid, fwhm=5.0)
        out = apply_dispersion(env, DispersiveElement(gdd=5.0))
        expected = 5.0 * math.hypot(1.0, 4.0 * LN2 * 5.0 / 25.0)  # 5.7173 ps
        assert fwhm(out) == pytest.approx(expected, rel=1e-4)

    def test_phase_only_filter_keeps_spectral_magnitude(self, small_grid):
        env = gaussian_pulse(small_grid, fwhm=5.0)
        out = apply_dispersion(env, DispersiveElement(gdd=7.0, tod=1.5))
        np.testing.assert_allclose(
            np.abs(to_frequency(out).samples),
            np.abs(to_frequency(env).samples),
            atol=1e-12,
        )

    def test_additive_composition(self, small_grid):
        env = gaussian_pulse(small_grid, fwhm=5.0)
        a_then_b = apply_dispersion(
            apply_dispersion(env, DispersiveElement(gdd=3.0, tod=0.4)),
            DispersiveElement(gdd=4.0, tod=-0.1),
        )
        combined = apply_dispersion(env, DispersiveElement(gdd=7.0, tod=0.3))
        assert np.max(np.abs(a_then_b.samples - combined.samples)) < 1e-12

    def test_inverse_cancellation(self, small_grid):
        env = gaussian_pulse(small_grid, fwhm=5.0)
        out = apply_dispersion(
            apply_dispersion(env, DispersiveElement(gdd=8.0, tod=0.6)),
            DispersiveElement(gdd=-8.0, tod=-0.6),
        )
        assert np.max(np.abs(out.samples - env.samples)) < 1e-12

    def test_unit_transmission_preserves_energy(self, small_grid):
        env = gaussian_pulse(small_grid, fwhm=5.0)
        out = apply_dispersion(env, DispersiveElement(gdd=12.0))
        assert energy(out) == pytest.approx(energy(env), rel=1e-9)

    def test_transmission_scales_energy_quadratically(self, small_grid):
        env = gaussian_pulse(small_grid, fwhm=5.0)
        out = apply_dispersion(env, DispersiveElement(gdd=5.0, transmission=0.9))
        assert energy(out) == pytest.approx(0.81 * energy(env), rel=1e-9)

    def test_wraparound_detected(self):
        grid = TimeGrid(256, 60.0 / 256)
        env = gaussian_pulse(grid, fwhm=5.0)
        with pytest.raises(WindowOverflowError):
            apply_dispersion(env, DispersiveElement(gdd=200.0))

    def test_wraparound_error_names_the_stage(self):
        grid = TimeGrid(256, 60.0 / 256)
        env = gaussian_pulse(grid, fwhm=5.0)
        with pytest.raises(WindowOverflowError, match="input_gdd"):
            apply_dispersion(env, DispersiveElement(gdd=200.0, label="input_gdd"))

    def test_third_order_term_skews_an_even_pulse(self, small_grid):
        from timelens import asymmetry

        env = gaussian_pulse(small_grid, fwhm=5.0)
        silent = apply_dispersion(env, DispersiveElement(gdd=6.0))
        skewed = apply_dispersion(env, DispersiveElement(gdd=6.0, tod=6.0))
        assert abs(asymmetry(silent)) < 1e-9
        assert abs(asymmetry(skewed)) > 1e-3

    def test_invalid_transmission_rejected(self):
        with pytest.raises(DesignError):
            DispersiveElement(gdd=1.0, transmission=0.0)
        with pytest.raises(DesignError):
            DispersiveElement(gdd=1.0, transmission=1.5)


def pump_envelope(grid, seed_fwhm, chirp_gdd):
    """The closed-form pump as a complex envelope, for the waveform metrics."""
    magnitude, phase = synthesize_pump(grid, seed_fwhm, chirp_gdd)
    return SampledEnvelope(grid, magnitude * np.exp(1j * phase))


class TestPumpSynthesis:
    def test_zero_chirp_is_transform_limited(self, small_grid):
        magnitude, phase = synthesize_pump(small_grid, 2.5, 0.0)
        assert float(magnitude.max()) == 1.0
        assert not np.any(phase)
        assert phase_rms(pump_envelope(small_grid, 2.5, 0.0)) < 1e-9

    @pytest.mark.parametrize("chirp", [0.0, 5.0, 50.0])
    def test_spectral_width_is_chirp_independent(self, chirp):
        grid = TimeGrid(2**14, 2000.0 / 2**14)
        pump = pump_envelope(grid, 2.5, chirp)
        expected = 4.0 * LN2 / 2.5  # 1.109 rad/ps
        assert fwhm(to_frequency(pump)) == pytest.approx(expected, rel=1e-3)

    def test_moderate_chirp_curvature_matches_closed_form(self, small_grid):
        # at chirp ~ seed_fwhm^2 the curvature is well below the asymptotic
        # 1/(2*chirp) value; the closed form is the correct oracle
        c2, _ = phase_fit_quadratic(pump_envelope(small_grid, 2.5, 5.0))
        exact = pump_phase_curvature(2.5, 5.0)
        assert c2 == pytest.approx(exact, rel=0.02)
        assert abs(exact) == pytest.approx(0.0831, abs=0.0005)

    def test_large_chirp_curvature_approaches_lens_phase(self):
        grid = TimeGrid(2**14, 6000.0 / 2**14)
        c2, _ = phase_fit_quadratic(pump_envelope(grid, 2.5, 500.0))
        assert c2 == pytest.approx(-1.0 / (2.0 * 500.0), rel=0.02)
        assert c2 == pytest.approx(pump_phase_curvature(2.5, 500.0), rel=0.005)

    def test_stretched_width_formula_matches_measurement(self):
        grid = TimeGrid(2**14, 6000.0 / 2**14)
        assert fwhm(pump_envelope(grid, 2.5, 500.0)) == pytest.approx(
            stretched_pump_fwhm(2.5, 500.0), rel=1e-3
        )

    @pytest.mark.parametrize("chirp", [0.0, 5.0, 50.0, 500.0, -952.38])
    def test_matches_fft_dispersed_seed(self, chirp):
        # The pump as formerly synthesized: a Gaussian seed dispersed by
        # chirp_gdd through the spectral transform, then peak-normalized.
        grid = TimeGrid(2**15, 10000.0 / 2**15)
        seed = gaussian_pulse(grid, 2.5)
        dispersed = apply_dispersion(seed, DispersiveElement(gdd=chirp)).samples
        reference = dispersed / np.abs(dispersed).max()
        closed = pump_envelope(grid, 2.5, chirp).samples
        assert np.max(np.abs(closed - reference)) <= 1e-9


class TestCarrierBookkeeping:
    def test_down_conversion_energy_balance(self):
        idler = converted_carrier(710.0, 1550.0, ConversionDirection.DOWN)
        assert 1.0 / idler == pytest.approx(1.0 / 710.0 - 1.0 / 1550.0, rel=1e-14)
        assert idler == pytest.approx(1310.0, rel=1e-3)

    def test_up_conversion_inverts_down(self):
        idler = converted_carrier(710.0, 1550.0, ConversionDirection.DOWN)
        back = converted_carrier(idler, 1550.0, ConversionDirection.UP)
        assert back == pytest.approx(710.0, rel=1e-12)

    def test_down_conversion_needs_bluer_input(self):
        with pytest.raises(DesignError):
            converted_carrier(1550.0, 710.0, ConversionDirection.DOWN)

    def test_lens_positions_output_carrier(self):
        lens = TimeLens(direction=ConversionDirection.DOWN, focal_gdd=5.0)
        assert lens.output_carrier_nm == pytest.approx(
            converted_carrier(710.0, 1550.0, ConversionDirection.DOWN)
        )


class TestTimeLensApplication:
    def test_ideal_lens_preserves_modulus_and_energy(self, small_grid):
        env = gaussian_pulse(small_grid, fwhm=5.0, carrier_wavelength_nm=710.0)
        lens = TimeLens(direction=ConversionDirection.DOWN, focal_gdd=5.0)
        out = apply_time_lens(env, lens)
        np.testing.assert_allclose(
            np.abs(out.samples), np.abs(env.samples), atol=1e-12
        )
        assert energy(out) == pytest.approx(energy(env), rel=1e-12)
        assert out.carrier_wavelength_nm == pytest.approx(lens.output_carrier_nm)

    def test_down_then_up_is_identity_up_to_sign(self, small_grid):
        env = gaussian_pulse(small_grid, fwhm=5.0, carrier_wavelength_nm=710.0)
        down = TimeLens(direction=ConversionDirection.DOWN, focal_gdd=5.0)
        up = TimeLens(
            direction=ConversionDirection.UP,
            focal_gdd=5.0,
            input_carrier_nm=down.output_carrier_nm,
        )
        out = apply_time_lens(apply_time_lens(env, down), up)
        assert np.max(np.abs(out.samples - (-env.samples))) < 1e-12
        assert out.carrier_wavelength_nm == pytest.approx(710.0, rel=1e-12)

    def test_ideal_lens_imprints_expected_curvature(self, small_grid):
        # a down-conversion lens with pump chirp C adds +t^2/(2C) of phase
        env = gaussian_pulse(small_grid, fwhm=5.0, carrier_wavelength_nm=710.0)
        lens = TimeLens(direction=ConversionDirection.DOWN, focal_gdd=10.0)
        out = apply_time_lens(env, lens)
        c2, rms = phase_fit_quadratic(out)
        assert c2 == pytest.approx(1.0 / (2.0 * 10.0), rel=1e-6)
        assert rms < 1e-9

    def test_pumped_lens_full_conversion_at_pump_peak(self, small_grid):
        env = gaussian_pulse(small_grid, fwhm=5.0, carrier_wavelength_nm=710.0)
        lens = TimeLens(
            direction=ConversionDirection.DOWN, focal_gdd=5.0, pump_seed_fwhm=2.5
        )
        out = apply_time_lens(env, lens)
        t = env.times
        center = int(np.argmin(np.abs(t)))  # pump peak sits at t = 0
        assert abs(out.samples[center]) == pytest.approx(
            abs(env.samples[center]), rel=1e-6
        )

    def test_pumped_lens_suppresses_wings_and_energy(self, small_grid):
        env = gaussian_pulse(small_grid, fwhm=5.0, carrier_wavelength_nm=710.0)
        focal = 1000.0 / 21.0
        ideal = TimeLens(direction=ConversionDirection.DOWN, focal_gdd=focal)
        pumped = TimeLens(
            direction=ConversionDirection.DOWN, focal_gdd=focal, pump_seed_fwhm=5.0
        )
        out_ideal = apply_time_lens(env, ideal)
        out_pumped = apply_time_lens(env, pumped)
        assert energy(out_pumped) < energy(out_ideal)
        # conversion rolls off with the pump amplitude away from its peak
        t = env.times
        wing = int(np.argmin(np.abs(t - 20.0)))
        eta_wing = abs(out_pumped.samples[wing]) / abs(env.samples[wing])
        eta_center = abs(out_pumped.samples[int(np.argmin(np.abs(t)))]) / abs(
            env.samples[int(np.argmin(np.abs(t)))]
        )
        assert eta_wing < eta_center

    def test_pumped_lens_never_increases_energy(self, small_grid):
        env = gaussian_pulse(small_grid, fwhm=5.0, carrier_wavelength_nm=710.0)
        lens = TimeLens(
            direction=ConversionDirection.DOWN, focal_gdd=20.0, pump_seed_fwhm=2.5
        )
        out = apply_time_lens(env, lens)
        assert energy(out) <= energy(env) * (1.0 + 1e-12)

    def test_carrier_mismatch_rejected(self, small_grid):
        env = gaussian_pulse(small_grid, fwhm=5.0, carrier_wavelength_nm=800.0)
        lens = TimeLens(direction=ConversionDirection.DOWN, focal_gdd=5.0)
        with pytest.raises(CarrierMismatchError):
            apply_time_lens(env, lens)

    def test_carrier_free_envelope_is_accepted(self, small_grid):
        env = gaussian_pulse(small_grid, fwhm=5.0)  # no carrier metadata
        lens = TimeLens(direction=ConversionDirection.DOWN, focal_gdd=5.0)
        out = apply_time_lens(env, lens)
        assert out.carrier_wavelength_nm is None

    def test_underflowing_pump_wings_give_finite_output(self):
        grid = TimeGrid(2**14, 6000.0 / 2**14)
        magnitude, _ = synthesize_pump(grid, 2.5, 5.0)
        # the wings pass through subnormals on their way to zero
        assert np.any((magnitude > 0.0) & (magnitude < np.finfo(float).tiny))
        env = gaussian_pulse(grid, fwhm=5.0, carrier_wavelength_nm=710.0)
        lens = TimeLens(
            direction=ConversionDirection.DOWN, focal_gdd=5.0, pump_seed_fwhm=2.5
        )
        out = apply_time_lens(env, lens)
        assert np.all(np.isfinite(out.samples))
        assert 0.0 < energy(out) <= energy(env)

    @pytest.mark.parametrize("lo, hi", [(-2048, 2048), (-5, 17)])
    def test_pump_amplitude_is_evaluated_at_the_sample_times(self, monkeypatch, lo, hi):
        # dt = 0.1 ps is not dyadic, so dt*(k - N/2) and t0 + dt*k differ
        grid = TimeGrid(2**12, 0.1)
        lens = TimeLens(
            direction=ConversionDirection.DOWN, focal_gdd=7.0, pump_seed_fwhm=2.5
        )
        seen = []
        magnitude = elements_module._pump_magnitude
        monkeypatch.setattr(
            elements_module,
            "_pump_magnitude",
            lambda t, *args: seen.append(t) or magnitude(t, *args),
        )
        elements_module._lens_factor(lens, grid)["extra"](lo, hi)
        half = grid.n_samples // 2
        (t,) = seen
        assert np.array_equal(t, grid.times[lo + half : hi + half])

    @pytest.mark.parametrize("n_samples", [2**12, 2**15])
    @pytest.mark.parametrize("pump_seed_fwhm", [None, 2.5])
    @pytest.mark.parametrize("direction", list(ConversionDirection))
    def test_output_bits_match_two_step_construction(
        self, n_samples, pump_seed_fwhm, direction, full_kernel
    ):
        grid = TimeGrid(n_samples, 400.0 / n_samples)
        env = gaussian_pulse(grid, fwhm=5.0, center=-3.0, carrier_wavelength_nm=710.0)
        lens = TimeLens(
            direction=direction, focal_gdd=7.0, pump_seed_fwhm=pump_seed_fwhm
        )
        out = apply_time_lens(env, lens)

        # The lens factor over the whole axis, built by the same chirp helper
        # (TestLensKernel checks it against the plain formula), and the
        # product as formed before the output was built in one step: a new
        # envelope with the product, then another with the output carrier.
        factor = full_kernel(grid, **elements_module._lens_factor(lens, grid))
        product = env.with_samples(env.samples * factor)
        reference = SampledEnvelope(grid, product.samples, lens.output_carrier_nm)
        assert out.grid == reference.grid
        assert out.carrier_wavelength_nm == reference.carrier_wavelength_nm
        assert np.array_equal(
            out.samples.view(np.uint64), reference.samples.view(np.uint64)
        )


@pytest.mark.parametrize("n_samples", [2, 4, 16, 2**12, 2**15])
@pytest.mark.parametrize("pump_seed_fwhm", [None, 2.5])
@pytest.mark.parametrize("direction", list(ConversionDirection))
@pytest.mark.parametrize("offset", [0.0, 1.5])
def test_lens_kernel_matches_the_plain_formula(
    n_samples, pump_seed_fwhm, direction, offset, full_kernel, within_rounding,
    centered_grid,
):
    """The lens factor, a chirp evaluated in blocks from exactly reduced
    phases and mirrored, agrees with the plain per-sample formula it
    replaces within that formula's own rounding; so does its pump
    amplitude.  With an offset, the factor as the stage multiplies it into
    a pulse centered ``offset`` ps off t = 0 agrees with the plain formula
    times that pulse."""
    grid = centered_grid(400.0, n_samples)
    if grid is None:
        return
    lens = TimeLens(direction=direction, focal_gdd=7.0, pump_seed_fwhm=pump_seed_fwhm)
    sign = lens.direction.phase_sign
    if pump_seed_fwhm is None:
        phase = sign * -(grid.times**2) / (2.0 * lens.focal_gdd)
        plain = 1j * np.exp(1j * phase)
    else:
        magnitude, pump_phase = synthesize_pump(grid, pump_seed_fwhm, lens.focal_gdd)
        phase = sign * pump_phase
        plain = 1j * np.sin(0.5 * np.pi * magnitude) * np.exp(1j * phase)
    factor = elements_module._lens_factor(lens, grid)
    if offset == 0.0:
        within_rounding(full_kernel(grid, **factor), plain, phase)
        return
    pulse = np.exp(-2.0 * LN2 * ((grid.times - offset) / 50.0) ** 2) + 0j
    out = np.empty_like(pulse)
    envelope_module._multiply_blocks(out, pulse, grid, **factor)
    within_rounding(out, plain * pulse, phase)


class TestExpCount:
    """The phase kernels evaluate a complex exponential per table entry, not
    per sample: at most n/8 values at 2**16 samples, where a per-sample
    kernel takes n/2 + 1 (mirrored dispersion) or n (lens)."""

    N = 2**16

    @pytest.fixture
    def exp_values(self, monkeypatch):
        counted = []
        exp = np.exp

        def counting_exp(x, *args, **kwargs):
            if np.iscomplexobj(x):
                counted.append(np.size(x))
            return exp(x, *args, **kwargs)

        monkeypatch.setattr(np, "exp", counting_exp)
        return counted

    def test_dispersion(self, exp_values):
        env = gaussian_pulse(TimeGrid(self.N, 4000.0 / self.N), fwhm=5.0)
        apply_dispersion(env, DispersiveElement(gdd=50.0))
        assert 0 < sum(exp_values) <= self.N // 8

    def test_pumped_lens(self, exp_values):
        grid = TimeGrid(self.N, 4000.0 / self.N)
        env = gaussian_pulse(grid, fwhm=5.0, carrier_wavelength_nm=710.0)
        lens = TimeLens(ConversionDirection.DOWN, focal_gdd=50.0, pump_seed_fwhm=2.5)
        apply_time_lens(env, lens)
        assert 0 < sum(exp_values) <= self.N // 8
