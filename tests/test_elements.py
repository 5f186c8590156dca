"""Dispersive elements, pump synthesis, and the pumped time lens."""

from __future__ import annotations

import math

import numpy as np
import pytest

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
    pump_for,
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
        grid = TimeGrid.centered(window=60.0, n_samples=256)
        env = gaussian_pulse(grid, fwhm=5.0)
        with pytest.raises(WindowOverflowError):
            apply_dispersion(env, DispersiveElement(gdd=200.0))

    def test_wraparound_error_names_the_stage(self):
        grid = TimeGrid.centered(window=60.0, n_samples=256)
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


class TestPumpSynthesis:
    def test_zero_chirp_is_transform_limited(self, small_grid):
        pump = synthesize_pump(small_grid, seed_fwhm=2.5, chirp_gdd=0.0)
        assert float(np.abs(pump.envelope.samples).max()) == pytest.approx(1.0)
        assert phase_rms(pump.envelope) < 1e-9

    @pytest.mark.parametrize("chirp", [0.0, 5.0, 50.0])
    def test_spectral_width_is_chirp_independent(self, chirp):
        grid = TimeGrid.centered(window=2000.0, n_samples=2**14)
        pump = synthesize_pump(grid, seed_fwhm=2.5, chirp_gdd=chirp)
        expected = 4.0 * LN2 / 2.5  # 1.109 rad/ps
        assert fwhm(to_frequency(pump.envelope)) == pytest.approx(expected, rel=1e-3)

    def test_moderate_chirp_curvature_matches_closed_form(self, small_grid):
        # at chirp ~ seed_fwhm^2 the curvature is well below the asymptotic
        # 1/(2*chirp) value; the closed form is the correct oracle
        pump = synthesize_pump(small_grid, seed_fwhm=2.5, chirp_gdd=5.0)
        c2, _ = phase_fit_quadratic(pump.envelope)
        exact = pump_phase_curvature(2.5, 5.0)
        assert c2 == pytest.approx(exact, rel=0.02)
        assert abs(exact) == pytest.approx(0.0831, abs=0.0005)

    def test_large_chirp_curvature_approaches_lens_phase(self):
        grid = TimeGrid.centered(window=6000.0, n_samples=2**14)
        pump = synthesize_pump(grid, seed_fwhm=2.5, chirp_gdd=500.0)
        c2, _ = phase_fit_quadratic(pump.envelope)
        assert c2 == pytest.approx(-1.0 / (2.0 * 500.0), rel=0.02)
        assert c2 == pytest.approx(pump_phase_curvature(2.5, 500.0), rel=0.005)

    def test_stretched_width_formula_matches_measurement(self):
        grid = TimeGrid.centered(window=6000.0, n_samples=2**14)
        pump = synthesize_pump(grid, seed_fwhm=2.5, chirp_gdd=500.0)
        assert fwhm(pump.envelope) == pytest.approx(
            stretched_pump_fwhm(2.5, 500.0), rel=1e-3
        )

    def test_pump_for_ideal_lens_is_none(self, small_grid):
        lens = TimeLens(direction=ConversionDirection.DOWN, focal_gdd=5.0)
        assert lens.is_ideal
        assert pump_for(lens, small_grid) is None


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
        out = apply_time_lens(env, lens, pump_for(lens, small_grid))
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
        out_pumped = apply_time_lens(env, pumped, pump_for(pumped, small_grid))
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
        out = apply_time_lens(env, lens, pump_for(lens, small_grid))
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

    def test_pump_argument_validation(self, small_grid):
        env = gaussian_pulse(small_grid, fwhm=5.0, carrier_wavelength_nm=710.0)
        ideal = TimeLens(direction=ConversionDirection.DOWN, focal_gdd=5.0)
        pumped = TimeLens(
            direction=ConversionDirection.DOWN, focal_gdd=5.0, pump_seed_fwhm=2.5
        )
        with pytest.raises(ValueError):
            apply_time_lens(env, ideal, pump_for(pumped, small_grid))
        with pytest.raises(ValueError):
            apply_time_lens(env, pumped, None)
        other_grid = TimeGrid.centered(window=200.0, n_samples=2**11)
        with pytest.raises(ValueError):
            apply_time_lens(env, pumped, pump_for(pumped, other_grid))

    @pytest.mark.parametrize("n_samples", [2**12, 2**15])
    @pytest.mark.parametrize("pump_seed_fwhm", [None, 2.5])
    @pytest.mark.parametrize("direction", list(ConversionDirection))
    def test_output_bits_match_two_step_construction(
        self, n_samples, pump_seed_fwhm, direction
    ):
        grid = TimeGrid.centered(window=400.0, n_samples=n_samples)
        env = gaussian_pulse(grid, fwhm=5.0, center=-3.0, carrier_wavelength_nm=710.0)
        lens = TimeLens(
            direction=direction, focal_gdd=7.0, pump_seed_fwhm=pump_seed_fwhm
        )
        pump = pump_for(lens, grid)
        out = apply_time_lens(env, lens, pump)

        # The lens factor and the product as formed before the output was
        # built in one step: a new envelope with the product, then another
        # with the output carrier.
        sign = lens.direction.phase_sign
        if pump is None:
            phi = -(env.times**2) / (2.0 * lens.focal_gdd)
            factor = 1j * np.exp(1j * sign * phi)
        else:
            amplitude = np.abs(pump.envelope.samples)
            peak = float(amplitude.max())
            unit_phase = np.ones_like(pump.envelope.samples)
            nonzero = amplitude > 0.0
            unit_phase[nonzero] = pump.envelope.samples[nonzero] / amplitude[nonzero]
            eta = np.sin(0.5 * np.pi * amplitude / peak)
            factor = 1j * eta * (unit_phase if sign > 0 else np.conjugate(unit_phase))
        product = env.with_samples(env.samples * factor)
        reference = SampledEnvelope(grid, product.samples, lens.output_carrier_nm)
        assert out.grid == reference.grid
        assert out.carrier_wavelength_nm == reference.carrier_wavelength_nm
        assert np.array_equal(
            out.samples.view(np.uint64), reference.samples.view(np.uint64)
        )
