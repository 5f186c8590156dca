"""Dispersive elements, pump synthesis, and the pumped time lens."""

from __future__ import annotations

import math

import numpy as np
import pytest
from test_dispersion_exact import _reversed

import timelens.elements as elements_module
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
    field_lens_system,
    fwhm,
    gaussian_pulse,
    phase_fit_quadratic,
    phase_rms,
    plan_grid,
    run_system,
    shifted,
    stretched_pump_fwhm,
    synthesize_pump,
    to_frequency,
)
from timelens.elements import pump_phase_curvature
from timelens.grid import _multiply_blocks

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

    def test_run_error_names_the_stage_once(self):
        # the element's own message starts at its dispersion; the run alone
        # prefixes the stage's index and label
        env = gaussian_pulse(TimeGrid(1024, 0.5), fwhm=5.0)
        with pytest.raises(WindowOverflowError) as info:
            apply_dispersion(env, DispersiveElement(gdd=1050.0, label="output_gdd"))
        assert str(info.value).startswith("dispersion gdd=1050.0 ps^2, ")
        with pytest.raises(WindowOverflowError) as info:
            run_system(env, field_lens_system(-20.0, 50.0))
        message = str(info.value)
        assert message.startswith("stage 3 (output_gdd): dispersion gdd=1050.0 ps^2, ")
        assert message.count("output_gdd") == 1

    def test_third_order_term_skews_an_even_pulse(self, small_grid):
        from timelens.interferometry import asymmetry

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

    @pytest.mark.parametrize("n_samples", [2**12, 2**13, 2**15])
    @pytest.mark.parametrize("pump_seed_fwhm", [None, 2.5])
    @pytest.mark.parametrize("direction", list(ConversionDirection))
    def test_output_bits_match_two_step_construction(
        self, n_samples, pump_seed_fwhm, direction
    ):
        grid = TimeGrid(n_samples, 400.0 / n_samples)
        env = gaussian_pulse(grid, fwhm=5.0, center=-3.0, carrier_wavelength_nm=710.0)
        lens = TimeLens(
            direction=direction, focal_gdd=7.0, pump_seed_fwhm=pump_seed_fwhm
        )
        out = apply_time_lens(env, lens)

        # The product by the same blocked kernel, which
        # test_lens_kernel_matches_the_plain_formula checks against the plain
        # formula, built as before the output was built in one step: a new
        # envelope with the product, then another with the output carrier.
        # A unit input's kernel would not do: where the pump amplitude
        # underflows, multiplying by it can flip the sign of a zero part.
        samples = np.empty_like(env.samples)
        factor = elements_module._lens_factor(lens, grid)
        _multiply_blocks(samples, env.samples, grid, **factor)
        product = SampledEnvelope(grid, samples, env.carrier_wavelength_nm)
        reference = SampledEnvelope(grid, product.samples, lens.output_carrier_nm)
        assert out.grid == reference.grid
        assert out.carrier_wavelength_nm == reference.carrier_wavelength_nm
        assert np.array_equal(
            out.samples.view(np.uint64), reference.samples.view(np.uint64)
        )


@pytest.mark.parametrize("n_samples", [2, 4, 16, 2**12, 2**13, 2**15])
@pytest.mark.parametrize("pump_seed_fwhm", [None, 2.5])
@pytest.mark.parametrize("direction", list(ConversionDirection))
@pytest.mark.parametrize("offset", [0.0, 1.5])
def test_lens_kernel_matches_the_plain_formula(
    n_samples, pump_seed_fwhm, direction, offset, full_kernel, within_rounding,
    centered_grid,
):
    """The lens factor, a per-sample phase evaluated in blocks and
    mirrored, agrees with the plain whole-axis formula within that
    formula's own rounding; so does its pump amplitude.  With an offset,
    the factor as the stage multiplies it into a pulse centered ``offset``
    ps off t = 0 agrees with the plain formula times that pulse."""
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
    _multiply_blocks(out, pulse, grid, **factor)
    within_rounding(out, plain * pulse, phase)


class TestPhaseCount:
    """The phase kernels evaluate one phase per sample they evaluate, as a
    cosine and a sine, and no complex exponential: n/2 + 1 for a kernel
    mirrored about m = 0 (dispersion without TOD, a lens, a time shift), n
    for a TOD dispersion, at 2**16 samples."""

    N = 2**16

    @pytest.fixture
    def phase_values(self, monkeypatch):
        """Sizes of the cosines and complex exponentials evaluated."""
        counted = []
        cos, exp = np.cos, np.exp

        def counting_cos(x, *args, **kwargs):
            counted.append(np.size(x))
            return cos(x, *args, **kwargs)

        def counting_exp(x, *args, **kwargs):
            if np.iscomplexobj(x):
                counted.append(np.size(x))
            return exp(x, *args, **kwargs)

        monkeypatch.setattr(np, "cos", counting_cos)
        monkeypatch.setattr(np, "exp", counting_exp)
        return counted

    @pytest.fixture
    def pulse(self):
        grid = TimeGrid(self.N, 4000.0 / self.N)
        return gaussian_pulse(grid, fwhm=5.0, carrier_wavelength_nm=710.0)

    def test_dispersion(self, pulse, phase_values):
        apply_dispersion(pulse, DispersiveElement(gdd=50.0))
        assert sum(phase_values) == self.N // 2 + 1

    def test_pumped_lens(self, pulse, phase_values):
        lens = TimeLens(ConversionDirection.DOWN, focal_gdd=50.0, pump_seed_fwhm=2.5)
        apply_time_lens(pulse, lens)
        assert sum(phase_values) == self.N // 2 + 1

    def test_time_shift(self, pulse, phase_values):
        shifted(pulse, 3.0)
        assert sum(phase_values) == self.N // 2 + 1

    def test_tod_dispersion(self, pulse, phase_values):
        """One phase per sample for the quadratic and cubic terms together,
        not one for each."""
        apply_dispersion(pulse, DispersiveElement(gdd=50.0, tod=20.0))
        assert sum(phase_values) == self.N


def _time_bins(grid: TimeGrid) -> SampledEnvelope:
    """Two 5 ps bins at -3 and 17 ps, the later one 0.7 rad ahead: a
    waveform with no symmetry about t = 0."""
    early = gaussian_pulse(grid, 5.0, center=-3.0)
    late = gaussian_pulse(grid, 5.0, center=17.0)
    return SampledEnvelope(grid, early.samples + np.exp(0.7j) * late.samples)


@pytest.mark.parametrize("n_samples", [2**14, 2**17])
class TestLensTwins:
    """Exact symmetries of the lens.  Its pump magnitude and phase are even
    in t, so reversing time, k -> (n - k) mod n, commutes with it.
    Conjugating its output flips the sign of its phase, which is the
    opposite direction's, and turns its factor i into -i."""

    @pytest.mark.parametrize("pump_seed_fwhm", [None, 2.5], ids=["ideal", "pumped"])
    @pytest.mark.parametrize("direction", list(ConversionDirection))
    def test_time_reversal_commutes_bit_for_bit(self, n_samples, direction,
                                                pump_seed_fwhm):
        pulse = _time_bins(TimeGrid(n_samples, 400.0 / n_samples))
        lens = TimeLens(direction, focal_gdd=7.0, pump_seed_fwhm=pump_seed_fwhm)
        out = apply_time_lens(pulse, lens)
        twin = apply_time_lens(
            SampledEnvelope(pulse.grid, _reversed(pulse.samples)), lens
        )
        assert np.array_equal(
            _reversed(out.samples).view(np.uint64), twin.samples.view(np.uint64)
        )

    @pytest.mark.parametrize("pump_seed_fwhm", [None, 2.5], ids=["ideal", "pumped"])
    @pytest.mark.parametrize("direction", list(ConversionDirection))
    def test_conjugation_is_the_opposite_direction_negated(self, n_samples,
                                                           direction, pump_seed_fwhm):
        pulse = _time_bins(TimeGrid(n_samples, 400.0 / n_samples))
        (opposite,) = set(ConversionDirection) - {direction}
        out = apply_time_lens(
            pulse, TimeLens(direction, focal_gdd=7.0, pump_seed_fwhm=pump_seed_fwhm)
        )
        twin = apply_time_lens(
            SampledEnvelope(pulse.grid, np.conj(pulse.samples)),
            TimeLens(opposite, focal_gdd=7.0, pump_seed_fwhm=pump_seed_fwhm),
        )
        # equal values; only the signs of zero parts may differ
        assert np.array_equal(np.conj(out.samples), -twin.samples)

    def test_time_reversal_through_a_pumped_field_lens_chain(self, n_samples):
        """The dispersions without TOD are even in w too, so the whole chain
        commutes with time reversal up to transform rounding (measured
        5.6e-16 and 6.8e-16 of the peak)."""
        system = field_lens_system(-20.0, 5.0, pump_seed_fwhm=2.5)
        grid = plan_grid(system, input_extent=60.0, input_bandwidth=4.0 * LN2 / 5.0,
                         n_samples=n_samples)
        pulse = _time_bins(grid)
        out = run_system(pulse, system).final.samples
        twin = run_system(SampledEnvelope(grid, _reversed(pulse.samples)), system)
        worst = np.max(np.abs(_reversed(out) - twin.final.samples))
        assert worst <= 2e-15 * np.max(np.abs(out))
