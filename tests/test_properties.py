"""Property-based invariants over randomized inputs (hypothesis)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from timelens import (
    ConversionDirection,
    DesignConfiguration,
    DesignRequest,
    DispersiveElement,
    TimeGrid,
    TimeLens,
    TopologyKind,
    apply_dispersion,
    apply_time_lens,
    asymmetry,
    energy,
    field_lens_system,
    fwhm,
    gaussian_pulse,
    magnified_copy,
    overlap,
    phase_fit_quadratic,
    recombine,
    requirements,
    shifted,
    single_lens_system,
    telescope_system,
    time_bin_pulse,
    to_frequency,
    to_time,
    transfer_matrix,
    visibility_experiment,
)
from timelens.imaging import assemble_system
from timelens.runner import sizing_divisor

GRID = TimeGrid(2**11, 400.0 / 2**11)

finite = dict(allow_nan=False, allow_infinity=False)
widths = st.floats(3.0, 10.0, **finite)
centers = st.floats(-20.0, 20.0, **finite)
gdds = st.floats(-10.0, 10.0, **finite)
tods = st.floats(-3.0, 3.0, **finite)
phases = st.floats(-math.pi, math.pi, **finite)
nonzero_scales = st.floats(0.1, 3.0, **finite)
magnifications = st.one_of(
    st.floats(-50.0, -1.5, **finite), st.floats(1.5, 50.0, **finite)
)
sizings = st.one_of(
    st.floats(-1e4, -0.01, **finite), st.floats(0.01, 1e4, **finite)
)


def pulse(width, center=0.0, chirp=0.0):
    env = gaussian_pulse(GRID, width, center=center)
    if chirp:
        env = env.with_samples(env.samples * np.exp(1j * chirp * env.times**2))
    return env


class TestTransforms:
    @given(widths, centers, st.floats(-0.05, 0.05, **finite))
    def test_round_trip_is_identity(self, width, center, chirp):
        env = pulse(width, center, chirp)
        back = to_time(to_frequency(env))
        assert np.max(np.abs(back.samples - env.samples)) < 1e-12

    @given(widths, centers, st.floats(-0.05, 0.05, **finite))
    def test_parseval(self, width, center, chirp):
        env = pulse(width, center, chirp)
        assert energy(to_frequency(env)) == pytest.approx(energy(env), rel=1e-12)


class TestDispersion:
    @given(widths, centers, gdds, tods)
    def test_energy_conserved(self, width, center, gdd, tod):
        env = pulse(width, center)
        out = apply_dispersion(env, DispersiveElement(gdd=gdd, tod=tod))
        assert energy(out) == pytest.approx(energy(env), rel=1e-9)

    @given(widths, gdds, gdds, tods, tods)
    def test_additive_in_cascade(self, width, g1, g2, t1, t2):
        env = pulse(width)
        once = apply_dispersion(env, DispersiveElement(gdd=g1 + g2, tod=t1 + t2))
        twice = apply_dispersion(
            apply_dispersion(env, DispersiveElement(gdd=g1, tod=t1)),
            DispersiveElement(gdd=g2, tod=t2),
        )
        scale = np.max(np.abs(once.samples))
        assert np.max(np.abs(once.samples - twice.samples)) < 1e-12 * scale

    @given(widths, centers, gdds, tods)
    def test_invertible(self, width, center, gdd, tod):
        env = pulse(width, center)
        out = apply_dispersion(
            apply_dispersion(env, DispersiveElement(gdd=gdd, tod=tod)),
            DispersiveElement(gdd=-gdd, tod=-tod),
        )
        assert np.max(np.abs(out.samples - env.samples)) < 1e-12

    @given(widths, gdds, st.floats(-15.0, 15.0, **finite))
    def test_commutes_with_time_shift(self, width, gdd, delay):
        env = pulse(width)
        element = DispersiveElement(gdd=gdd)
        a = shifted(apply_dispersion(env, element), delay)
        b = apply_dispersion(shifted(env, delay), element)
        assert np.max(np.abs(a.samples - b.samples)) < 1e-10


class TestEnvelopes:
    @given(st.floats(2.0, 6.0, **finite), st.floats(8.0, 20.0, **finite), phases)
    def test_time_bin_magnitude_is_even(self, bin_fwhm, separation, psi):
        env = time_bin_pulse(GRID, bin_fwhm, separation, relative_phase=psi)
        mags = np.abs(env.samples)
        # t = 0 sits on a sample; skip index 0, which has no mirror partner
        assert np.max(np.abs(mags[1:] - mags[1:][::-1])) < 1e-12

    @given(widths, nonzero_scales, st.floats(-0.03, 0.03, **finite))
    def test_symmetric_profiles_have_zero_asymmetry(self, width, amp, chirp):
        env = pulse(width, 0.0, chirp)
        env = env.with_samples(env.samples * amp)
        assert abs(asymmetry(env)) < 1e-9

    @given(widths, centers, st.floats(-0.1, 0.1, **finite))
    def test_phase_fit_recovers_injected_curvature(self, width, center, c2):
        fitted, residual = phase_fit_quadratic(pulse(width, center, c2))
        assert fitted == pytest.approx(c2, rel=1e-3, abs=1e-6)
        assert residual < 1e-6

    @given(widths, centers, phases, nonzero_scales)
    def test_overlap_is_scale_and_phase_free(self, width, center, phi, amp):
        a = pulse(width, center)
        b = a.with_samples(a.samples * amp * np.exp(1j * phi))
        assert abs(overlap(a, b)) <= 1.0 + 1e-12
        assert abs(overlap(a, b)) == pytest.approx(1.0, rel=1e-12)

    @given(
        st.one_of(st.floats(-8.0, -1.5, **finite), st.floats(1.5, 8.0, **finite)),
        widths,
    )
    def test_magnified_copy_scales_width_and_keeps_energy(self, m, width):
        env = pulse(width)
        out = magnified_copy(env, m)
        assert fwhm(out) == pytest.approx(abs(m) * width, rel=1e-2)
        assert energy(out) == pytest.approx(energy(env), rel=1e-4)


class TestInterference:
    @given(
        st.floats(5.0, 15.0, **finite),
        phases,
        st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
        st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    )
    def test_recombine_is_linear(self, delay, phi, alpha, beta):
        a = pulse(4.0, -6.0)
        b = pulse(7.0, 5.0)
        mixed = a.with_samples(alpha * a.samples + beta * b.samples)
        direct = recombine(mixed, delay, phi)
        summed = (
            alpha * recombine(a, delay, phi).samples
            + beta * recombine(b, delay, phi).samples
        )
        assert np.max(np.abs(direct.samples - summed)) < 1e-12

    @given(phases, nonzero_scales, phases)
    def test_visibility_blind_to_global_phase_and_scale(self, psi, amp, global_phi):
        image = time_bin_pulse(GRID, 5.0, 15.0, relative_phase=psi)
        rescaled = image.with_samples(image.samples * amp * np.exp(1j * global_phi))
        base = visibility_experiment(image, 15.0, relative_phase=psi)
        other = visibility_experiment(rescaled, 15.0, relative_phase=psi)
        assert other.visibility == pytest.approx(base.visibility, rel=1e-9)

    @given(phases)
    def test_matched_analyzer_phase_gives_full_visibility(self, psi):
        image = time_bin_pulse(GRID, 5.0, 15.0, relative_phase=psi)
        result = visibility_experiment(image, 15.0, relative_phase=psi)
        assert result.visibility > 0.999


def _chain_matrix(kind, m, sizing):
    """(A, C, C made dimensionless) of the built chain, after checking that it
    images at M: B = 0, A = M and det = 1."""
    stages = assemble_system(kind, m, sizing).stages
    a, b, c, d = transfer_matrix(stages)
    scale = max(
        abs(e.gdd if isinstance(e, DispersiveElement) else e.focal_gdd) for e in stages
    )
    assert abs(b) <= 1e-12 * scale
    assert a == pytest.approx(m, rel=1e-12)
    assert a * d - b * c == pytest.approx(1.0, rel=1e-12)
    return a, c, c * scale / max(abs(a), abs(d))


class TestSolvers:
    """Every built chain images at M; only the single-lens image is curved."""

    @given(magnifications, sizings)
    def test_single_lens_identities(self, m, focal):
        a, c, _ = _chain_matrix(TopologyKind.SINGLE_LENS, m, focal)
        assert c / (2.0 * a) == pytest.approx(1.0 / (2.0 * m * focal), rel=1e-12)

    @given(magnifications, sizings)
    def test_field_lens_corrector_value(self, m, focal):
        _, _, flatness = _chain_matrix(TopologyKind.FIELD_LENS, m, focal)
        assert abs(flatness) <= 1e-12

    @given(magnifications, sizings)
    def test_telescope_identities(self, m, d1):
        _, _, flatness = _chain_matrix(TopologyKind.TELESCOPE, m, d1)
        assert abs(flatness) <= 1e-12


class TestDesignScaling:
    configurations = st.sampled_from(
        [DesignConfiguration.FIELD_LENS, DesignConfiguration.TELESCOPE]
    )

    @given(
        configurations,
        st.floats(1.0, 20.0, **finite),
        st.floats(0.2, 5.0, **finite),
        st.floats(2.0, 50.0, **finite),
        st.floats(1.5, 4.0, **finite),
    )
    def test_bounds_linear_in_duration_inverse_in_bandwidth(
        self, config, t_i, dnu, m, factor
    ):
        base = requirements(DesignRequest(t_i, dnu, m, config))
        longer = requirements(DesignRequest(factor * t_i, dnu, m, config))
        wider = requirements(DesignRequest(t_i, factor * dnu, m, config))
        for entry in base.entries:
            assert longer.entry(entry.element).dispersion_bound_ps2 == (
                pytest.approx(factor * entry.dispersion_bound_ps2, rel=1e-12)
            )
            assert wider.entry(entry.element).dispersion_bound_ps2 == (
                pytest.approx(entry.dispersion_bound_ps2 / factor, rel=1e-12)
            )

    @given(
        st.sampled_from(list(DesignConfiguration)),
        st.floats(1.0, 20.0, **finite),
        st.floats(0.2, 5.0, **finite),
        st.floats(2.0, 50.0, **finite),
        st.floats(1.0, 30.0, **finite),
    )
    def test_recommendation_never_below_bound(self, config, t_i, dnu, m, mult):
        report = requirements(
            DesignRequest(t_i, dnu, m, config), far_field_multiplier=mult
        )
        for entry in report.entries:
            assert entry.recommended_ps2 >= entry.dispersion_bound_ps2 - 1e-12


class TestTimeLens:
    @given(st.floats(5.0, 30.0, **finite), st.floats(2.0, 4.0, **finite))
    def test_pumped_lens_never_gains_energy(self, focal, seed):
        lens = TimeLens(
            direction=ConversionDirection.DOWN, focal_gdd=focal, pump_seed_fwhm=seed
        )
        env = pulse(5.0)
        out = apply_time_lens(env, lens)
        assert energy(out) <= energy(env) * (1.0 + 1e-12)

    @given(st.floats(2.0, 50.0, **finite), st.sampled_from(list(ConversionDirection)))
    def test_ideal_lens_preserves_magnitude(self, focal, direction):
        lens = TimeLens(direction=direction, focal_gdd=focal)
        env = pulse(5.0, 3.0)
        out = apply_time_lens(env, lens)
        assert np.max(np.abs(np.abs(out.samples) - np.abs(env.samples))) < 1e-12


class TestSizingDivisor:
    BUILDERS = {
        TopologyKind.SINGLE_LENS: single_lens_system,
        TopologyKind.FIELD_LENS: field_lens_system,
        TopologyKind.TELESCOPE: telescope_system,
    }

    @given(
        st.sampled_from(list(BUILDERS)),
        st.floats(0.01, 100.0, **finite),
        st.sampled_from([-1.0, 1.0]),
    )
    def test_divisor_is_largest_stage_value_at_unit_sizing(self, kind, size, sign):
        m = sign * size
        assume(kind is TopologyKind.TELESCOPE or m != 1.0)
        system = self.BUILDERS[kind](m, 1.0)
        largest = max(
            [abs(e.gdd) for e in system.dispersive_elements()]
            + [abs(lens.focal_gdd) for lens in system.lenses()]
        )
        assert sizing_divisor(kind, m) == pytest.approx(largest, rel=1e-15)
