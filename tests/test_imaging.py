"""Topology layouts, transfer matrices, the far-field check, and end-to-end
system runs."""

from __future__ import annotations

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

import timelens.imaging as imaging_module
from timelens import (
    CarrierMismatchError,
    ConversionDirection,
    DesignError,
    DispersiveElement,
    SystemTopology,
    TimeGrid,
    TimeLens,
    TopologyKind,
    WindowOverflowError,
    apply_time_lens,
    check_far_field,
    converted_carrier,
    energy,
    field_lens_system,
    fwhm,
    gaussian_pulse,
    intensity_overlap,
    magnified_copy,
    overlap,
    phase_fit_quadratic,
    phase_rms,
    plan_grid,
    propagate_stages,
    run_system,
    single_lens_system,
    synthesize_pump,
    telescope_system,
    transfer_matrix,
    verify_topology,
)

LN2 = math.log(2.0)
GAUSS_BW = 4.0 * LN2 / 5.0  # angular spectral FWHM of a 5 ps Gaussian

#: One system of each kind, as (builder, magnification, sizing).
KINDS = {
    TopologyKind.SINGLE_LENS: (single_lens_system, -20.0, 5.0),
    TopologyKind.FIELD_LENS: (field_lens_system, -20.0, 5.0),
    TopologyKind.TELESCOPE: (telescope_system, 20.0, 5.0),
}
#: Every stage of every kind, as (kind, stage index).
STAGES = [
    pytest.param(kind, index, id=f"{kind.value}-{stage.label}")
    for kind, (build, m, sizing) in KINDS.items()
    for index, stage in enumerate(build(m, sizing).stages)
]


def _run(system, input_fwhm=5.0, n_samples=2**13):
    grid = plan_grid(
        system,
        input_extent=4.0 * input_fwhm,
        input_bandwidth=4.0 * LN2 / input_fwhm,
        n_samples=n_samples,
    )
    pulse = gaussian_pulse(grid, input_fwhm, carrier_wavelength_nm=710.0)
    return pulse, run_system(pulse, system)


class TestSolvers:
    """The closed-form layouts, read from the built chains."""

    def test_single_lens_magnifier_values(self):
        d1, _, d2 = single_lens_system(-20.0, 5.0).stages
        assert d1.gdd == pytest.approx(5.25, rel=1e-12)
        assert d2.gdd == pytest.approx(105.0, rel=1e-12)

    def test_single_lens_unit_inverse_magnification(self):
        d1, _, d2 = single_lens_system(-1.0, 5.0).stages
        assert d1.gdd == pytest.approx(10.0, rel=1e-12)
        assert d2.gdd == pytest.approx(10.0, rel=1e-12)

    @pytest.mark.parametrize("m,f", [(-20.0, 5.0), (3.0, -2.0), (-1.0, 7.5)])
    def test_single_lens_imaging_identity(self, m, f):
        d1, _, d2 = single_lens_system(m, f).stages
        assert abs(1.0 / d1.gdd + 1.0 / d2.gdd - 1.0 / f) < 1e-12
        assert -d2.gdd / d1.gdd == pytest.approx(m, rel=1e-12)

    @pytest.mark.parametrize("m", [0.0, 1.0])
    def test_single_lens_degenerate_magnifications(self, m):
        for build in (single_lens_system, field_lens_system):
            with pytest.raises(DesignError):
                build(m, 5.0)

    def test_field_lens_corrector_values(self):
        system = field_lens_system(-20.0, 5.0)
        assert system.stages[:3] == single_lens_system(-20.0, 5.0).stages
        assert system.stages[3].focal_gdd == pytest.approx(-100.0, rel=1e-12)

    def test_field_lens_unit_inverse(self):
        corrector = field_lens_system(-1.0, 5.0).stages[3]
        assert corrector.focal_gdd == pytest.approx(-5.0, rel=1e-12)

    def test_telescope_values(self):
        d1, lens_1, d2, lens_2, d3 = telescope_system(20.0, 5.0).stages
        assert (d1.gdd, lens_1.focal_gdd) == (5.0, 5.0)
        assert d2.gdd == pytest.approx(-95.0, rel=1e-12)
        assert lens_2.focal_gdd == pytest.approx(100.0, rel=1e-12)
        assert d3.gdd == pytest.approx(-100.0, rel=1e-12)

    def test_telescope_defining_identities(self):
        d1, lens_1, d2, lens_2, d3 = telescope_system(-7.0, 3.0).stages
        assert (d1.gdd, lens_1.focal_gdd) == (3.0, 3.0)
        assert d3.gdd == pytest.approx(-(-7.0) * 3.0, rel=1e-12)
        assert lens_2.focal_gdd == pytest.approx(-d3.gdd, rel=1e-12)
        assert d2.gdd == pytest.approx(3.0 + d3.gdd, rel=1e-12)

    def test_telescope_unit_magnification_collapses_relay(self):
        assert telescope_system(1.0, 5.0).stages[2].gdd == 0.0

    def test_telescope_zero_input_dispersion_rejected(self):
        with pytest.raises(DesignError):
            telescope_system(20.0, 0.0)


class TestResidualPhase:
    """The single-lens image phase C/(2A)*t^2 and the far-field check."""

    def test_formula_value(self):
        a, _, c, _ = transfer_matrix(single_lens_system(20.0, 5.0).stages)
        assert c / (2.0 * a) * 10.0**2 == pytest.approx(0.5, rel=1e-12)

    def test_span_value(self):
        check = check_far_field(single_lens_system(20.0, 5.0), 5.0)
        assert check.margin * math.pi == pytest.approx(12.5, rel=1e-12)

    @pytest.mark.parametrize("m,t_i,f", [(20.0, 5.0, 5.0), (-20.0, 5.0, 47.6), (8.0, 2.0, 30.0)])
    def test_span_equals_phase_at_image_half_width(self, m, t_i, f):
        system = single_lens_system(m, f)
        a, _, c, _ = transfer_matrix(system.stages)
        phase = c / (2.0 * a) * (a * t_i / 2.0) ** 2
        assert abs(phase) / math.pi == pytest.approx(
            check_far_field(system, t_i).margin, rel=1e-12
        )

    def test_far_field_pass_and_margin(self):
        single, field = (
            check_far_field(build(20.0, 1000.0), 5.0)
            for build in (single_lens_system, field_lens_system)
        )
        assert single.passed
        assert single.margin == pytest.approx(0.0625 / math.pi, rel=1e-12)
        assert field == single
        assert check_far_field(telescope_system(20.0, 5.0), 5.0).margin < 1e-12

    def test_far_field_fail_for_small_focal_gdd(self):
        single, field = (
            check_far_field(build(20.0, 5.0), 5.0)
            for build in (single_lens_system, field_lens_system)
        )
        assert not single.passed
        assert single.margin == pytest.approx(12.5 / math.pi, rel=1e-12)
        assert field == single

    def test_far_field_threshold_is_tunable(self, monkeypatch):
        # the verdict compares the margin with the module's threshold
        for build in (single_lens_system, field_lens_system):
            system = build(20.0, 5.0)
            margin = check_far_field(system, 5.0).margin
            monkeypatch.setattr(imaging_module, "FAR_FIELD_THRESHOLD_RATIO", margin)
            assert check_far_field(system, 5.0).passed
            monkeypatch.setattr(imaging_module, "FAR_FIELD_THRESHOLD_RATIO", 0.99 * margin)
            assert not check_far_field(system, 5.0).passed


def _build(kind, **options):
    build, m, sizing = KINDS[kind]
    return build(m, sizing, **options)


def _scaled(system, index, factor):
    """The system with one stage's gdd or lens pump chirp scaled by factor."""
    stage = system.stages[index]
    if isinstance(stage, DispersiveElement):
        stage = dataclasses.replace(stage, gdd=stage.gdd * factor)
    else:
        stage = dataclasses.replace(stage, focal_gdd=stage.focal_gdd * factor)
    stages = system.stages[:index] + (stage,) + system.stages[index + 1 :]
    return dataclasses.replace(system, stages=stages)


class TestTopologyAssembly:
    @pytest.mark.parametrize("kind", list(KINDS), ids=lambda kind: kind.value)
    def test_builders_match_solver_layout(self, kind):
        options = dict(
            pump_seed_fwhm=2.5, pump_carrier_nm=1600.0, tod_ratio=0.7, transmission=0.9
        )
        system = _build(kind, **options)
        down, up = ConversionDirection.DOWN, ConversionDirection.UP
        idler = converted_carrier(710.0, 1600.0, down)

        def gdd(value, label, tod=0.0):
            return DispersiveElement(gdd=value, tod=tod, transmission=0.9, label=label)

        def lens(direction, chirp, carrier, label):
            return TimeLens(
                direction=direction,
                focal_gdd=chirp,
                pump_seed_fwhm=2.5,
                input_carrier_nm=carrier,
                pump_carrier_nm=1600.0,
                label=label,
            )

        if kind is TopologyKind.TELESCOPE:
            stages = (
                gdd(5.0, "input_gdd"),
                lens(down, 5.0, 710.0, "lens_1"),
                gdd(-95.0, "relay_gdd"),
                lens(up, 100.0, idler, "lens_2"),
                gdd(-100.0, "output_gdd", tod=0.7 * -100.0),  # |D3| > |D2|
            )
            m = 20.0
        else:
            stages = (
                gdd(5.25, "input_gdd"),
                lens(down, 5.0, 710.0, "main_lens"),
                gdd(105.0, "output_gdd", tod=0.7 * 105.0),  # |D2| > |D1|
            )
            if kind is TopologyKind.FIELD_LENS:
                stages += (lens(up, -100.0, idler, "field_lens"),)
            m = -20.0
        assert system == SystemTopology(kind=kind, magnification=m, stages=stages)

    def test_field_lens_stage_order_and_labels(self):
        system = field_lens_system(-20.0, 5.0)
        trace_labels = [s.label for s in system.stages]
        assert trace_labels == ["input_gdd", "main_lens", "output_gdd", "field_lens"]
        verify_topology(system)

    def test_telescope_stage_order_and_labels(self):
        system = telescope_system(20.0, 5.0)
        trace_labels = [s.label for s in system.stages]
        assert trace_labels == ["input_gdd", "lens_1", "relay_gdd", "lens_2", "output_gdd"]
        verify_topology(system)

    def test_carrier_chain_round_trips(self):
        for system in (field_lens_system(-20.0, 5.0), telescope_system(20.0, 5.0)):
            carriers = system.stage_carriers_nm
            assert carriers[0] == pytest.approx(710.0)
            assert carriers[-1] == pytest.approx(710.0, rel=1e-12)

    def test_carriers_follow_replaced_stages(self):
        system = field_lens_system(-20.0, 5.0)
        retuned = dataclasses.replace(system.stages[3], pump_carrier_nm=1600.0)
        replaced = dataclasses.replace(system, stages=system.stages[:3] + (retuned,))
        carriers = replaced.stage_carriers_nm
        assert carriers[:3] == system.stage_carriers_nm[:3]
        assert carriers[3] == pytest.approx(retuned.output_carrier_nm, rel=1e-12)
        assert carriers[3] != pytest.approx(710.0, rel=1e-3)

    def test_tampered_chain_rejected(self):
        system = field_lens_system(-20.0, 5.0)
        bad_stages = list(system.stages)
        bad_stages[2] = DispersiveElement(gdd=99.0, label="output_gdd")
        tampered = dataclasses.replace(system, stages=tuple(bad_stages))
        with pytest.raises(DesignError):
            verify_topology(tampered)

    def test_tampered_corrector_rejected(self):
        system = field_lens_system(-20.0, 5.0)
        lens = system.stages[3]
        bad_stages = list(system.stages)
        bad_stages[3] = dataclasses.replace(lens, focal_gdd=-17.0)
        tampered = dataclasses.replace(system, stages=tuple(bad_stages))
        with pytest.raises(DesignError):
            verify_topology(tampered)

    @pytest.mark.parametrize(("kind", "index"), STAGES)
    def test_scaled_stage_rejected(self, kind, index):
        with pytest.raises(DesignError):
            verify_topology(_scaled(_build(kind), index, 1.3))

    @pytest.mark.parametrize(("kind", "index"), STAGES)
    def test_rounding_level_scaling_accepted(self, kind, index):
        verify_topology(_scaled(_build(kind), index, 1.0 + 1e-14))

    @pytest.mark.parametrize(("kind", "index"), STAGES)
    def test_missing_stage_rejected(self, kind, index):
        system = _build(kind)
        stages = system.stages[:index] + system.stages[index + 1 :]
        with pytest.raises(DesignError):
            verify_topology(dataclasses.replace(system, stages=stages))

    @pytest.mark.parametrize("kind", list(KINDS), ids=lambda kind: kind.value)
    def test_mislabelled_magnification_rejected(self, kind):
        system = _build(kind)
        for wrong in (-system.magnification, 1.3 * system.magnification):
            with pytest.raises(DesignError, match=r"A = "):
                verify_topology(dataclasses.replace(system, magnification=wrong))

    def test_telescope_object_shift_moves_the_image_by_m_squared(self):
        # The telescope's input GDD is free: D1 + 1 images flat at M = 20 once
        # D3 grows by -M^2 = -400 ps^2, as an object shift does in space.
        system = telescope_system(20.0, 5.0)
        shifted_chain = _scaled(_scaled(system, 0, 6.0 / 5.0), 4, 500.0 / 100.0)
        verify_topology(shifted_chain)
        with pytest.raises(DesignError):
            verify_topology(_scaled(system, 0, 6.0 / 5.0))

    @pytest.mark.parametrize("kind", list(KINDS), ids=lambda kind: kind.value)
    def test_lens_in_place_of_dispersion_rejected(self, kind):
        system = _build(kind)
        stages = (system.stages[1],) + system.stages[1:]
        with pytest.raises(DesignError):
            verify_topology(dataclasses.replace(system, stages=stages))


class TestRunSystem:
    def test_field_lens_image_matches_magnified_input(self):
        system = field_lens_system(-20.0, 5.0)
        pulse, trace = _run(system)
        target = magnified_copy(pulse, -20.0)
        assert abs(overlap(trace.final, target)) >= 0.999

    def test_single_lens_image_shape_right_phase_curved(self):
        system = single_lens_system(-20.0, 5.0)
        pulse, trace = _run(system)
        target = magnified_copy(pulse, -20.0)
        assert intensity_overlap(trace.final, target) >= 0.999
        c2, _ = phase_fit_quadratic(trace.final)
        expected = 1.0 / (2.0 * -20.0 * 5.0)
        assert c2 == pytest.approx(expected, rel=0.01)

    def test_telescope_image_flat_phase(self):
        system = telescope_system(20.0, 5.0)
        pulse, trace = _run(system)
        target = magnified_copy(pulse, 20.0)
        assert abs(overlap(trace.final, target)) >= 0.999
        c2, _ = phase_fit_quadratic(trace.final)
        assert abs(c2) * (20.0 * 5.0) ** 2 < 0.01

    @pytest.mark.parametrize(
        ("build", "m", "ffts"),
        [
            (single_lens_system, -20.0, 4),
            (field_lens_system, -20.0, 4),
            (telescope_system, 20.0, 6),
        ],
    )
    def test_pumped_run_makes_two_ffts_per_dispersive_stage(
        self, monkeypatch, build, m, ffts
    ):
        # a pumped lens is one closed-form multiplier: it adds no transform
        calls = []

        def counted(transform):
            def wrapper(*args, **kwargs):
                calls.append(transform)
                return transform(*args, **kwargs)

            return wrapper

        system = build(m, 5.0, pump_seed_fwhm=2.5)
        grid = plan_grid(
            system, input_extent=20.0, input_bandwidth=GAUSS_BW, n_samples=2**13
        )
        pulse = gaussian_pulse(grid, 5.0, carrier_wavelength_nm=710.0)
        monkeypatch.setattr(np.fft, "fft", counted(np.fft.fft))
        monkeypatch.setattr(np.fft, "ifft", counted(np.fft.ifft))
        run_system(pulse, system)
        assert len(calls) == ffts == 2 * len(system.dispersive_elements())

    def test_stage_trace_labels_every_stage_and_keeps_the_last(self):
        system = field_lens_system(-20.0, 5.0)
        pulse, trace = _run(system)
        assert trace.labels == ("input_gdd", "main_lens", "output_gdd", "field_lens")
        stages = list(propagate_stages(pulse, system))
        assert tuple(label for label, _ in stages) == trace.labels
        assert trace.final == stages[-1][1]
        assert trace.input is pulse and trace.magnification == -20.0
        assert {f.name for f in dataclasses.fields(trace)} == {
            "input", "labels", "final", "magnification"
        }

    def test_peak_memory_holds_two_stages(self):
        # Each stage's output is one full-size array, and a run keeps only
        # the latest, so under three waveforms are held beyond the input
        # (all five telescope stages held would be over five).  One untraced
        # run first, so numpy's FFT plans are not charged.
        system = telescope_system(20.0, 5.0, pump_seed_fwhm=2.5)
        grid = plan_grid(system, input_extent=20.0, input_bandwidth=GAUSS_BW, n_samples=2**16)
        pulse = gaussian_pulse(grid, 5.0, carrier_wavelength_nm=710.0)
        run_system(pulse, system)
        tracemalloc.start()
        try:
            run_system(pulse, system)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * pulse.samples.nbytes

    def test_ideal_runs_preserve_energy_at_every_stage(self):
        for system in (
            single_lens_system(-20.0, 5.0),
            field_lens_system(-20.0, 5.0),
            telescope_system(20.0, 5.0),
        ):
            pulse, _ = _run(system)
            e0 = energy(pulse)
            for label, env in propagate_stages(pulse, system):
                assert energy(env) == pytest.approx(e0, rel=1e-9), label

    def test_magnification_law_for_all_topologies(self):
        for system in (
            single_lens_system(-20.0, 5.0),
            field_lens_system(-20.0, 5.0),
            telescope_system(20.0, 5.0),
        ):
            pulse, trace = _run(system)
            grid_step = trace.final.grid.dt
            assert abs(fwhm(trace.final) - 20.0 * 5.0) < 2.0 * grid_step

    def test_field_lens_and_telescope_agree(self):
        field = field_lens_system(-20.0, 5.0)
        scope = telescope_system(20.0, 5.0)
        grid = plan_grid(scope, input_extent=20.0, input_bandwidth=GAUSS_BW, n_samples=2**13)
        pulse = gaussian_pulse(grid, 5.0, carrier_wavelength_nm=710.0)
        out_field = run_system(pulse, field).final
        out_scope = run_system(pulse, scope).final
        assert abs(overlap(out_field, out_scope)) >= 0.999

    def test_dispersion_scaling_leaves_ideal_image_unchanged(self):
        small = field_lens_system(-20.0, 5.0)
        double = field_lens_system(-20.0, 10.0)
        grid = plan_grid(double, input_extent=20.0, input_bandwidth=GAUSS_BW, n_samples=2**13)
        pulse = gaussian_pulse(grid, 5.0, carrier_wavelength_nm=710.0)
        out_small = run_system(pulse, small).final
        out_double = run_system(pulse, double).final
        assert abs(overlap(out_small, out_double)) >= 0.9999

    def test_field_lens_output_phase_is_flat(self):
        system = field_lens_system(-20.0, 5.0)
        _, trace = _run(system)
        assert phase_rms(trace.final) < 0.01

    def test_transmission_attenuates_cumulatively(self):
        lossy = field_lens_system(-20.0, 5.0, transmission=0.9)
        pulse, trace = _run(lossy)
        # two dispersive elements at amplitude 0.9 -> energy x 0.9^4
        assert energy(trace.final) == pytest.approx(
            energy(pulse) * 0.9**4, rel=1e-9
        )

    def test_pump_wider_than_the_window_leaves_the_stages_unchanged(self):
        # The field lens's pump, a 0.5 ps seed chirped by M*Df = -100 ps^2, is
        # 554 ps wide and keeps 0.2 of its peak at the edges of a 1200 ps
        # window; an eightfold window at the same dt holds it.  A lens only
        # multiplies, so every stage agrees on the shared sample times.
        system = field_lens_system(-20.0, 5.0, pump_seed_fwhm=0.5)
        narrow = TimeGrid(2**12, 1200.0 / 2**12)
        wide = TimeGrid(2**15, 8 * 1200.0 / 2**15)
        field_lens = system.lenses()[1]
        edge, _ = synthesize_pump(narrow, field_lens.pump_seed_fwhm, field_lens.focal_gdd)
        assert edge[0] > 0.1
        runs = [
            propagate_stages(gaussian_pulse(grid, 5.0, carrier_wavelength_nm=710.0), system)
            for grid in (narrow, wide)
        ]
        offset = (wide.n_samples - narrow.n_samples) // 2
        shared = slice(offset, offset + narrow.n_samples)
        assert np.array_equal(narrow.times, wide.times[shared])
        for (_, cut), (_, full) in zip(*runs, strict=True):
            peak = np.max(np.abs(full.samples))
            assert np.max(np.abs(cut.samples - full.samples[shared])) <= 1e-13 * peak


class TestMatrixMatchesKernels:
    """transfer_matrix's image phase C/(2A)*t^2 is the curvature that the lens
    kernels put on a flat-phase input."""

    @staticmethod
    def _residual(stages):
        a, _, c, _ = transfer_matrix(stages)
        return c / (2.0 * a)

    @pytest.mark.parametrize("direction", list(ConversionDirection), ids=lambda d: d.name)
    def test_lone_lens(self, direction):
        lens = TimeLens(direction, 5.0)
        pulse = gaussian_pulse(
            TimeGrid(2**13, 0.02), 5.0, carrier_wavelength_nm=lens.input_carrier_nm
        )
        c2, _ = phase_fit_quadratic(apply_time_lens(pulse, lens))
        assert c2 == pytest.approx(self._residual([lens]), rel=1e-9)

    @pytest.mark.parametrize("m", [-20.0, 20.0, -7.5])
    def test_single_lens_image(self, m):
        system = single_lens_system(m, 5.0)
        _, trace = _run(system, n_samples=2**15)
        c2, _ = phase_fit_quadratic(trace.final)
        assert c2 == pytest.approx(self._residual(system.stages), rel=1e-9)


class TestStageErrors:
    """A physics error inside ``run_system`` names its stage's index and label."""

    @staticmethod
    def _pulse(window, carrier_nm=710.0):
        grid = TimeGrid(2**12, window / 2**12)
        return gaussian_pulse(grid, fwhm=5.0, carrier_wavelength_nm=carrier_nm)

    def test_dispersion_overflow(self):
        # 105 ps^2 of output GDD stretches the image past a 60 ps window
        with pytest.raises(WindowOverflowError, match=r"^stage 3 \(output_gdd\): "):
            run_system(self._pulse(60.0), field_lens_system(-20.0, 5.0))

    def test_carrier_mismatch(self):
        with pytest.raises(CarrierMismatchError, match=r"^stage 2 \(main_lens\): "):
            run_system(self._pulse(400.0, carrier_nm=800.0), field_lens_system(-20.0, 5.0))

    def test_original_error_is_the_cause(self):
        with pytest.raises(WindowOverflowError) as info:
            run_system(self._pulse(60.0), field_lens_system(-20.0, 5.0))
        assert type(info.value.__cause__) is WindowOverflowError
        assert str(info.value) == f"stage 3 (output_gdd): {info.value.__cause__}"

    def test_stages_before_the_failing_one_are_yielded(self):
        stages = propagate_stages(self._pulse(60.0), field_lens_system(-20.0, 5.0))
        assert [label for label, _ in itertools.islice(stages, 2)] == [
            "input_gdd", "main_lens"
        ]
        with pytest.raises(WindowOverflowError, match=r"^stage 3 \(output_gdd\): "):
            next(stages)

    def test_topology_is_verified_before_the_first_stage(self):
        system = field_lens_system(-20.0, 5.0)
        tampered = dataclasses.replace(system, magnification=-19.0)
        with pytest.raises(DesignError, match="does not image"):
            next(propagate_stages(self._pulse(400.0), tampered))


class TestPlanGrid:
    def test_window_covers_stretch_and_magnification(self):
        system = field_lens_system(-20.0, 5.0)
        grid = plan_grid(system, input_extent=20.0, input_bandwidth=GAUSS_BW)
        spread = sum(abs(e.gdd) for e in system.dispersive_elements()) * GAUSS_BW
        assert grid.window >= 4.0 * (20.0 * 20.0 + spread)

    def test_explicit_window_override(self):
        system = field_lens_system(-20.0, 5.0)
        grid = plan_grid(system, input_extent=20.0, input_bandwidth=GAUSS_BW, window=1234.0)
        assert grid.window == 1234.0  # N is a power of two

    def test_pumped_lens_enlarges_window(self):
        ideal = field_lens_system(-20.0, 47.619)
        pumped = field_lens_system(-20.0, 47.619, pump_seed_fwhm=2.5)
        g_ideal = plan_grid(ideal, input_extent=35.0, input_bandwidth=GAUSS_BW)
        g_pumped = plan_grid(pumped, input_extent=35.0, input_bandwidth=GAUSS_BW)
        assert g_pumped.window >= g_ideal.window
