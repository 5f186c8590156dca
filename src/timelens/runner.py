"""Scenario execution: simulate, design, and sweep runs with file artifacts.

A simulation is computed first and rendered second.  Its image is compared
with the ideal image, which the input's own pulse constructor builds from
:meth:`InputSpec.imaged`: exact up to a global phase and 1/sqrt(|M|), which
the normalized overlaps ignore.  ``simulate`` writes a ``report.json`` plus
one ``.npy`` file per stage and analyzer port: the envelope's complex128
samples exactly as computed, with the times left to the report's ``grid``
block.  ``sweep`` renders only ``sweep.csv`` and its report, and its
points that differ only in ``analysis.analyzer_phase`` share one
propagation.  Text artifacts are rendered before anything touches disk.
Waveforms are not rendered to bytes first: each ``.npy`` file is written
from its envelope's own sample array, so no waveform is held twice.  The
two analyzer ports are formed whole only here, from the visibility
experiment's delayed copy.
Floats in text artifacts are written with ``repr``, so every artifact is
bit-identical across repeated runs of the same scenario on one numpy build
and CPU, and reads back to the same doubles.
"""

from __future__ import annotations

import io
import json
from dataclasses import asdict, replace
from pathlib import Path
from typing import NamedTuple

from ._numpy import np
from .design import requirements
from .elements import stretched_pump_fwhm
from .envelope import (
    LN2,
    SampledEnvelope,
    _peak_magnitude,
    boundary_leakage,
    energy,
    fwhm,
    gaussian_pulse,
    intensity_overlap,
    overlap,
    phase_fit_quadratic,
    phase_rms,
    time_bin_pulse,
)
from .errors import (
    AT_LEAST_ONE,
    FINITE,
    DegenerateInputError,
    InsufficientSupportError,
    ScenarioSemanticError,
    UndersampledError,
    WindowOverflowError,
    require,
)
from .grid import TimeGrid
from .imaging import (
    SystemTopology,
    TopologyKind,
    assemble_system,
    check_far_field,
    plan_grid,
    propagate_stages,
    run_system,  # noqa: F401  (perfbench's tracer patches runner.run_system)
    sizing_divisor,
)
from .interferometry import (
    InterferenceResult,
    _window_energy,
    analyzer_port,
    visibility_experiment,
)
from .scenario import InputSpec, Scenario, SystemSpec, key_spec, parse_scenario


def _csv(columns: list[str], rows) -> str:
    """CSV text: a header of ``columns``, then one line per row.  Strings pass
    through, None is written ``nan`` and numbers as ``repr(float(v))``."""

    def cell(v) -> str:
        return v if isinstance(v, str) else "nan" if v is None else repr(float(v))

    lines = [",".join(columns), *(",".join(map(cell, row)) for row in rows)]
    return "\n".join(lines) + "\n"


def _with_report(report: dict, files: dict) -> tuple[dict, dict]:
    """``report`` with its ``artifacts`` list, every file name and
    ``report.json`` first, and ``files`` with ``report.json`` rendered."""
    report["artifacts"] = ["report.json", *files]
    files["report.json"] = json.dumps(report, indent=2) + "\n"
    return report, files


def build_topology(system: SystemSpec) -> SystemTopology:
    """Materialize a system from its scenario section."""
    if system.largest_gdd is not None:
        sizing = system.largest_gdd / sizing_divisor(
            system.topology, system.magnification
        )
    else:  # the parser admits exactly one of focal_gdd / input_gdd
        sizing = system.focal_gdd if system.focal_gdd is not None else system.input_gdd
    return assemble_system(
        system.topology,
        system.magnification,
        sizing,
        pump_seed_fwhm=system.pump_seed_fwhm,
        input_carrier_nm=system.input_carrier_nm,
        pump_carrier_nm=system.pump_carrier_nm,
        tod_ratio=system.tod_ratio,
        transmission=system.transmission,
    )


def build_input(spec: InputSpec, grid: TimeGrid, carrier: float) -> SampledEnvelope:
    if spec.kind == "gaussian":
        return gaussian_pulse(
            grid, spec.fwhm, center=spec.center, carrier_wavelength_nm=carrier
        )
    return time_bin_pulse(
        grid, spec.bin_fwhm, spec.bin_separation, spec.relative_phase, carrier
    )


def plan_scenario_grid(scenario: Scenario, topology: SystemTopology) -> TimeGrid:
    spec = scenario.input
    return plan_grid(
        topology,
        input_extent=spec.extent,
        input_bandwidth=4.0 * LN2 / spec.feature_fwhm,
        analyzer_delay=scenario.analyzer_delay or 0.0,
        n_samples=scenario.grid.n_samples,
        margin=scenario.grid.margin,
        window=scenario.grid.window,
    )


def waveform_csv(env: SampledEnvelope) -> str:
    """CSV rendering ``t_ps,re,im,intensity`` with repr-exact floats."""
    rows = (
        (t, c.real, c.imag, c.real * c.real + c.imag * c.imag)
        for t, c in zip(env.times.tolist(), env.samples.tolist())
    )
    return _csv(["t_ps", "re", "im", "intensity"], rows)


def waveform_npy(env: SampledEnvelope) -> bytes:
    """``.npy`` bytes of the envelope's 1-D complex128 samples; no times."""
    buffer = io.BytesIO()
    np.save(buffer, env.samples, allow_pickle=False)
    return buffer.getvalue()


def read_waveform_npy(
    data: bytes, grid: TimeGrid, carrier_nm: float | None = None
) -> SampledEnvelope:
    """Inverse of :func:`waveform_npy`; ``grid`` is the report's ``grid`` block
    ``g`` as ``TimeGrid(g["n_samples"], g["dt_ps"])``.  Raises ValueError when
    the samples do not have the grid's shape."""
    samples = np.load(io.BytesIO(data), allow_pickle=False)
    return SampledEnvelope(grid, samples, carrier_nm)


def _stage_entry(label: str, env: SampledEnvelope) -> dict:
    try:
        width: float | None = fwhm(env)
    except DegenerateInputError:
        width = None
    peak = _peak_magnitude(env)
    return {
        "label": label,
        "carrier_nm": (
            None
            if env.carrier_wavelength_nm is None
            else float(env.carrier_wavelength_nm)
        ),
        "energy": float(energy(env)),
        "fwhm_ps": None if width is None else float(width),
        "peak_intensity": peak * peak,
        "boundary_leakage": float(boundary_leakage(env)),
    }


def _dispersion_summary(topology: SystemTopology) -> dict:
    summary: dict[str, float] = {}
    for element in topology.dispersive_elements():
        summary[f"{element.label}_ps2"] = float(element.gdd)
        if element.tod != 0.0:
            summary[f"{element.label}_tod_ps3"] = float(element.tod)
    for lens in topology.lenses():
        summary[f"{lens.label}_pump_chirp_ps2"] = float(lens.focal_gdd)
    return summary


def _image_metrics(
    image: SampledEnvelope, ideal: InputSpec, entry: dict, phase_fit_window: float
) -> dict:
    """Image block of the report: ``image`` against the pulse of its
    ``ideal`` spec on its grid; ``entry`` is the final stage's
    :func:`_stage_entry`."""
    try:
        target = build_input(ideal, image.grid, image.carrier_wavelength_nm)
    except (UndersampledError, WindowOverflowError) as exc:
        raise type(exc)(f"ideal image: {exc}") from exc
    metrics = {
        "fwhm_ps": entry["fwhm_ps"],
        "energy": entry["energy"],
        "carrier_nm": entry["carrier_nm"],
        "intensity_overlap_with_ideal": float(intensity_overlap(image, target)),
        "fidelity_to_ideal": float(abs(overlap(image, target)) ** 2),
    }
    try:
        curvature, fit_rms = phase_fit_quadratic(image, phase_fit_window)
        metrics["residual_phase_curvature_rad_per_ps2"] = float(curvature)
        metrics["phase_fit_rms_rad"] = float(fit_rms)
        metrics["phase_rms_rad"] = float(phase_rms(image, phase_fit_window))
    except InsufficientSupportError:
        metrics["residual_phase_curvature_rad_per_ps2"] = None
        metrics["phase_fit_rms_rad"] = None
        metrics["phase_rms_rad"] = None
    return metrics


class _Run(NamedTuple):
    """What a simulation computes before any artifact is rendered."""

    report: dict  # report.json payload, less single_port and artifacts
    # every envelope in artifact order: ("input", input), then each stage's
    stages: tuple[tuple[str, SampledEnvelope], ...]
    interference: InterferenceResult | None  # None: visibility disabled

    @property
    def image(self) -> SampledEnvelope:
        return self.stages[-1][1]


def _compute(scenario: Scenario) -> _Run:
    """Propagate a scenario and build its report; ``analyzer_phase`` is not read."""
    if not scenario.simulatable:
        raise ScenarioSemanticError(
            [(0, "simulate needs [input] and [system] sections")]
        )
    system, spec = scenario.system, scenario.input
    topology = build_topology(system)
    grid = plan_scenario_grid(scenario, topology)
    source = build_input(spec, grid, system.input_carrier_nm)
    waveforms = (("input", source), *propagate_stages(source, topology))
    image = waveforms[-1][1]

    input_block = {
        "kind": spec.kind,
        "carrier_nm": float(system.input_carrier_nm),
        "energy": float(energy(source)),
        "fwhm_ps": float(fwhm(source)),
    }
    if spec.kind == "gaussian":
        input_block["gaussian_fwhm_ps"] = float(spec.fwhm)
        input_block["center_ps"] = float(spec.center)
    else:
        input_block["bin_fwhm_ps"] = float(spec.bin_fwhm)
        input_block["bin_separation_ps"] = float(spec.bin_separation)
        input_block["relative_phase_rad"] = float(spec.relative_phase)

    stages = [_stage_entry(label, env) for label, env in waveforms[1:]]
    ideal = spec.imaged(system.magnification)
    report: dict = {
        "subcommand": "simulate",
        "topology": topology.kind.value,
        "magnification": float(system.magnification),
        "pump": (
            {"mode": "ideal"}
            if system.pump_seed_fwhm is None
            else {
                "mode": "pumped",
                "seed_fwhm_ps": float(system.pump_seed_fwhm),
                "carrier_nm": float(system.pump_carrier_nm),
                "stretched_fwhm_ps": {
                    lens.label: float(
                        stretched_pump_fwhm(lens.pump_seed_fwhm, lens.focal_gdd)
                    )
                    for lens in topology.lenses()
                },
            }
        ),
        "dispersion": _dispersion_summary(topology),
        "grid": {
            "n_samples": grid.n_samples,
            "dt_ps": float(grid.dt),
            "t0_ps": float(grid.t0),
            "window_ps": float(grid.window),
        },
        "input": input_block,
        "stages": stages,
        "image": _image_metrics(
            image, ideal, stages[-1], scenario.analysis.phase_fit_window
        ),
    }
    if topology.kind is not TopologyKind.TELESCOPE:
        ff = check_far_field(topology, spec.duration)
        report["far_field"] = {
            "input_duration_ps": float(spec.duration),
            "margin": ff.margin,
            "passed": ff.passed,
        }

    result = None
    analyzer_delay = scenario.analyzer_delay
    if analyzer_delay is not None:
        result = visibility_experiment(
            image,
            bin_separation=analyzer_delay,
            relative_phase=ideal.relative_phase,
            metric=scenario.analysis.metric,
        )
        report["interference"] = {
            "analyzer_delay_ps": float(analyzer_delay),
            "prepared_phase_rad": float(spec.relative_phase),
            "image_frame_phase_rad": float(ideal.relative_phase),
            "metric": result.metric,
            "window_ps": [float(x) for x in result.window],
            "constructive_energy": float(result.constructive_energy),
            "destructive_energy": float(result.destructive_energy),
            "visibility": float(result.visibility),
        }
    return _Run(report, waveforms, result)


def _central_energy(run: _Run, phase: float) -> float:
    """Energy of the single analyzer port at ``phase`` inside the central window."""
    result = run.interference
    return _window_energy(run.image, result.delayed, phase, result.window, "energy")


def run_simulate(scenario: Scenario) -> tuple[dict, dict[str, str | np.ndarray]]:
    """Execute a simulation scenario.

    Returns:
        (report, files): the ``report.json`` payload and a name -> content
        map of every artifact: the rendered report itself, and each ``.npy``
        file as its envelope's own read-only samples, which
        :func:`write_artifacts` saves as :func:`waveform_npy` would.
    """
    run = _compute(scenario)
    report, phase = run.report, scenario.analysis.analyzer_phase
    if run.interference is not None and phase is not None:
        report["single_port"] = {
            "analyzer_phase_rad": float(phase),
            "central_energy": _central_energy(run, phase),
        }

    stages = enumerate(run.stages)
    files = {f"stage_{i:02d}_{label}.npy": env.samples for i, (label, env) in stages}
    if run.interference is not None:
        # the phases visibility_experiment integrated the ports at
        con = report["interference"]["image_frame_phase_rad"]
        for port, port_phase in (("constructive", con), ("destructive", con + np.pi)):
            env = analyzer_port(run.image, run.interference.delayed, port_phase)
            files[f"analyzer_{port}.npy"] = env.samples

    return _with_report(report, files)


def run_design(scenario: Scenario) -> tuple[dict, dict[str, str]]:
    if scenario.design is None:
        raise ScenarioSemanticError([(0, "design needs a [design] section")])
    request = scenario.design
    result = requirements(request)
    entries = [asdict(e) for e in result.entries]
    report: dict = {
        "subcommand": "design",
        "configuration": request.configuration.value,
        "input_fwhm_ps": float(request.input_fwhm),
        "bandwidth_rad_per_ps": float(request.bandwidth),
        "magnification": float(request.magnification),
        "far_field_multiplier": float(request.far_field_multiplier),
        "entries": entries,
        "footnotes": list(result.footnotes),
    }
    return _with_report(
        report, {"design.csv": _csv(list(entries[0]), [e.values() for e in entries])}
    )


#: The rules :func:`sweep_values` enforces on its range.
SWEEP_RULES = {"start": FINITE, "stop": FINITE, "count": AT_LEAST_ONE}


def sweep_values(start: float, stop: float, count: int) -> list[float]:
    """Inclusive, evenly spaced sweep grid; raises ValueError naming a
    value that breaks its rule in :data:`SWEEP_RULES`."""
    require(ValueError, SWEEP_RULES, start=start, stop=stop, count=count)
    return [float(v) for v in np.linspace(start, stop, count)]


def run_sweep(
    text: str, param: str, values: list[float]
) -> tuple[dict, dict[str, str]]:
    """Re-run a simulation scenario over a one-parameter grid.

    Each point is parsed once, with ``param`` (a ``section.key`` path)
    overridden, before any propagates, so per-point validation and derived
    defaults (grid, analyzer delay) stay in force.  Rows are ordered by
    parameter value.  No waveform is rendered; consecutive points that
    differ only in ``analysis.analyzer_phase`` share one propagation.
    """
    spec = key_spec(param)
    if spec is None or spec.kind not in ("float", "int"):
        raise ScenarioSemanticError(
            [(0, f"sweep parameter {param!r} is not a numeric scenario key")]
        )
    points = [parse_scenario(text, overrides={param: value}) for value in values]
    # The first point decides the columns, so that a sweep of
    # analysis.analyzer_phase reports the central energy it changes.
    head = points[0] if points else parse_scenario(text)
    if not head.simulatable:
        raise ScenarioSemanticError(
            [(0, "sweep needs a simulation scenario ([input] and [system])")]
        )
    unit_suffix = "" if spec.unit is None else "_" + spec.unit.replace("/", "_per_")
    param_column = param.replace(".", "_") + unit_suffix

    columns = [param_column, "output_fwhm_ps", "output_energy"]
    visibility = head.analyzer_delay is not None
    phased = visibility and head.analysis.analyzer_phase is not None
    if visibility:
        columns += ["visibility", "constructive_energy", "destructive_energy"]
        if phased:
            columns.append("central_energy")
    for value, scenario in zip(values, points):
        if (scenario.analyzer_delay is not None) != visibility:
            switched = "disabled" if visibility else "enabled"
            raise ScenarioSemanticError(
                [(0, f"sweep point {param}={value!r} {switched} the "
                     "visibility analysis; fix the scenario or the range")]
            )

    rows: list[tuple[float, list[float]]] = []
    key = run = None
    for value, scenario in zip(values, points):
        # Keeping only the latest run bounds memory to one trace; on a sorted
        # grid, equal keys are consecutive anyway.
        unphased = replace(scenario.analysis, analyzer_phase=None)
        point_key = replace(scenario, analysis=unphased)
        if point_key != key:
            key, run = point_key, _compute(scenario)
        row = [value, run.report["image"]["fwhm_ps"], run.report["image"]["energy"]]
        if visibility:
            interference = run.report["interference"]
            row += [
                interference["visibility"],
                interference["constructive_energy"],
                interference["destructive_energy"],
            ]
            if phased:
                row.append(_central_energy(run, scenario.analysis.analyzer_phase))
        rows.append((value, row))
    rows.sort(key=lambda pair: pair[0])

    report = {
        "subcommand": "sweep",
        "param": param,
        "values": [float(v) for v in sorted(values)],
        "columns": columns,
        "n_points": len(values),
    }
    return _with_report(report, {"sweep.csv": _csv(columns, [row for _, row in rows])})


def write_artifacts(out_dir: Path, files: dict[str, str | np.ndarray]) -> list[Path]:
    """Write every artifact, removing all of them, and the directories this
    call made, if any write fails.

    Text is written as it is; an array is saved in ``.npy`` format straight
    from its memory, the bytes :func:`waveform_npy` gives.
    """
    made = [path for path in (out_dir, *out_dir.parents) if not path.exists()]
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    try:
        for name, content in files.items():
            path = out_dir / name
            with path.open("wb") as handle:
                written.append(path)
                if isinstance(content, str):  # text needs no numpy
                    handle.write(content.encode())
                else:
                    np.save(handle, content, allow_pickle=False)
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        for path in made:
            path.rmdir()
        raise
    return written
