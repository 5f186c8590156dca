"""Scenario execution: simulate, design, and sweep runs with file artifacts.

A simulation is computed first and rendered second.  ``simulate`` writes a
``report.json`` plus one ``.npy`` file per stage and analyzer port: the
envelope's complex128 samples exactly as computed, with the times left to the
report's ``grid`` block.  ``sweep`` renders only ``sweep.csv`` and its report,
and its points that differ only in ``analysis.analyzer_phase`` share one
propagation.  Artifacts are rendered before anything touches disk.  Floats in
text artifacts are written with ``repr``, so every artifact is bit-identical
across repeated runs of the same scenario on one numpy build and CPU, and
reads back to the same doubles.
"""

from __future__ import annotations

import io
import json
from dataclasses import asdict, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .design import DesignRequest, pump_bandwidth, requirements
from .elements import stretched_pump_fwhm
from .envelope import (
    LN2,
    SampledEnvelope,
    boundary_leakage,
    energy,
    fwhm,
    gaussian_pulse,
    intensity_overlap,
    magnified_copy,
    overlap,
    phase_fit_quadratic,
    phase_rms,
    time_bin_pulse,
)
from .errors import (
    DegenerateInputError,
    InsufficientSupportError,
    ScenarioSemanticError,
)
from .grid import TimeGrid
from .imaging import (
    StageTrace,
    SystemTopology,
    TopologyKind,
    assemble_system,
    check_far_field,
    plan_grid,
    run_system,
    sizing_divisor,
)
from .interferometry import (
    InterferenceResult,
    _window_energy,
    analyzer_port,
    visibility_experiment,
)
from .scenario import Scenario, SystemSpec, key_spec, parse_scenario


def _csv(columns: list[str], rows) -> str:
    """CSV text: a header of ``columns``, then one line per row.  Strings pass
    through, None is written ``nan`` and numbers as ``repr(float(v))``."""

    def cell(v) -> str:
        return v if isinstance(v, str) else "nan" if v is None else repr(float(v))

    lines = [",".join(columns), *(",".join(map(cell, row)) for row in rows)]
    return "\n".join(lines) + "\n"


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


def build_input(scenario: Scenario, grid: TimeGrid) -> SampledEnvelope:
    spec = scenario.input
    carrier = scenario.system.input_carrier_nm
    if spec.kind == "gaussian":
        return gaussian_pulse(
            grid, spec.fwhm, center=spec.center, carrier_wavelength_nm=carrier
        )
    return time_bin_pulse(
        grid,
        spec.bin_fwhm,
        spec.bin_separation,
        relative_phase=spec.relative_phase,
        carrier_wavelength_nm=carrier,
    )


def _resolve_analysis(scenario: Scenario) -> tuple[bool, float]:
    """(visibility enabled, analyzer delay in ps; 0 when disabled)."""
    analysis = scenario.analysis
    spec = scenario.input
    enabled = (
        analysis.visibility
        if analysis.visibility is not None
        else spec.kind == "time-bin"
    )
    if spec.kind == "time-bin" and spec.bin_separation == 0.0:
        enabled = False  # coincident bins leave nothing to interfere
    if not enabled:
        return False, 0.0
    delay = analysis.analyzer_delay
    if delay is None:
        delay = abs(scenario.system.magnification) * spec.bin_separation
    return True, delay


def plan_scenario_grid(
    scenario: Scenario, topology: SystemTopology, analyzer_delay: float
) -> TimeGrid:
    spec = scenario.input
    return plan_grid(
        topology,
        input_extent=spec.extent,
        input_bandwidth=4.0 * LN2 / spec.feature_fwhm,
        analyzer_delay=analyzer_delay,
        n_samples=scenario.grid.n_samples,
        margin=scenario.grid.margin,
        window=scenario.grid.window,
    )


def waveform_csv(env: SampledEnvelope) -> str:
    """CSV rendering ``t_ps,re,im,intensity`` with repr-exact floats."""
    rows = ["t_ps,re,im,intensity"]
    for t, c in zip(env.times, env.samples):
        re, im = float(c.real), float(c.imag)
        rows.append(f"{float(t)!r},{re!r},{im!r},{re * re + im * im!r}")
    return "\n".join(rows) + "\n"


def waveform_npy(env: SampledEnvelope) -> bytes:
    """``.npy`` bytes of the envelope's 1-D complex128 samples; no times."""
    buffer = io.BytesIO()
    np.save(buffer, env.samples, allow_pickle=False)
    return buffer.getvalue()


def read_waveform_npy(
    data: bytes, grid: TimeGrid, carrier_nm: float | None = None
) -> SampledEnvelope:
    """Inverse of :func:`waveform_npy`; ``grid`` is the report's ``grid`` block
    ``g`` as ``TimeGrid(g["n_samples"], g["dt_ps"], g["t0_ps"])``.  Raises
    ValueError when the samples do not have the grid's shape."""
    samples = np.load(io.BytesIO(data), allow_pickle=False)
    return SampledEnvelope(grid, samples, carrier_nm)


def _stage_entry(label: str, env: SampledEnvelope) -> dict:
    try:
        width: float | None = fwhm(env)
    except DegenerateInputError:
        width = None
    return {
        "label": label,
        "carrier_nm": (
            None
            if env.carrier_wavelength_nm is None
            else float(env.carrier_wavelength_nm)
        ),
        "energy": float(energy(env)),
        "fwhm_ps": None if width is None else float(width),
        "peak_intensity": float(env.intensity.max()),
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
    trace: StageTrace, phase_fit_window: float
) -> dict:
    image = trace.final
    target = magnified_copy(trace.input, trace.magnification)
    entry = _stage_entry("image", image)
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
    env_in: SampledEnvelope
    trace: StageTrace
    interference: InterferenceResult | None  # None: visibility disabled


def _compute(scenario: Scenario) -> _Run:
    """Propagate a scenario and build its report; ``analyzer_phase`` is not read."""
    if not scenario.simulatable:
        raise ScenarioSemanticError(
            [(0, "simulate needs [input] and [system] sections")]
        )
    system = scenario.system
    topology = build_topology(system)
    vis_enabled, analyzer_delay = _resolve_analysis(scenario)
    grid = plan_scenario_grid(scenario, topology, analyzer_delay)
    env_in = build_input(scenario, grid)
    trace = run_system(env_in, topology)

    spec = scenario.input
    input_block = {
        "kind": spec.kind,
        "carrier_nm": float(system.input_carrier_nm),
        "energy": float(energy(env_in)),
        "fwhm_ps": float(fwhm(env_in)),
    }
    if spec.kind == "gaussian":
        input_block["gaussian_fwhm_ps"] = float(spec.fwhm)
        input_block["center_ps"] = float(spec.center)
    else:
        input_block["bin_fwhm_ps"] = float(spec.bin_fwhm)
        input_block["bin_separation_ps"] = float(spec.bin_separation)
        input_block["relative_phase_rad"] = float(spec.relative_phase)

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
        "stages": [_stage_entry(label, env) for label, env in trace.steps],
        "image": _image_metrics(trace, scenario.analysis.phase_fit_window),
    }
    if topology.kind is not TopologyKind.TELESCOPE:
        main = topology.lenses()[0]
        t_i = spec.fwhm if spec.kind == "gaussian" else (
            spec.bin_separation + spec.bin_fwhm
        )
        ff = check_far_field(system.magnification, t_i, main.focal_gdd)
        report["far_field"] = {
            "input_duration_ps": float(t_i),
            "margin": ff.margin,
            "passed": ff.passed,
        }

    result = None
    if vis_enabled:
        psi = spec.relative_phase
        image_phase = psi if system.magnification > 0 else -psi
        result = visibility_experiment(
            trace.final,
            bin_separation=analyzer_delay,
            relative_phase=image_phase,
            metric=scenario.analysis.metric,
        )
        report["interference"] = {
            "analyzer_delay_ps": float(analyzer_delay),
            "prepared_phase_rad": float(psi),
            "image_frame_phase_rad": float(image_phase),
            "metric": result.metric,
            "outer_peaks_ps": [float(x) for x in result.outer_peaks],
            "window_ps": [float(x) for x in result.window],
            "constructive_energy": float(result.constructive_energy),
            "destructive_energy": float(result.destructive_energy),
            "visibility": float(result.visibility),
        }
    return _Run(report, env_in, trace, result)


def _central_energy(run: _Run, phase: float) -> float:
    """Energy of the single analyzer port at ``phase`` inside the central window."""
    port = analyzer_port(run.trace.final, run.interference.delayed, phase)
    return _window_energy(port, run.interference.window, "energy")


def run_simulate(scenario: Scenario) -> tuple[dict, dict[str, str | bytes]]:
    """Execute a simulation scenario.

    Returns:
        (report, files): the ``report.json`` payload and a name -> content
        map of every artifact, including the rendered report itself.
    """
    run = _compute(scenario)
    report, phase = run.report, scenario.analysis.analyzer_phase
    if run.interference is not None and phase is not None:
        report["single_port"] = {
            "analyzer_phase_rad": float(phase),
            "central_energy": _central_energy(run, phase),
        }

    stages = enumerate([("input", run.env_in), *run.trace.steps])
    files = {f"stage_{i:02d}_{label}.npy": waveform_npy(env) for i, (label, env) in stages}
    if run.interference is not None:
        for port in ("constructive", "destructive"):
            files[f"analyzer_{port}.npy"] = waveform_npy(getattr(run.interference, port))

    report["artifacts"] = ["report.json", *files]
    files["report.json"] = json.dumps(report, indent=2) + "\n"
    return report, files


def run_design(scenario: Scenario) -> tuple[dict, dict[str, str]]:
    if scenario.design is None:
        raise ScenarioSemanticError([(0, "design needs a [design] section")])
    spec = scenario.design
    request = DesignRequest(
        input_fwhm=spec.input_fwhm,
        bandwidth=spec.bandwidth,
        magnification=spec.magnification,
        configuration=spec.configuration,
    )
    result = requirements(request, far_field_multiplier=spec.far_field_multiplier)
    entries = [asdict(e) for e in result.entries]
    report: dict = {
        "subcommand": "design",
        "configuration": spec.configuration.value,
        "input_fwhm_ps": float(spec.input_fwhm),
        "bandwidth_rad_per_ps": float(spec.bandwidth),
        "magnification": float(spec.magnification),
        "far_field_multiplier": float(spec.far_field_multiplier),
        "pump_bandwidth_rad_per_ps": float(
            pump_bandwidth(spec.input_fwhm, spec.input_fwhm / spec.bandwidth)
        ),
        "entries": entries,
        "footnotes": list(result.footnotes),
        "artifacts": ["report.json", "design.csv"],
    }
    files = {"design.csv": _csv(list(entries[0]), [e.values() for e in entries])}
    files["report.json"] = json.dumps(report, indent=2) + "\n"
    return report, files


def sweep_values(start: float, stop: float, count: int) -> list[float]:
    """Inclusive, evenly spaced sweep grid."""
    if count < 1:
        raise ValueError(f"sweep needs at least one point, got {count}")
    return [float(v) for v in np.linspace(start, stop, count)]


def run_sweep(
    text: str, param: str, values: list[float]
) -> tuple[dict, dict[str, str]]:
    """Re-run a simulation scenario over a one-parameter grid.

    Each point re-parses the scenario with ``param`` (a ``section.key``
    path) overridden, so per-point validation and derived defaults (grid,
    analyzer delay) stay in force.  Rows are ordered by parameter value.
    No waveform is rendered; consecutive points that differ only in
    ``analysis.analyzer_phase`` share one propagation.
    """
    spec = key_spec(param)
    if spec is None or spec.kind not in ("float", "int"):
        raise ScenarioSemanticError(
            [(0, f"sweep parameter {param!r} is not a numeric scenario key")]
        )
    # The first point's override decides the columns, so that a sweep of
    # analysis.analyzer_phase reports the central energy it changes.
    head = parse_scenario(text, overrides={param: values[0]} if values else None)
    if not head.simulatable:
        raise ScenarioSemanticError(
            [(0, "sweep needs a simulation scenario ([input] and [system])")]
        )
    unit_suffix = "" if spec.unit is None else "_" + spec.unit.replace("/", "_per_")
    param_column = param.replace(".", "_") + unit_suffix

    columns = [param_column, "output_fwhm_ps", "output_energy"]
    visibility, _ = _resolve_analysis(head)
    phased = visibility and head.analysis.analyzer_phase is not None
    if visibility:
        columns += ["visibility", "constructive_energy", "destructive_energy"]
        if phased:
            columns.append("central_energy")

    rows: list[tuple[float, list[float]]] = []
    key = run = None
    for value in values:
        scenario = parse_scenario(text, overrides={param: value})
        # Keeping only the latest run bounds memory to one trace; on a sorted
        # grid, equal keys are consecutive anyway.
        unphased = replace(scenario.analysis, analyzer_phase=None)
        point_key = replace(scenario, analysis=unphased)
        if point_key != key:
            key, run = point_key, _compute(scenario)
        interference = run.report.get("interference")
        if (interference is not None) != visibility:
            switched = "disabled" if visibility else "enabled"
            raise ScenarioSemanticError(
                [(0, f"sweep point {param}={value!r} {switched} the "
                     "visibility analysis; fix the scenario or the range")]
            )
        row = [value, run.report["image"]["fwhm_ps"], run.report["image"]["energy"]]
        if visibility:
            row += [
                interference["visibility"],
                interference["constructive_energy"],
                interference["destructive_energy"],
            ]
            if phased:
                row.append(_central_energy(run, scenario.analysis.analyzer_phase))
        rows.append((value, row))
    rows.sort(key=lambda pair: pair[0])

    files = {"sweep.csv": _csv(columns, [row for _, row in rows])}
    report = {
        "subcommand": "sweep",
        "param": param,
        "values": [float(v) for v in sorted(values)],
        "columns": columns,
        "n_points": len(values),
        "artifacts": ["report.json", "sweep.csv"],
    }
    files["report.json"] = json.dumps(report, indent=2) + "\n"
    return report, files


def write_artifacts(out_dir: Path, files: dict[str, str | bytes]) -> list[Path]:
    """Write every artifact, text or bytes, removing all of them if any write fails."""
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    try:
        for name, content in files.items():
            path = out_dir / name
            path.write_bytes(content if isinstance(content, bytes) else content.encode())
            written.append(path)
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        raise
    return written
