"""Simulation and design toolkit for aberration-corrected temporal imaging.

Temporal imaging stretches or compresses optical waveforms in time the way a
lens system magnifies a scene in space: group-delay dispersion plays the role
of free-space diffraction, and a "time lens" — a parametric frequency
converter driven by a linearly chirped pump — imprints the quadratic phase of
a lens.  This package simulates three system topologies (a single-lens
imager, the same with an image-plane field-lens corrector, and a two-lens
telescope), computes per-element dispersion/bandwidth requirements for a
target waveform, and runs time-bin interference experiments (how well two
delayed wavepackets still interfere after magnification).

Quick start::

    from timelens import field_lens_system, gaussian_pulse, plan_grid, run_system

    system = field_lens_system(magnification=-20.0, focal_gdd=47.619)
    grid = plan_grid(system, input_extent=20.0, input_bandwidth=0.6)
    pulse = gaussian_pulse(grid, fwhm=5.0, carrier_wavelength_nm=710.0)
    image = run_system(pulse, system).final

or, from a shell::

    timelens simulate scenario.scn --out results/
"""

from importlib import import_module

__version__ = "0.1.0"

#: Each public name and the submodule that defines it.  A name is looked up
#: in its submodule on every access, so ``import timelens`` loads nothing
#: until one is used, and a patched module attribute is what the package
#: returns.
_EXPORTS = {
    "CarrierMismatchError": "errors",
    "ConversionDirection": "elements",
    "DegenerateInputError": "errors",
    "DesignConfiguration": "design",
    "DesignError": "errors",
    "DesignRequest": "design",
    "DispersiveElement": "elements",
    "InsufficientSupportError": "errors",
    "InterferenceResult": "interferometry",
    "SampledEnvelope": "envelope",
    "Scenario": "scenario",
    "ScenarioSemanticError": "errors",
    "ScenarioSyntaxError": "errors",
    "SpectralEnvelope": "envelope",
    "StageTrace": "imaging",
    "SystemSpec": "scenario",
    "SystemTopology": "imaging",
    "TimeGrid": "grid",
    "TimeLens": "elements",
    "TimeLensError": "errors",
    "TopologyKind": "imaging",
    "UndersampledError": "errors",
    "WindowOverflowError": "errors",
    "apply_dispersion": "elements",
    "apply_time_lens": "elements",
    "boundary_leakage": "envelope",
    "check_far_field": "imaging",
    "converted_carrier": "elements",
    "energy": "envelope",
    "field_lens_system": "imaging",
    "fwhm": "envelope",
    "gaussian_pulse": "envelope",
    "intensity_overlap": "envelope",
    "magnified_copy": "envelope",
    "overlap": "envelope",
    "parse_scenario": "scenario",
    "phase_fit_quadratic": "envelope",
    "phase_rms": "envelope",
    "plan_grid": "imaging",
    "propagate_stages": "imaging",
    "read_waveform_npy": "runner",
    "recombine": "interferometry",
    "requirements": "design",
    "run_design": "runner",
    "run_simulate": "runner",
    "run_sweep": "runner",
    "run_system": "imaging",
    "shifted": "envelope",
    "single_lens_system": "imaging",
    "stretched_pump_fwhm": "elements",
    "synthesize_pump": "elements",
    "telescope_system": "imaging",
    "time_bin_pulse": "envelope",
    "to_frequency": "envelope",
    "to_time": "envelope",
    "transfer_matrix": "imaging",
    "verify_topology": "imaging",
    "visibility_experiment": "interferometry",
    "waveform_csv": "runner",
    "waveform_npy": "runner",
    "write_artifacts": "runner",
}
_SUBMODULES = frozenset(_EXPORTS.values())

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    if name in _EXPORTS:
        return getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
