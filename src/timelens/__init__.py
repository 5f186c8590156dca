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

from .design import (
    DesignConfiguration,
    DesignReport,
    DesignRequest,
    requirements,
)
from .elements import (
    ConversionDirection,
    DispersiveElement,
    TimeLens,
    apply_dispersion,
    apply_time_lens,
    converted_carrier,
    pump_phase_curvature,
    stretched_pump_fwhm,
    synthesize_pump,
)
from .envelope import (
    SampledEnvelope,
    SpectralEnvelope,
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
from .errors import (
    CarrierMismatchError,
    DegenerateInputError,
    DesignError,
    InsufficientSupportError,
    PeakDetectionError,
    ScenarioError,
    ScenarioSemanticError,
    ScenarioSyntaxError,
    TimeLensError,
    UndersampledError,
    WindowOverflowError,
)
from .grid import TimeGrid
from .imaging import (
    FarFieldCheck,
    StageTrace,
    SystemTopology,
    TopologyKind,
    check_far_field,
    field_lens_system,
    plan_grid,
    run_system,
    single_lens_system,
    telescope_system,
    transfer_matrix,
    verify_topology,
)
from .interferometry import (
    InterferenceResult,
    asymmetry,
    recombine,
    visibility_experiment,
)
from .runner import (
    build_input,
    build_topology,
    read_waveform_npy,
    run_design,
    run_simulate,
    run_sweep,
    waveform_csv,
    waveform_npy,
    write_artifacts,
)
from .scenario import (
    AnalysisSpec,
    DesignSpec,
    GridSpec,
    InputSpec,
    Scenario,
    SystemSpec,
    parse_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisSpec",
    "CarrierMismatchError",
    "ConversionDirection",
    "DegenerateInputError",
    "DesignConfiguration",
    "DesignError",
    "DesignReport",
    "DesignRequest",
    "DesignSpec",
    "DispersiveElement",
    "FarFieldCheck",
    "GridSpec",
    "InputSpec",
    "InsufficientSupportError",
    "InterferenceResult",
    "PeakDetectionError",
    "SampledEnvelope",
    "Scenario",
    "ScenarioError",
    "ScenarioSemanticError",
    "ScenarioSyntaxError",
    "SpectralEnvelope",
    "StageTrace",
    "SystemSpec",
    "SystemTopology",
    "TimeGrid",
    "TimeLens",
    "TimeLensError",
    "TopologyKind",
    "UndersampledError",
    "WindowOverflowError",
    "apply_dispersion",
    "apply_time_lens",
    "asymmetry",
    "boundary_leakage",
    "build_input",
    "build_topology",
    "check_far_field",
    "converted_carrier",
    "energy",
    "field_lens_system",
    "fwhm",
    "gaussian_pulse",
    "intensity_overlap",
    "magnified_copy",
    "overlap",
    "parse_scenario",
    "phase_fit_quadratic",
    "phase_rms",
    "plan_grid",
    "pump_phase_curvature",
    "read_waveform_npy",
    "recombine",
    "requirements",
    "run_design",
    "run_simulate",
    "run_sweep",
    "run_system",
    "shifted",
    "single_lens_system",
    "stretched_pump_fwhm",
    "synthesize_pump",
    "telescope_system",
    "time_bin_pulse",
    "to_frequency",
    "to_time",
    "transfer_matrix",
    "verify_topology",
    "visibility_experiment",
    "waveform_csv",
    "waveform_npy",
    "write_artifacts",
]
