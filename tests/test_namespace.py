"""The ``timelens`` package namespace: every public name resolves to its
module's own object on use, and a bare ``import timelens`` loads nothing."""

from __future__ import annotations

import importlib
import textwrap

import pytest
from conftest import NUMPY_EXECUTED, fresh_python

import timelens

#: The public names, by the module that defines them.
PUBLIC = {
    "design": "DesignConfiguration DesignRequest requirements",
    "elements": (
        "ConversionDirection DispersiveElement TimeLens apply_dispersion "
        "apply_time_lens converted_carrier stretched_pump_fwhm synthesize_pump"
    ),
    "envelope": (
        "SampledEnvelope SpectralEnvelope boundary_leakage energy fwhm "
        "gaussian_pulse intensity_overlap magnified_copy overlap "
        "phase_fit_quadratic phase_rms shifted time_bin_pulse to_frequency to_time"
    ),
    "errors": (
        "CarrierMismatchError DegenerateInputError DesignError "
        "InsufficientSupportError ScenarioSemanticError ScenarioSyntaxError "
        "TimeLensError "
        "UndersampledError WindowOverflowError"
    ),
    "grid": "TimeGrid",
    "imaging": (
        "StageTrace SystemTopology TopologyKind check_far_field "
        "field_lens_system plan_grid propagate_stages run_system single_lens_system "
        "telescope_system transfer_matrix verify_topology"
    ),
    "interferometry": "InterferenceResult recombine visibility_experiment",
    "runner": (
        "read_waveform_npy run_design run_simulate run_sweep waveform_csv "
        "waveform_npy write_artifacts"
    ),
    "scenario": "Scenario SystemSpec parse_scenario",
}
NAMES = [(module, name) for module, names in PUBLIC.items() for name in names.split()]

#: Names that only tests reach: each stays in its module, unexported.
UNEXPORTED = [
    ("design", "DesignReport"),
    ("elements", "pump_phase_curvature"),
    ("errors", "ScenarioError"),
    ("imaging", "FarFieldCheck"),
    ("interferometry", "asymmetry"),
    ("runner", "build_input"),
    ("runner", "build_topology"),
    ("scenario", "AnalysisSpec"),
    ("scenario", "GridSpec"),
    ("scenario", "InputSpec"),
]


def test_all_lists_the_public_names():
    assert len(NAMES) == 61
    assert timelens.__all__ == sorted(name for _, name in NAMES)


@pytest.mark.parametrize(("module", "name"), NAMES)
def test_name_is_its_modules_object(module, name):
    owner = importlib.import_module(f"timelens.{module}")
    assert getattr(timelens, name) is getattr(owner, name)


@pytest.mark.parametrize(("module", "name"), UNEXPORTED)
def test_test_only_name_stays_in_its_module(module, name):
    assert hasattr(importlib.import_module(f"timelens.{module}"), name)
    assert name not in timelens.__all__ and not hasattr(timelens, name)


def test_bare_import_loads_nothing_until_a_name_is_used():
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import timelens\n"
        "added = sorted(set(sys.modules) - before)\n"
        "assert 'timelens' in added, added\n"
        "loaded = [m for m in added if m.startswith(('numpy', 'timelens.'))]\n"
        "assert not loaded, loaded\n"
        f"modules = {sorted(PUBLIC)!r}\n"
        "assert all(getattr(timelens, m) is sys.modules[f'timelens.{m}'] for m in modules)\n"
        "assert timelens.envelope.BOUNDARY_TOLERANCE > 0\n"
        "assert 'numpy' in sys.modules\n"
    )
    result = fresh_python(code)
    assert result.returncode == 0, result.stderr


def test_first_array_calls_from_many_threads_see_the_whole_numpy():
    # numpy executes on the first attribute read; threads that read one
    # while it executes must wait for the whole module, not see a part
    code = textwrap.dedent(
        """
        import sys, threading
        from timelens.envelope import gaussian_pulse
        from timelens.grid import TimeGrid
        assert not %s
        sys.setswitchinterval(1e-6)
        barrier = threading.Barrier(8)
        results, errors = {}, []
        def first_call(index):
            barrier.wait()
            try:
                pulse = gaussian_pulse(TimeGrid(1024, 0.1), 2.0)
                results[index] = pulse.samples.tobytes()
            except BaseException as exc:
                errors.append(repr(exc))
        threads = [
            threading.Thread(target=first_call, args=(i,), daemon=True) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads), "a first call hangs"
        assert not errors, errors
        serial = gaussian_pulse(TimeGrid(1024, 0.1), 2.0).samples.tobytes()
        assert results == dict.fromkeys(range(8), serial)
        """
        % NUMPY_EXECUTED
    )
    result = fresh_python(code)
    assert result.returncode == 0, result.stderr


def test_a_submodule_import_racing_the_first_array_call_never_hangs():
    # a thread importing numpy.linalg holds that submodule's import lock
    # while it reads numpy, and numpy, executing in the other thread, needs
    # that lock: a wait the import system cannot see would hang.  As when
    # one thread runs `import numpy` and another `import numpy.linalg`,
    # either may fail with an import error; numpy works afterwards.
    code = textwrap.dedent(
        """
        import sys, threading
        from timelens.envelope import gaussian_pulse
        from timelens.grid import TimeGrid
        sys.setswitchinterval(1e-6)
        barrier = threading.Barrier(2)
        errors = []
        def first_call():
            barrier.wait()
            try:
                gaussian_pulse(TimeGrid(1024, 0.1), 2.0)
            except BaseException as exc:
                errors.append(exc)
        def submodule_import():
            barrier.wait()
            try:
                import numpy.linalg
            except BaseException as exc:
                errors.append(exc)
        threads = [
            threading.Thread(target=f, daemon=True) for f in (first_call, submodule_import)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads), "the threads deadlock"
        # the import system's deadlock error is a RuntimeError
        assert all(isinstance(e, (ImportError, RuntimeError)) for e in errors), errors
        import numpy.linalg
        assert numpy.linalg.norm([3.0, 4.0]) == 5.0
        assert gaussian_pulse(TimeGrid(1024, 0.1), 2.0).samples.dtype == "complex128"
        """
    )
    result = fresh_python(code)
    assert result.returncode == 0, result.stderr


def test_star_import_binds_all_and_dir_lists_it():
    namespace: dict = {}
    exec("from timelens import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == timelens.__all__
    assert set(timelens.__all__) <= set(dir(timelens))
    assert "__version__" in dir(timelens)


def test_patched_module_attribute_is_what_the_package_returns(monkeypatch):
    original = timelens.run_system
    monkeypatch.setattr(timelens.imaging, "run_system", lambda *a: None)
    assert timelens.run_system is timelens.imaging.run_system
    assert timelens.run_system is not original
    monkeypatch.undo()
    assert timelens.run_system is original


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        timelens.no_such_name
    assert not hasattr(timelens, "cli_main")
    with pytest.raises(ImportError):
        exec("from timelens import no_such_name", {})


def test_docstring_quick_start_runs():
    block = timelens.__doc__.split("Quick start::")[1].split("or, from a shell::")[0]
    namespace: dict = {}
    exec(textwrap.dedent(block), namespace)
    image = namespace["image"]
    assert isinstance(image, timelens.SampledEnvelope)
    assert image.carrier_wavelength_nm == pytest.approx(710.0)
