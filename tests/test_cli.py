"""End-to-end CLI behavior: exit codes, artifacts, precedence, determinism."""

from __future__ import annotations

import filecmp
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import timelens.runner
from timelens import (
    SampledEnvelope,
    ScenarioSemanticError,
    TimeGrid,
    UndersampledError,
    energy,
    fwhm,
    parse_scenario,
    read_waveform_npy,
    run_simulate,
    run_sweep,
    write_artifacts,
)
from timelens.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_PHYSICS,
    EXIT_SEMANTIC,
    EXIT_SYNTAX,
    EXIT_UNEXPECTED,
    OUTPUT_ENV_VAR,
    main,
)
from timelens.interferometry import _window_energy
from timelens.runner import _stage_entry, waveform_csv, waveform_npy

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

FAST_GAUSSIAN = """\
[input]
kind = gaussian
fwhm = 5 ps

[system]
topology = field-lens
magnification = -20
focal_gdd = 5 ps2

[grid]
n_samples = 4096
"""


# Seven waveforms: five stages and both analyzer ports.
FAST_TIME_BIN = """\
[input]
kind = time-bin
bin_fwhm = 5 ps
bin_separation = 15 ps

[system]
topology = field-lens
magnification = -20
focal_gdd = 5 ps2

[grid]
n_samples = 8192
"""


def _fresh_python(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter that imports this checkout's timelens."""
    package_root = str(Path(timelens.__file__).resolve().parents[1])
    path = [package_root, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.fixture(autouse=True)
def _no_output_env(monkeypatch):
    monkeypatch.delenv(OUTPUT_ENV_VAR, raising=False)


@pytest.fixture
def fast_scenario(tmp_path):
    path = tmp_path / "fast.scn"
    path.write_text(FAST_GAUSSIAN, encoding="utf-8")
    return path


class TestSimulate:
    def test_writes_reports_and_stage_waveforms(self, fast_scenario, tmp_path):
        out = tmp_path / "results"
        assert main(["simulate", str(fast_scenario), "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        names = sorted(p.name for p in out.iterdir())
        assert "report.json" in names
        assert "stage_00_input.npy" in names
        assert "stage_04_field_lens.npy" in names
        assert set(report["artifacts"]) == set(names)
        assert report["magnification"] == -20.0
        assert report["image"]["fwhm_ps"] == pytest.approx(100.0, rel=0.01)

    def test_report_rederivable_from_waveform_npy(self, tmp_path):
        # A pumped time-bin run: every stage entry, the image block and both
        # analyzer ports follow exactly from the .npy files and the grid block.
        out = tmp_path / "results"
        scenario = SCENARIO_DIR / "visibility_field_lens.scn"
        assert main(["simulate", str(scenario), "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        g = report["grid"]
        grid = TimeGrid(g["n_samples"], g["dt_ps"], g["t0_ps"])

        def load(name, carrier_nm=None):
            return read_waveform_npy((out / name).read_bytes(), grid, carrier_nm)

        source = load("stage_00_input.npy")
        assert energy(source) == report["input"]["energy"]
        assert fwhm(source) == report["input"]["fwhm_ps"]
        stages = report["stages"]
        assert len(stages) == 4
        for index, stage in enumerate(stages, start=1):
            label = stage["label"]
            env = load(f"stage_{index:02d}_{label}.npy", stage["carrier_nm"])
            assert _stage_entry(label, env) == stage
        assert energy(env) == report["image"]["energy"]
        assert fwhm(env) == report["image"]["fwhm_ps"]

        run = timelens.runner._compute(parse_scenario(scenario.read_text()))
        interference = report["interference"]
        window = tuple(interference["window_ps"])
        for port in ("constructive", "destructive"):
            env = load(f"analyzer_{port}.npy")
            computed = getattr(run.interference, port)
            assert env.samples.view(np.uint64).tolist() == (
                computed.samples.view(np.uint64).tolist()
            )
            assert _window_energy(env, window, interference["metric"]) == (
                interference[f"{port}_energy"]
            )

    def test_off_center_input_is_imaged_or_rejected(self, tmp_path):
        # A 5 ps Gaussian at +100 ps images to -2000 ps at M = -20; the
        # planned window must hold it rather than wrap it.
        text = (SCENARIO_DIR / "ideal_magnifier.scn").read_text(encoding="utf-8")
        text = text.replace("fwhm = 5 ps", "fwhm = 5 ps\ncenter = 100 ps")
        fine, coarse = tmp_path / "fine.scn", tmp_path / "coarse.scn"
        fine.write_text(
            text.replace("n_samples = 16384", "n_samples = 131072"), encoding="utf-8"
        )
        coarse.write_text(text, encoding="utf-8")
        out = tmp_path / "fine"
        assert main(["simulate", str(fine), "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        g = report["grid"]
        grid = TimeGrid(g["n_samples"], g["dt_ps"], g["t0_ps"])
        image = read_waveform_npy((out / "stage_04_field_lens.npy").read_bytes(), grid)
        assert abs(image.times[np.argmax(image.intensity)] + 2000.0) <= grid.dt
        assert report["image"]["fidelity_to_ideal"] >= 0.999999
        # 16384 samples sample that window too coarsely: the run stops with
        # an error instead of returning a wrapped image
        assert main(["simulate", str(coarse), "--out", str(tmp_path / "c")]) == (
            EXIT_PHYSICS
        )

    def test_far_field_check_present_for_lens_systems(self, fast_scenario, tmp_path):
        out = tmp_path / "results"
        main(["simulate", str(fast_scenario), "--out", str(out)])
        report = json.loads((out / "report.json").read_text())
        assert report["far_field"]["passed"] is False  # focal gdd far too small
        assert report["far_field"]["margin"] == pytest.approx(
            12.5 / math.pi, rel=1e-9
        )

    def test_deterministic_artifacts(self, tmp_path):
        scenario = SCENARIO_DIR / "ideal_magnifier.scn"
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", str(scenario), "--out", str(out_a)]) == EXIT_OK
        assert main(["simulate", str(scenario), "--out", str(out_b)]) == EXIT_OK
        names = sorted(p.name for p in out_a.iterdir())
        assert names == sorted(p.name for p in out_b.iterdir())
        match, mismatch, errors = filecmp.cmpfiles(out_a, out_b, names, shallow=False)
        assert mismatch == [] and errors == []
        assert sorted(match) == names

    def test_runtime_loads_no_scipy(self, tmp_path):
        # scipy is a test-only dependency; a fresh process that imports
        # timelens and runs a simulation must never load it.
        scenario = str(SCENARIO_DIR / "ideal_magnifier.scn")
        argv = ["simulate", scenario, "--out", str(tmp_path)]
        code = (
            "import sys, timelens, timelens.cli\n"
            f"assert timelens.cli.main({argv!r}) == 0\n"
            "loaded = sorted(m for m in sys.modules if m.startswith('scipy'))\n"
            "assert not loaded, loaded\n"
        )
        result = _fresh_python(code)
        assert result.returncode == 0, result.stderr

    def test_import_loads_no_process_pool(self):
        # Rendering is serial; importing timelens starts no worker machinery.
        code = (
            "import sys, timelens\n"
            "pool = ('multiprocessing', 'concurrent')\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] in pool)\n"
            "assert not loaded, loaded\n"
        )
        result = _fresh_python(code)
        assert result.returncode == 0, result.stderr

    def test_npys_equal_waveform_npy_of_their_envelopes(self):
        scenario = parse_scenario(FAST_TIME_BIN)
        _, files = run_simulate(scenario)
        run = timelens.runner._compute(scenario)
        expected = {"stage_00_input.npy": run.env_in}
        for index, (label, env) in enumerate(run.trace.steps, start=1):
            expected[f"stage_{index:02d}_{label}.npy"] = env
        expected["analyzer_constructive.npy"] = run.interference.constructive
        expected["analyzer_destructive.npy"] = run.interference.destructive
        assert list(files) == [*expected, "report.json"]
        assert len(expected) == 7
        for name, env in expected.items():
            assert files[name] == waveform_npy(env), name

    def test_render_error_exits_unexpected_and_writes_nothing(
        self, monkeypatch, tmp_path
    ):
        def broken(env):
            raise ValueError("render failed")

        monkeypatch.setattr(timelens.runner, "waveform_npy", broken)
        scenario = tmp_path / "time_bin.scn"
        scenario.write_text(FAST_TIME_BIN, encoding="utf-8")
        out = tmp_path / "o"
        assert main(["simulate", str(scenario), "--out", str(out)]) == EXIT_UNEXPECTED
        assert not out.exists()


class TestWaveformFiles:
    def test_npy_round_trip_is_bitwise(self):
        grid = TimeGrid(n_samples=256, dt=0.1234, t0=-15.5)
        rng = np.random.default_rng(7)
        samples = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        env = SampledEnvelope(grid, samples, 710.0)
        data = waveform_npy(env)
        assert np.load(io.BytesIO(data), allow_pickle=False).dtype == np.complex128
        back = read_waveform_npy(data, grid, 710.0)
        assert back.grid == grid and back.carrier_wavelength_nm == 710.0
        assert back.samples.view(np.uint64).tolist() == (
            env.samples.view(np.uint64).tolist()
        )
        assert waveform_npy(back) == data

    def test_npy_shape_mismatch_raises(self):
        env = SampledEnvelope(TimeGrid(n_samples=64, dt=0.1, t0=-3.2), np.ones(64))
        with pytest.raises(ValueError, match="does not match grid"):
            read_waveform_npy(waveform_npy(env), TimeGrid(n_samples=128, dt=0.1, t0=-3.2))

    def test_waveform_csv_axis_uniform_and_increasing(self):
        grid = TimeGrid(n_samples=128, dt=0.1, t0=-6.4)
        lines = waveform_csv(SampledEnvelope(grid, np.ones(128))).splitlines()
        assert lines[0] == "t_ps,re,im,intensity"
        assert len(lines) == 1 + 128
        t = np.array([float(row.split(",")[0]) for row in lines[1:]])
        assert t.tolist() == grid.times.tolist()
        steps = np.diff(t)
        assert np.all(steps > 0)
        assert np.max(np.abs(steps - grid.dt)) < 1e-12


class TestOutputPrecedence:
    def test_flag_beats_scenario_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        scenario = tmp_path / "s.scn"
        scenario.write_text(
            FAST_GAUSSIAN + "\n[output]\ndir = from-scenario\n", encoding="utf-8"
        )
        assert main(["simulate", str(scenario), "--out", "from-flag"]) == EXIT_OK
        assert (tmp_path / "from-flag" / "report.json").exists()
        assert not (tmp_path / "from-scenario").exists()

    def test_scenario_dir_beats_environment(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv(OUTPUT_ENV_VAR, "from-env")
        scenario = tmp_path / "s.scn"
        scenario.write_text(
            FAST_GAUSSIAN + "\n[output]\ndir = from-scenario\n", encoding="utf-8"
        )
        assert main(["simulate", str(scenario)]) == EXIT_OK
        assert (tmp_path / "from-scenario" / "report.json").exists()
        assert not (tmp_path / "from-env").exists()

    def test_environment_beats_default(self, tmp_path, monkeypatch, fast_scenario):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv(OUTPUT_ENV_VAR, "from-env")
        assert main(["simulate", str(fast_scenario)]) == EXIT_OK
        assert (tmp_path / "from-env" / "report.json").exists()

    def test_default_directory(self, tmp_path, monkeypatch, fast_scenario):
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", str(fast_scenario)]) == EXIT_OK
        assert (tmp_path / "timelens-out" / "report.json").exists()


class TestExitCodes:
    def test_missing_scenario_file(self, tmp_path):
        assert main(["simulate", str(tmp_path / "nope.scn")]) == EXIT_IO

    def test_syntax_error(self, tmp_path):
        bad = tmp_path / "bad.scn"
        bad.write_text("[input\nkind = gaussian\n", encoding="utf-8")
        assert main(["simulate", str(bad)]) == EXIT_SYNTAX

    def test_non_utf8_scenario_is_a_syntax_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.scn"
        bad.write_bytes(b"\xff\xfe[input]\n")
        out = tmp_path / "out"
        assert main(["simulate", str(bad), "--out", str(out)]) == EXIT_SYNTAX
        assert "scenario is not UTF-8 text" in capsys.readouterr().err
        assert not out.exists()

    def test_semantic_error(self, tmp_path):
        bad = tmp_path / "bad.scn"
        bad.write_text(
            FAST_GAUSSIAN.replace("fwhm = 5 ps", "fwhm = 5 rad"), encoding="utf-8"
        )
        assert main(["simulate", str(bad)]) == EXIT_SEMANTIC

    def test_physics_error(self, tmp_path):
        # a 30 ps window cannot hold the 100 ps magnified image
        cramped = tmp_path / "cramped.scn"
        cramped.write_text(
            FAST_GAUSSIAN + "window = 30 ps\n", encoding="utf-8"
        )
        assert main(["simulate", str(cramped), "--out", str(tmp_path / "o")]) == (
            EXIT_PHYSICS
        )

    def test_undersampled_grid_names_the_sample_count(self, tmp_path, capsys):
        text = (SCENARIO_DIR / "fringe_scan.scn").read_text(encoding="utf-8")
        coarse = tmp_path / "coarse.scn"
        coarse.write_text(
            text.replace("n_samples = 16384", "n_samples = 4096"), encoding="utf-8"
        )
        assert main(["simulate", str(coarse), "--out", str(tmp_path / "o")]) == (
            EXIT_PHYSICS
        )
        err = capsys.readouterr().err
        assert "UndersampledError" in err
        assert "n_samples >= 8192" in err

    def test_physics_failure_leaves_no_artifacts(self, tmp_path):
        cramped = tmp_path / "cramped.scn"
        cramped.write_text(FAST_GAUSSIAN + "window = 30 ps\n", encoding="utf-8")
        out = tmp_path / "o"
        main(["simulate", str(cramped), "--out", str(out)])
        assert not out.exists() or list(out.iterdir()) == []

    def test_unwritable_output_dir(self, tmp_path, fast_scenario):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where a directory must go", encoding="utf-8")
        assert main(["simulate", str(fast_scenario), "--out", str(blocker)]) == EXIT_IO

    def test_usage_errors(self, tmp_path, capsys):
        assert main([]) == EXIT_SYNTAX
        assert main(["replicate", "x.scn"]) == EXIT_SYNTAX
        assert main(["sweep", "x.scn"]) == EXIT_SYNTAX  # --param/--range required
        capsys.readouterr()

    def test_bad_range_spec(self, fast_scenario, tmp_path):
        args = ["sweep", str(fast_scenario), "--param", "system.focal_gdd",
                "--out", str(tmp_path / "o")]
        assert main(args + ["--range", "0:1"]) == EXIT_SYNTAX
        assert main(args + ["--range", "0:1:0"]) == EXIT_SYNTAX
        assert main(args + ["--range", "a:b:3"]) == EXIT_SYNTAX
        assert main(args + ["--range", "nan:1:3"]) == EXIT_SYNTAX
        assert main(args + ["--range", "0:inf:3"]) == EXIT_SYNTAX

    @pytest.mark.parametrize(
        "old, new",
        [
            ("fwhm = 5 ps", "fwhm = inf ps"),
            ("magnification = -20", "magnification = nan"),
            ("n_samples = 4096", "n_samples = 4096\nwindow = inf ps"),
        ],
    )
    def test_non_finite_value_is_a_semantic_error(self, tmp_path, capsys, old, new):
        bad = tmp_path / "bad.scn"
        bad.write_text(FAST_GAUSSIAN.replace(old, new), encoding="utf-8")
        assert main(["simulate", str(bad), "--out", str(tmp_path / "o")]) == (
            EXIT_SEMANTIC
        )
        assert "expected a finite number" in capsys.readouterr().err

    def test_sweep_of_non_numeric_key(self, fast_scenario, tmp_path):
        code = main(
            [
                "sweep", str(fast_scenario),
                "--param", "input.kind",
                "--range", "0:1:2",
                "--out", str(tmp_path / "o"),
            ]
        )
        assert code == EXIT_SEMANTIC


class TestSamplingLimit:
    """Both sides of the input's spectral-edge limit on shipped scenarios."""

    @staticmethod
    def _scenario(name, n_samples):
        text = (SCENARIO_DIR / f"{name}.scn").read_text(encoding="utf-8")
        return parse_scenario(
            text.replace("n_samples = 16384", f"n_samples = {n_samples}")
        )

    @pytest.mark.parametrize(
        ("name", "n_samples", "needed"),
        [
            ("fringe_scan", 2048, 8192),
            ("fringe_scan", 4096, 8192),
            ("ideal_magnifier", 512, 2048),
            ("ideal_magnifier", 1024, 2048),
        ],
    )
    def test_coarse_grid_is_rejected(self, name, n_samples, needed):
        with pytest.raises(UndersampledError, match=f"n_samples >= {needed} "):
            run_simulate(self._scenario(name, n_samples))

    def test_first_admitted_grids_run(self):
        report, _ = run_simulate(self._scenario("ideal_magnifier", 2048))
        assert report["image"]["fidelity_to_ideal"] > 1.0 - 1e-8
        report, _ = run_simulate(self._scenario("fringe_scan", 8192))
        assert report["image"]["fidelity_to_ideal"] > 0.997
        assert report["interference"]["visibility"] > 0.997


class TestDesign:
    def test_design_artifacts_and_values(self, tmp_path):
        out = tmp_path / "design"
        scenario = SCENARIO_DIR / "design_field_lens.scn"
        assert main(["design", str(scenario), "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        bounds = {
            e["element"]: e["dispersion_bound_ps2"] for e in report["entries"]
        }
        assert bounds["D1"] == pytest.approx(5.25, rel=1e-12)
        assert bounds["Df"] == pytest.approx(5.0, rel=1e-12)
        assert bounds["D2"] == pytest.approx(105.0, rel=1e-12)
        assert bounds["Dr"] == pytest.approx(100.0, rel=1e-12)
        rows = (out / "design.csv").read_text().splitlines()
        assert rows[0].startswith("element,bound_kind,dispersion_bound_ps2")
        assert len(rows) == 1 + len(report["entries"])

    def test_design_subcommand_needs_design_section(self, fast_scenario, tmp_path):
        code = main(["design", str(fast_scenario), "--out", str(tmp_path / "o")])
        assert code == EXIT_SEMANTIC


class TestSweep:
    def test_sweep_rows_sorted_by_parameter(self, fast_scenario, tmp_path):
        out = tmp_path / "sweep"
        code = main(
            [
                "sweep", str(fast_scenario),
                "--param", "system.focal_gdd",
                "--range", "10:5:3",  # descending request
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        rows = (out / "sweep.csv").read_text().splitlines()
        assert rows[0].split(",")[0] == "system_focal_gdd_ps2"
        values = [float(r.split(",")[0]) for r in rows[1:]]
        assert values == [5.0, 7.5, 10.0]
        # ideal imaging: the output width is set by M alone
        widths = [float(r.split(",")[1]) for r in rows[1:]]
        assert all(w == pytest.approx(100.0, rel=0.01) for w in widths)

    def test_negative_range_start_in_every_form(self, fast_scenario, tmp_path):
        # single-lens and field-lens magnifications are negative
        sweeps = []
        forms = (["--range", "-30:-10:3"], ["--range=-30:-10:3"], ["--ran", "-30:-10:3"])
        for form in forms:
            out = tmp_path / f"sweep{len(sweeps)}"
            args = ["sweep", str(fast_scenario), "--param", "system.magnification"]
            assert main(args + form + ["--out", str(out)]) == EXIT_OK
            sweeps.append((out / "sweep.csv").read_text())
        assert sweeps[0] == sweeps[1] == sweeps[2]
        values = [float(row.split(",")[0]) for row in sweeps[0].splitlines()[1:]]
        assert values == [-30.0, -20.0, -10.0]

    def test_fringe_scan_contrast_matches_visibility(self, tmp_path):
        scenario = SCENARIO_DIR / "fringe_scan.scn"
        sim_out = tmp_path / "sim"
        assert main(["simulate", str(scenario), "--out", str(sim_out)]) == EXIT_OK
        visibility = json.loads((sim_out / "report.json").read_text())[
            "interference"
        ]["visibility"]

        sweep_out = tmp_path / "fringe"
        code = main(
            [
                "sweep", str(scenario),
                "--param", "analysis.analyzer_phase",
                "--range", f"0:{2 * math.pi}:9",
                "--out", str(sweep_out),
            ]
        )
        assert code == EXIT_OK
        rows = (sweep_out / "sweep.csv").read_text().splitlines()
        header = rows[0].split(",")
        assert header[0] == "analysis_analyzer_phase_rad"
        column = header.index("central_energy")
        fringe = np.array([float(r.split(",")[column]) for r in rows[1:]])
        # single-port energy is sinusoidal in the analyzer phase
        phases = np.array([float(r.split(",")[0]) for r in rows[1:]])
        design = np.column_stack(
            [np.ones_like(phases), np.cos(phases), np.sin(phases)]
        )
        coeffs, *_ = np.linalg.lstsq(design, fringe, rcond=None)
        residual = fringe - design @ coeffs
        assert np.max(np.abs(residual)) < 1e-6 * np.max(fringe)
        contrast = (fringe.max() - fringe.min()) / (fringe.max() + fringe.min())
        assert contrast == pytest.approx(visibility, abs=1e-6)

    @staticmethod
    def _count_calls(monkeypatch, name):
        calls = []
        original = getattr(timelens.runner, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(timelens.runner, name, counted)
        return calls

    def test_analyzer_phase_points_share_one_propagation(
        self, fast_scenario, tmp_path, monkeypatch
    ):
        propagations = self._count_calls(monkeypatch, "run_system")
        renders = self._count_calls(monkeypatch, "waveform_npy")
        code = main(
            [
                "sweep", str(SCENARIO_DIR / "fringe_scan.scn"),
                "--param", "analysis.analyzer_phase",
                "--range", f"0:{2 * math.pi}:5",
                "--out", str(tmp_path / "phase"),
            ]
        )
        assert code == EXIT_OK
        assert (len(propagations), len(renders)) == (1, 0)

        code = main(
            [
                "sweep", str(fast_scenario),
                "--param", "system.focal_gdd",
                "--range", "5:10:3",
                "--out", str(tmp_path / "gdd"),
            ]
        )
        assert code == EXIT_OK
        assert (len(propagations), len(renders)) == (1 + 3, 0)

    def test_phase_sweep_adds_one_shift_to_one_propagation(self, monkeypatch):
        ffts = []

        def counted(transform):
            def wrapper(*args, **kwargs):
                ffts.append(transform)
                return transform(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(np.fft, "fft", counted(np.fft.fft))
        monkeypatch.setattr(np.fft, "ifft", counted(np.fft.ifft))
        in_propagation = []
        run_system = timelens.runner.run_system

        def counted_run_system(*args, **kwargs):
            before = len(ffts)
            trace = run_system(*args, **kwargs)
            in_propagation.append(len(ffts) - before)
            return trace

        monkeypatch.setattr(timelens.runner, "run_system", counted_run_system)
        text = (SCENARIO_DIR / "fringe_scan.scn").read_text(encoding="utf-8")
        for points in (1, 6):
            ffts.clear()
            in_propagation.clear()
            values = timelens.runner.sweep_values(0.0, math.pi, points)
            run_sweep(text, "analysis.analyzer_phase", values)
            # one propagation, then one analyzer-delay shift (2 FFTs) that
            # every phase point shares
            assert len(in_propagation) == 1
            assert len(ffts) == in_propagation[0] + 2

    def test_sweep_rows_equal_simulate_reports(self):
        text = (SCENARIO_DIR / "fringe_scan.scn").read_text(encoding="utf-8")
        param = "analysis.analyzer_phase"
        phases = [0.0, 1.0, 2.5]
        _, files = run_sweep(text, param, phases)
        lines = files["sweep.csv"].splitlines()
        header = lines[0].split(",")
        for phase, line in zip(phases, lines[1:]):
            row = dict(zip(header, (float(cell) for cell in line.split(","))))
            report, _ = run_simulate(parse_scenario(text, overrides={param: phase}))
            interference = report["interference"]
            assert row["analysis_analyzer_phase_rad"] == phase
            assert row["output_fwhm_ps"] == report["image"]["fwhm_ps"]
            assert row["output_energy"] == report["image"]["energy"]
            assert row["visibility"] == interference["visibility"]
            assert row["constructive_energy"] == interference["constructive_energy"]
            assert row["destructive_energy"] == interference["destructive_energy"]
            assert row["central_energy"] == report["single_port"]["central_energy"]


    def test_phase_sweep_reports_central_energy_without_a_preset_phase(self):
        # visibility_field_lens.scn sets no analyzer_phase: the swept key
        # still decides the columns, and each row equals its own simulation.
        text = (SCENARIO_DIR / "visibility_field_lens.scn").read_text(encoding="utf-8")
        param = "analysis.analyzer_phase"
        phases = timelens.runner.sweep_values(0.0, 3.1416, 3)
        _, files = run_sweep(text, param, phases)
        lines = files["sweep.csv"].splitlines()
        header = lines[0].split(",")
        assert header[-1] == "central_energy"
        central = [float(line.split(",")[-1]) for line in lines[1:]]
        for phase, energy_at_phase in zip(phases, central):
            report, _ = run_simulate(parse_scenario(text, overrides={param: phase}))
            assert energy_at_phase == report["single_port"]["central_energy"]
        assert len(set(central)) == 3

    @pytest.mark.parametrize("separations", [[15.0, 0.0], [0.0, 15.0]])
    def test_points_that_disagree_on_visibility_stop_the_sweep(self, separations):
        with pytest.raises(ScenarioSemanticError, match="the visibility analysis"):
            run_sweep(FAST_TIME_BIN, "input.bin_separation", separations)

    def test_empty_sweep_writes_only_the_header(self, fast_scenario):
        _, files = run_sweep(fast_scenario.read_text(), "system.focal_gdd", [])
        assert files["sweep.csv"] == "system_focal_gdd_ps2,output_fwhm_ps,output_energy\n"


class TestStageEntry:
    def test_degenerate_width_reported_as_null(self):
        grid = TimeGrid(n_samples=64, dt=0.1, t0=-3.2)
        entry = timelens.runner._stage_entry("dark", SampledEnvelope(grid, np.zeros(64)))
        assert entry["fwhm_ps"] is None

    def test_unexpected_fwhm_failure_propagates(self, monkeypatch):
        def broken(env):
            raise RuntimeError("bug in fwhm")

        monkeypatch.setattr(timelens.runner, "fwhm", broken)
        grid = TimeGrid(n_samples=64, dt=0.1, t0=-3.2)
        with pytest.raises(RuntimeError, match="bug in fwhm"):
            timelens.runner._stage_entry("lit", SampledEnvelope(grid, np.ones(64)))

class TestWriteArtifacts:
    def test_partial_writes_rolled_back(self, tmp_path):
        out = tmp_path / "artifacts"
        files = {"first.csv": "ok\n", "missing/second.csv": "fails\n"}
        with pytest.raises(OSError):
            write_artifacts(out, files)
        assert not (out / "first.csv").exists()
