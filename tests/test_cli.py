"""End-to-end CLI behavior: exit codes, artifacts, precedence, determinism."""

from __future__ import annotations

import filecmp
import io
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import NUMPY_EXECUTED, fresh_python

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
from timelens.interferometry import _window_energy, analyzer_port
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


def _assert_same_files(out_a, out_b):
    names = sorted(p.name for p in out_a.iterdir())
    assert names == sorted(p.name for p in out_b.iterdir())
    match, mismatch, errors = filecmp.cmpfiles(out_a, out_b, names, shallow=False)
    assert mismatch == [] and errors == []
    assert sorted(match) == names


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
        grid = TimeGrid(g["n_samples"], g["dt_ps"])
        assert grid.t0 == g["t0_ps"] and grid.window == g["window_ps"]

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
        phase = interference["image_frame_phase_rad"]
        for port, port_phase in (("constructive", phase), ("destructive", phase + np.pi)):
            env = load(f"analyzer_{port}.npy")
            computed = analyzer_port(run.image, run.interference.delayed, port_phase)
            assert env.samples.view(np.uint64).tolist() == (
                computed.samples.view(np.uint64).tolist()
            )
            # the port of a loaded port and an undelayed copy at phase 0 is itself
            assert _window_energy(env, env, 0.0, window, interference["metric"]) == (
                interference[f"{port}_energy"]
            )

    def test_off_center_input_is_imaged_or_rejected(self, tmp_path, capsys):
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
        grid = TimeGrid(g["n_samples"], g["dt_ps"])
        image = read_waveform_npy((out / "stage_04_field_lens.npy").read_bytes(), grid)
        assert abs(image.times[np.argmax(image.intensity)] + 2000.0) <= grid.dt
        assert report["image"]["fidelity_to_ideal"] >= 0.999999
        # 16384 samples sample that window too coarsely: the main lens chirps
        # the input to about 20 rad/ps, far past the band edge pi/dt of
        # 2.9 rad/ps, so stage 3 wraps because its input aliased.  The run
        # stops instead of returning a wrapped image, and asks for samples,
        # not for a larger window, which would make it worse.
        capsys.readouterr()
        assert main(["simulate", str(coarse), "--out", str(tmp_path / "c")]) == (
            EXIT_PHYSICS
        )
        assert capsys.readouterr().err.startswith(
            "error: UndersampledError: stage 3 (output_gdd): "
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
        _assert_same_files(out_a, out_b)

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
        result = fresh_python(code)
        assert result.returncode == 0, result.stderr

    def test_design_and_parsing_leave_numpy_unexecuted(self, tmp_path):
        # design is scalar arithmetic and parsing checks scalar rules: neither
        # reads an attribute of numpy, so numpy's own import never runs
        designs = [str(p) for p in sorted(SCENARIO_DIR.glob("design_*.scn"))]
        scenarios = [str(p) for p in sorted(SCENARIO_DIR.glob("*.scn"))]
        assert len(designs) == 3 and len(scenarios) == 8
        code = (
            "import sys\n"
            "from timelens.cli import main\n"
            "from timelens.scenario import parse_scenario\n"
            f"for path in {scenarios!r}:\n"
            "    parse_scenario(open(path, encoding='utf-8').read())\n"
            f"assert not {NUMPY_EXECUTED}\n"
            f"for index, path in enumerate({designs!r}):\n"
            f"    out = {str(tmp_path)!r} + f'/{{index}}'\n"
            "    assert main(['design', path, '--out', out]) == 0\n"
            f"assert not {NUMPY_EXECUTED}\n"
        )
        result = fresh_python(code)
        assert result.returncode == 0, result.stderr

    def test_refused_scenarios_leave_numpy_unexecuted(self, tmp_path):
        syntax, semantic = tmp_path / "syntax.scn", tmp_path / "semantic.scn"
        syntax.write_text("[input\nkind = gaussian\n", encoding="utf-8")
        semantic.write_text(FAST_GAUSSIAN.replace("fwhm = 5 ps", "fwhm = 5 rad"), encoding="utf-8")
        code = (
            "import sys\n"
            "from timelens.cli import main\n"
            f"assert main(['simulate', {str(syntax)!r}]) == {EXIT_SYNTAX}\n"
            f"assert main(['simulate', {str(semantic)!r}]) == {EXIT_SEMANTIC}\n"
            f"assert not {NUMPY_EXECUTED}\n"
        )
        result = fresh_python(code)
        assert result.returncode == 0, result.stderr

    def test_simulate_executes_numpy_into_the_plain_module(self, tmp_path):
        argv = ["simulate", str(SCENARIO_DIR / "ideal_magnifier.scn"), "--out", str(tmp_path)]
        code = (
            "import sys, types, timelens.envelope\n"
            "from timelens.cli import main\n"
            f"assert not {NUMPY_EXECUTED}\n"
            f"assert main({argv!r}) == 0\n"
            f"assert {NUMPY_EXECUTED}\n"
            "assert timelens.envelope.np is sys.modules['numpy']\n"
            "assert type(sys.modules['numpy']) is types.ModuleType\n"
        )
        result = fresh_python(code)
        assert result.returncode == 0, result.stderr

    def test_import_loads_no_process_pool(self):
        # Rendering is serial; importing the CLI, which loads every module,
        # starts no worker machinery.
        code = (
            "import sys, timelens.cli\n"
            "modules = {f'timelens.{m}' for m in timelens._SUBMODULES}\n"
            "assert modules <= set(sys.modules), modules - set(sys.modules)\n"
            "pool = ('multiprocessing', 'concurrent')\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] in pool)\n"
            "assert not loaded, loaded\n"
        )
        result = fresh_python(code)
        assert result.returncode == 0, result.stderr

    def test_npys_equal_waveform_npy_of_their_envelopes(self, tmp_path):
        # simulate hands write_artifacts the envelopes' own samples; the
        # files it saves must hold the bytes of the public format helper
        scenario = parse_scenario(FAST_TIME_BIN)
        _, files = run_simulate(scenario)
        run = timelens.runner._compute(scenario)
        expected = {}
        for index, (label, env) in enumerate(run.stages):
            expected[f"stage_{index:02d}_{label}.npy"] = env
        phase = run.report["interference"]["image_frame_phase_rad"]
        for port, port_phase in (("constructive", phase), ("destructive", phase + np.pi)):
            port_env = analyzer_port(run.image, run.interference.delayed, port_phase)
            expected[f"analyzer_{port}.npy"] = port_env
        assert list(files) == [*expected, "report.json"]
        assert len(expected) == 7
        write_artifacts(tmp_path, files)
        for name, env in expected.items():
            assert (tmp_path / name).read_bytes() == waveform_npy(env), name

    def test_rendering_holds_no_second_copy_of_the_waveforms(self):
        # Every .npy artifact is its envelope's own samples, so run_simulate
        # peaks less than one waveform above the computation it wraps.  Each
        # call runs once untraced first, so numpy's FFT plans are not charged.
        scenario = parse_scenario(
            (SCENARIO_DIR / "visibility_telescope.scn").read_text(encoding="utf-8")
        )

        def traced_peak(call):
            call(scenario)
            tracemalloc.start()
            try:
                call(scenario)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        waveform = run_simulate(scenario)[1]["stage_00_input.npy"].nbytes
        rendering = traced_peak(run_simulate) - traced_peak(timelens.runner._compute)
        assert rendering < waveform

    def test_render_error_exits_unexpected_and_writes_nothing(
        self, monkeypatch, tmp_path
    ):
        # The .npy files are rendered while they are written: a save that
        # fails on the second array, after writing part of it, must leave
        # no file behind, nor the directory the write made.
        save = np.save
        calls = []

        def broken(file, array, **kwargs):
            calls.append(file)
            if len(calls) == 2:
                file.write(b"\x93NUMPY")
                raise ValueError("render failed")
            save(file, array, **kwargs)

        monkeypatch.setattr(np, "save", broken)
        _, files = run_simulate(parse_scenario(FAST_TIME_BIN))
        direct = tmp_path / "direct"
        with pytest.raises(ValueError, match="render failed"):
            write_artifacts(direct, files)
        assert len(calls) == 2 and not direct.exists()

        calls.clear()
        scenario = tmp_path / "time_bin.scn"
        scenario.write_text(FAST_TIME_BIN, encoding="utf-8")
        out = tmp_path / "o"
        assert main(["simulate", str(scenario), "--out", str(out)]) == EXIT_UNEXPECTED
        assert len(calls) == 2 and not out.exists()


class TestWaveformFiles:
    def test_npy_round_trip_is_bitwise(self):
        grid = TimeGrid(n_samples=256, dt=0.1234)
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
        env = SampledEnvelope(TimeGrid(n_samples=64, dt=0.1), np.ones(64))
        with pytest.raises(ValueError, match="does not match grid"):
            read_waveform_npy(waveform_npy(env), TimeGrid(n_samples=128, dt=0.1))

    def test_waveform_csv_axis_uniform_and_increasing(self):
        grid = TimeGrid(n_samples=128, dt=0.1)
        lines = waveform_csv(SampledEnvelope(grid, np.ones(128))).splitlines()
        assert lines[0] == "t_ps,re,im,intensity"
        assert len(lines) == 1 + 128
        t = np.array([float(row.split(",")[0]) for row in lines[1:]])
        assert t.tolist() == grid.times.tolist()
        steps = np.diff(t)
        assert np.all(steps > 0)
        assert np.max(np.abs(steps - grid.dt)) < 1e-12

    def test_waveform_csv_text(self):
        grid = TimeGrid(n_samples=16, dt=0.1)
        samples = np.empty(16, dtype=np.complex128)
        samples.real = grid.times
        samples.imag = np.where(np.arange(16) % 2, -0.0, 0.1)
        assert waveform_csv(SampledEnvelope(grid, samples)) == (
            "t_ps,re,im,intensity\n"
            "-0.8,-0.8,0.1,0.6500000000000001\n"
            "-0.7000000000000001,-0.7000000000000001,-0.0,0.4900000000000001\n"
            "-0.6000000000000001,-0.6000000000000001,0.1,0.3700000000000001\n"
            "-0.5,-0.5,-0.0,0.25\n"
            "-0.4,-0.4,0.1,0.17000000000000004\n"
            "-0.30000000000000004,-0.30000000000000004,-0.0,0.09000000000000002\n"
            "-0.2,-0.2,0.1,0.05000000000000001\n"
            "-0.1,-0.1,-0.0,0.010000000000000002\n"
            "0.0,0.0,0.1,0.010000000000000002\n"
            "0.1,0.1,-0.0,0.010000000000000002\n"
            "0.2,0.2,0.1,0.05000000000000001\n"
            "0.30000000000000004,0.30000000000000004,-0.0,0.09000000000000002\n"
            "0.4,0.4,0.1,0.17000000000000004\n"
            "0.5,0.5,-0.0,0.25\n"
            "0.6000000000000001,0.6000000000000001,0.1,0.3700000000000001\n"
            "0.7000000000000001,0.7000000000000001,-0.0,0.4900000000000001\n"
        )


class TestArtifactList:
    """``report["artifacts"]`` names every file a command writes, and only
    those, ``report.json`` first."""

    @pytest.mark.parametrize(
        "args",
        [
            ["simulate", "fringe_scan.scn"],
            ["design", "design_telescope.scn"],
            ["sweep", "fringe_scan.scn", "--param", "analysis.analyzer_phase",
             "--range", "0:3:2"],
        ],
    )
    def test_lists_the_files_written(self, tmp_path, args):
        out = tmp_path / "out"
        command, scenario, *rest = args
        path = str(SCENARIO_DIR / scenario)
        assert main([command, path, *rest, "--out", str(out)]) == EXIT_OK
        artifacts = json.loads((out / "report.json").read_text())["artifacts"]
        assert artifacts[0] == "report.json"
        assert len(set(artifacts)) == len(artifacts)
        assert set(artifacts) == {p.name for p in out.iterdir()}


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

    @pytest.mark.parametrize(
        ("command", "name"),
        [("simulate", "ideal_magnifier"), ("design", "design_far_field")],
    )
    def test_byte_order_mark_is_skipped(self, tmp_path, command, name):
        plain = SCENARIO_DIR / f"{name}.scn"
        marked = tmp_path / f"{name}.scn"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        out_a, out_b = tmp_path / "plain", tmp_path / "marked"
        assert main([command, str(plain), "--out", str(out_a)]) == EXIT_OK
        assert main([command, str(marked), "--out", str(out_b)]) == EXIT_OK
        _assert_same_files(out_a, out_b)

    @pytest.mark.parametrize(
        "text, problem",
        [
            (
                FAST_TIME_BIN.replace("bin_separation = 15 ps", "bin_separation = 0 ps"),
                "line 15: visibility analysis requires bin_separation > 0",
            ),
            (FAST_GAUSSIAN, "line 14: visibility analysis requires a time-bin input"),
        ],
        ids=["coincident-bins", "gaussian"],
    )
    def test_visibility_on_an_input_that_cannot_interfere_is_a_semantic_error(
        self, tmp_path, capsys, text, problem
    ):
        bad = tmp_path / "bad.scn"
        bad.write_text(
            text + "\n[analysis]\nvisibility = true\nanalyzer_delay = 100 ps\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        assert main(["simulate", str(bad), "--out", str(out)]) == EXIT_SEMANTIC
        err = capsys.readouterr().err
        assert problem in err
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

    @pytest.mark.parametrize("metric", ["energy", "peak"])
    def test_analyzer_delay_below_the_sample_step_runs(self, tmp_path, metric):
        # a 0.001 ps window holds no sample of the image
        text = (SCENARIO_DIR / "visibility_telescope.scn").read_text(encoding="utf-8")
        short = tmp_path / "short.scn"
        short.write_text(
            text.replace("metric = energy",
                         f"metric = {metric}\nanalyzer_delay = 0.001 ps"),
            encoding="utf-8",
        )
        out = tmp_path / "o"
        assert main(["simulate", str(short), "--out", str(out)]) == EXIT_OK
        interference = json.loads((out / "report.json").read_text())["interference"]
        assert interference["analyzer_delay_ps"] == 0.001
        assert 0.0 <= interference["visibility"] <= 1.0

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


class TestIdealImage:
    """The image block's target is the input's own closed form, magnified."""

    METRICS = ("fidelity_to_ideal", "intensity_overlap_with_ideal")
    SIMULATIONS = sorted(
        p.stem for p in SCENARIO_DIR.glob("*.scn") if not p.stem.startswith("design_")
    )

    @staticmethod
    def _image(name, **overrides):
        text = (SCENARIO_DIR / f"{name}.scn").read_text(encoding="utf-8")
        return run_simulate(parse_scenario(text, overrides))[0]

    @pytest.mark.parametrize("name", SIMULATIONS)
    def test_metrics_hold_at_twice_the_samples(self, name):
        report = self._image(name)
        grid = report["grid"]
        fine = self._image(
            name,
            **{"grid.n_samples": 2 * grid["n_samples"], "grid.window": grid["window_ps"]},
        )
        assert fine["grid"]["window_ps"] == grid["window_ps"]
        for metric in self.METRICS:
            assert fine["image"][metric] == pytest.approx(
                report["image"][metric], rel=0.0, abs=1e-13
            )

    def test_one_system_on_two_grids_reads_the_same(self):
        # fringe_scan is visibility_field_lens on half its samples
        coarse, fine = self._image("fringe_scan"), self._image("visibility_field_lens")
        assert coarse["grid"]["n_samples"] < fine["grid"]["n_samples"]
        for metric in self.METRICS:
            assert coarse["image"][metric] == pytest.approx(
                fine["image"][metric], rel=0.0, abs=1e-13
            )

    @pytest.mark.parametrize(
        "pulse",
        [
            "kind = gaussian\nfwhm = 5 ps\ncenter = 3 ps",
            "kind = time-bin\nbin_fwhm = 5 ps\nbin_separation = 15 ps\n"
            "relative_phase = 1 rad",
        ],
        ids=["off-center-gaussian", "phased-bins"],
    )
    @pytest.mark.parametrize("magnification", [20.0, -20.0, -3.0])
    @pytest.mark.parametrize(
        ("topology", "sizing"), [("field-lens", "focal_gdd"), ("telescope", "input_gdd")]
    )
    def test_ideal_chains_image_onto_the_target(
        self, topology, sizing, magnification, pulse
    ):
        # an off-center or phased input pins the center's sign and the bin
        # phase's negation under time reversal
        text = (
            f"[system]\ntopology = {topology}\nmagnification = {magnification}\n"
            f"{sizing} = 5 ps2\n[input]\n{pulse}\n"
        )
        report, _ = run_simulate(parse_scenario(text))
        assert report["image"]["fidelity_to_ideal"] >= 1.0 - 1e-12
        if "interference" in report:  # the analyzer is set to the image's phase
            energies = report["interference"]
            assert energies["constructive_energy"] > energies["destructive_energy"]

    def test_target_the_grid_cannot_hold_is_refused(self, tmp_path, capsys):
        # at M = -0.1 the image's 0.5 ps bins outrun the band the planner
        # sized for the 5 ps input
        text = (SCENARIO_DIR / "visibility_telescope.scn").read_text(encoding="utf-8")
        path = tmp_path / "compressing.scn"
        path.write_text(
            text.replace("magnification = 20", "magnification = -0.1"), encoding="utf-8"
        )
        assert main(["simulate", str(path), "--out", str(tmp_path / "o")]) == (
            EXIT_PHYSICS
        )
        assert capsys.readouterr().err.startswith(
            "error: UndersampledError: ideal image: time-bin pulse (bin_fwhm=0.5 ps"
        )


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

    def test_design_multiplier_below_one_exits_semantic(self, tmp_path, capsys):
        text = (SCENARIO_DIR / "design_far_field.scn").read_text(encoding="utf-8")
        bad = tmp_path / "bad.scn"
        bad.write_text(
            text.replace("far_field_multiplier = 10", "far_field_multiplier = 0.5"),
            encoding="utf-8",
        )
        code = main(["design", str(bad), "--out", str(tmp_path / "o")])
        assert code == EXIT_SEMANTIC
        assert "line 11: far_field_multiplier must be >= 1" in capsys.readouterr().err

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
        propagations = self._count_calls(monkeypatch, "propagate_stages")
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
        propagate_stages = timelens.runner.propagate_stages

        def counted_stages(*args, **kwargs):
            before = len(ffts)
            yield from propagate_stages(*args, **kwargs)
            in_propagation.append(len(ffts) - before)

        monkeypatch.setattr(timelens.runner, "propagate_stages", counted_stages)
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

    def test_unset_visibility_is_off_for_coincident_bins(self):
        text = FAST_TIME_BIN.replace("bin_separation = 15 ps", "bin_separation = 0 ps")
        report, _ = run_simulate(parse_scenario(text))
        assert "interference" not in report

    @pytest.mark.parametrize("points", [0, 1, 3])
    def test_each_point_is_parsed_once(self, monkeypatch, points):
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs.get("overrides"))
            return parse_scenario(*args, **kwargs)

        monkeypatch.setattr(timelens.runner, "parse_scenario", counted)
        values = [5.0 + i for i in range(points)]
        run_sweep(FAST_GAUSSIAN, "system.focal_gdd", values)
        expected = [{"system.focal_gdd": v} for v in values] or [None]
        assert calls == expected

    @pytest.mark.parametrize(
        "separations, switched",
        [([15.0, 10.0, 0.0], "0.0 disabled"), ([0.0, 10.0, 15.0], "10.0 enabled")],
        ids=["disabled", "enabled"],
    )
    def test_points_that_disagree_on_visibility_stop_the_sweep(
        self, monkeypatch, separations, switched
    ):
        # every point is checked before the first propagation
        propagations = []
        monkeypatch.setattr(timelens.runner, "_compute", propagations.append)
        with pytest.raises(ScenarioSemanticError) as err:
            run_sweep(FAST_TIME_BIN, "input.bin_separation", separations)
        assert err.value.diagnostics == [
            (0, f"sweep point input.bin_separation={switched} the visibility "
                "analysis; fix the scenario or the range")
        ]
        assert propagations == []

    def test_empty_sweep_writes_only_the_header(self, fast_scenario):
        _, files = run_sweep(fast_scenario.read_text(), "system.focal_gdd", [])
        assert files["sweep.csv"] == "system_focal_gdd_ps2,output_fwhm_ps,output_energy\n"


class TestStageEntry:
    def test_degenerate_width_reported_as_null(self):
        grid = TimeGrid(n_samples=64, dt=0.1)
        entry = timelens.runner._stage_entry("dark", SampledEnvelope(grid, np.zeros(64)))
        assert entry["fwhm_ps"] is None

    def test_unexpected_fwhm_failure_propagates(self, monkeypatch):
        def broken(env):
            raise RuntimeError("bug in fwhm")

        monkeypatch.setattr(timelens.runner, "fwhm", broken)
        grid = TimeGrid(n_samples=64, dt=0.1)
        with pytest.raises(RuntimeError, match="bug in fwhm"):
            timelens.runner._stage_entry("lit", SampledEnvelope(grid, np.ones(64)))

class TestWriteArtifacts:
    def test_partial_writes_rolled_back(self, tmp_path):
        out = tmp_path / "artifacts"
        files = {"first.csv": "ok\n", "missing/second.csv": "fails\n"}
        with pytest.raises(OSError):
            write_artifacts(out, files)
        assert not (out / "first.csv").exists()

    def test_failed_write_removes_the_directories_it_made(self, tmp_path):
        out = tmp_path / "a" / "b" / "c"
        with pytest.raises(OSError):
            write_artifacts(out, {"first.csv": "ok\n", "missing/second.csv": "x\n"})
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_keeps_directories_that_existed(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "a" / "keep.txt").write_text("mine\n")
        out = tmp_path / "a" / "b"
        with pytest.raises(OSError):
            write_artifacts(out, {"first.csv": "ok\n", "missing/second.csv": "x\n"})
        assert not out.exists()
        assert [path.name for path in (tmp_path / "a").iterdir()] == ["keep.txt"]
        with pytest.raises(OSError):
            write_artifacts(tmp_path / "a", {"missing/second.csv": "x\n"})
        assert [path.name for path in (tmp_path / "a").iterdir()] == ["keep.txt"]
