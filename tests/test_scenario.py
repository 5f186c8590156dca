"""Scenario text parsing: defaults, units, diagnostics, and overrides."""

from __future__ import annotations

import inspect
from pathlib import Path

import pytest

from timelens import (
    ConversionDirection,
    DesignConfiguration,
    DesignError,
    DesignRequest,
    ScenarioSemanticError,
    ScenarioSyntaxError,
    SystemSpec,
    TimeLens,
    TopologyKind,
    converted_carrier,
    parse_scenario,
    plan_grid,
)
from timelens.imaging import _stage_values, assemble_system
from timelens.scenario import GridSpec

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

MINIMAL = """\
[input]
kind = gaussian
fwhm = 5 ps

[system]
topology = field-lens
magnification = -20
focal_gdd = 5 ps2
"""

M_ZERO = "magnification 0 is degenerate: no imaging system exists"
M_ONE = (
    "magnification 1 is degenerate for a single-lens/field-lens system "
    "(it forces D1 = 0)"
)

TIME_BIN = """\
[input]
kind = time-bin
bin_fwhm = 5 ps
bin_separation = 15 ps

[system]
topology = field-lens
magnification = -20
largest_gdd = 1000 ps2
pump = pumped
pump_seed_fwhm = 2.5 ps

[analysis]
visibility = true
"""


class TestMinimalScenario:
    def test_defaults_filled(self):
        scenario = parse_scenario(MINIMAL)
        assert scenario.simulatable
        assert scenario.input.kind == "gaussian"
        assert scenario.input.fwhm == 5.0
        assert scenario.system.topology is TopologyKind.FIELD_LENS
        assert scenario.system.magnification == -20.0
        assert scenario.system.focal_gdd == 5.0
        assert scenario.system.pump_seed_fwhm is None  # ideal by default
        assert scenario.system.transmission == 1.0
        assert scenario.system.input_carrier_nm == 710.0
        assert scenario.system.pump_carrier_nm == 1550.0
        assert scenario.grid.n_samples == 2**15
        assert scenario.grid.margin == 4.0
        assert scenario.grid.window is None
        assert scenario.analysis.metric == "energy"
        assert scenario.design is None
        assert scenario.output_dir is None

    def test_defaults_have_one_home(self):
        assert parse_scenario(MINIMAL).grid == GridSpec()
        grid_defaults = inspect.signature(plan_grid).parameters
        assert GridSpec().n_samples == grid_defaults["n_samples"].default
        assert GridSpec().margin == grid_defaults["margin"].default
        system = parse_scenario(MINIMAL).system
        lens_defaults = inspect.signature(TimeLens).parameters
        assembly_defaults = inspect.signature(assemble_system).parameters
        for field in ("input_carrier_nm", "pump_carrier_nm"):
            assert getattr(system, field) == getattr(SystemSpec, field)
            assert lens_defaults[field].default == getattr(SystemSpec, field)
            assert assembly_defaults[field].default == getattr(SystemSpec, field)

    def test_sections_keys_and_enum_values_fold_case(self):
        shouted = (
            MINIMAL.replace("[system]", "[SYSTEM]")
            .replace("kind = gaussian", "KIND = Gaussian")
            .replace("topology = field-lens", "Topology = Field-Lens")
        )
        assert parse_scenario(shouted) == parse_scenario(MINIMAL)

    def test_input_extent_and_feature_width(self):
        gaussian = parse_scenario(MINIMAL)
        assert gaussian.input.extent == pytest.approx(20.0)
        assert gaussian.input.feature_fwhm == pytest.approx(5.0)
        bins = parse_scenario(TIME_BIN)
        assert bins.input.extent == pytest.approx(15.0 + 20.0)
        assert bins.input.feature_fwhm == pytest.approx(5.0)

    def test_inline_comments_and_blank_lines_ignored(self):
        text = MINIMAL.replace(
            "focal_gdd = 5 ps2", "\n# comment line\nfocal_gdd = 5 ps2   # trailing"
        )
        scenario = parse_scenario(text)
        assert scenario.system.focal_gdd == 5.0

    def test_unit_suffix_is_optional_but_checked(self):
        bare = MINIMAL.replace("fwhm = 5 ps", "fwhm = 5")
        assert parse_scenario(bare).input.fwhm == 5.0

    def test_shipped_scenarios_all_parse(self):
        files = sorted(SCENARIO_DIR.glob("*.scn"))
        assert len(files) >= 7
        for path in files:
            scenario = parse_scenario(path.read_text(encoding="utf-8"))
            assert scenario.simulatable or scenario.design is not None, path.name

    def test_shipped_interference_scenario_parameters(self):
        text = (SCENARIO_DIR / "visibility_field_lens.scn").read_text(encoding="utf-8")
        scenario = parse_scenario(text)
        assert scenario.input.kind == "time-bin"
        assert scenario.input.bin_fwhm == 5.0
        assert scenario.input.bin_separation == 15.0
        assert scenario.system.topology is TopologyKind.FIELD_LENS
        assert abs(scenario.system.magnification) == 20.0
        assert scenario.system.largest_gdd == 1000.0
        assert scenario.system.pump_seed_fwhm == 2.5
        assert scenario.analysis.visibility is True


class TestSyntaxDiagnostics:
    def test_missing_equals_cites_line(self):
        bad = MINIMAL.replace("fwhm = 5 ps", "fwhm 5 ps")
        with pytest.raises(ScenarioSyntaxError) as err:
            parse_scenario(bad)
        assert "line 3" in str(err.value)

    def test_unterminated_section_header(self):
        with pytest.raises(ScenarioSyntaxError):
            parse_scenario("[input\nkind = gaussian\n")

    def test_key_outside_any_section(self):
        with pytest.raises(ScenarioSyntaxError):
            parse_scenario("kind = gaussian\n")

    def test_all_syntax_errors_reported_together(self):
        bad = "[input\nkind gaussian\n"
        with pytest.raises(ScenarioSyntaxError) as err:
            parse_scenario(bad)
        assert len(err.value.diagnostics) == 2


class TestSemanticDiagnostics:
    def test_unit_mismatch_cites_line_and_units(self):
        bad = MINIMAL.replace("fwhm = 5 ps", "fwhm = 5 rad")
        with pytest.raises(ScenarioSemanticError) as err:
            parse_scenario(bad)
        message = str(err.value)
        assert "line 3" in message and "unit mismatch" in message

    def test_unknown_key_rejected(self):
        bad = MINIMAL + "wavelength = 5 nm\n"
        with pytest.raises(ScenarioSemanticError) as err:
            parse_scenario(bad)
        assert "unknown key" in str(err.value)

    def test_unknown_section_rejected(self):
        bad = MINIMAL + "\n[plotting]\nstyle = fancy\n"
        with pytest.raises(ScenarioSemanticError) as err:
            parse_scenario(bad)
        assert "unknown section" in str(err.value)

    def test_duplicate_key_rejected(self):
        bad = MINIMAL + "magnification = -10\n"
        with pytest.raises(ScenarioSemanticError) as err:
            parse_scenario(bad)
        assert "duplicate" in str(err.value)

    def test_zero_magnification_degenerate(self):
        bad = MINIMAL.replace("magnification = -20", "magnification = 0")
        with pytest.raises(ScenarioSemanticError) as err:
            parse_scenario(bad)
        assert "degenerate" in str(err.value)

    def test_unit_magnification_degenerate_outside_telescope(self):
        bad = MINIMAL.replace("magnification = -20", "magnification = 1")
        with pytest.raises(ScenarioSemanticError):
            parse_scenario(bad)

    @pytest.mark.parametrize(
        "topology, magnification, message",
        [
            ("single-lens", 0, M_ZERO),
            ("telescope", 0, M_ZERO),
            ("single-lens", 1, M_ONE),
            ("field-lens", 1, M_ONE),
        ],
    )
    def test_degenerate_magnification_text_is_the_imaging_layers(
        self, topology, magnification, message
    ):
        sizing = "input_gdd" if topology == "telescope" else "focal_gdd"
        bad = (
            MINIMAL.replace("field-lens", topology)
            .replace("magnification = -20", f"magnification = {magnification}")
            .replace("focal_gdd", sizing)
        )
        with pytest.raises(ScenarioSemanticError) as err:
            parse_scenario(bad)
        assert err.value.diagnostics == [(7, message)]
        with pytest.raises(DesignError) as design:
            _stage_values(TopologyKind(topology), float(magnification), 5.0)
        assert str(design.value) == message

    def test_unit_magnification_telescope_and_unknown_topology_pass(self):
        telescope = (
            MINIMAL.replace("field-lens", "telescope")
            .replace("magnification = -20", "magnification = 1")
            .replace("focal_gdd", "input_gdd")
        )
        assert parse_scenario(telescope).system.magnification == 1.0
        assert len(_stage_values(TopologyKind.TELESCOPE, 1.0, 5.0)) == 5
        # an invalid topology is reported alone: M = 1 may suit the telescope
        unknown = MINIMAL.replace("field-lens", "pinhole").replace(
            "magnification = -20", "magnification = 1"
        )
        with pytest.raises(ScenarioSemanticError) as err:
            parse_scenario(unknown)
        assert [line for line, _ in err.value.diagnostics] == [6]

    def test_exactly_one_sizing_key_required(self):
        doubled = MINIMAL.replace(
            "focal_gdd = 5 ps2", "focal_gdd = 5 ps2\nlargest_gdd = 1000 ps2"
        )
        with pytest.raises(ScenarioSemanticError):
            parse_scenario(doubled)
        missing = MINIMAL.replace("focal_gdd = 5 ps2\n", "")
        with pytest.raises(ScenarioSemanticError):
            parse_scenario(missing)

    def test_telescope_is_sized_by_input_gdd(self):
        bad = MINIMAL.replace("topology = field-lens", "topology = telescope")
        with pytest.raises(ScenarioSemanticError):
            parse_scenario(bad)  # focal_gdd is a lens-sizing key
        good = bad.replace("focal_gdd = 5 ps2", "input_gdd = 5 ps2")
        assert parse_scenario(good).system.input_gdd == 5.0

    def test_pump_mode_conflicts(self):
        conflicted = MINIMAL.replace(
            "focal_gdd = 5 ps2",
            "focal_gdd = 5 ps2\npump = ideal\npump_seed_fwhm = 2.5 ps",
        )
        with pytest.raises(ScenarioSemanticError):
            parse_scenario(conflicted)
        missing_seed = MINIMAL.replace(
            "focal_gdd = 5 ps2", "focal_gdd = 5 ps2\npump = pumped"
        )
        with pytest.raises(ScenarioSemanticError):
            parse_scenario(missing_seed)

    def test_input_kind_key_mixing_rejected(self):
        gaussian_with_bins = MINIMAL.replace(
            "fwhm = 5 ps", "fwhm = 5 ps\nbin_separation = 15 ps"
        )
        with pytest.raises(ScenarioSemanticError):
            parse_scenario(gaussian_with_bins)
        bins_with_fwhm = TIME_BIN.replace(
            "bin_fwhm = 5 ps", "bin_fwhm = 5 ps\nfwhm = 5 ps"
        )
        with pytest.raises(ScenarioSemanticError):
            parse_scenario(bins_with_fwhm)

    def test_visibility_needs_time_bin_input(self):
        bad = MINIMAL + "\n[analysis]\nvisibility = true\n"
        with pytest.raises(ScenarioSemanticError):
            parse_scenario(bad)

    def test_visibility_needs_separated_bins(self):
        coincident = TIME_BIN.replace("bin_separation = 15 ps", "bin_separation = 0 ps")
        problem = [(14, "visibility analysis requires bin_separation > 0")]
        with pytest.raises(ScenarioSemanticError) as err:
            parse_scenario(coincident)
        assert err.value.diagnostics == problem
        with pytest.raises(ScenarioSemanticError) as err:
            parse_scenario(TIME_BIN, overrides={"input.bin_separation": 0.0})
        assert err.value.diagnostics == problem

    @pytest.mark.parametrize("setting", ["", "visibility = false\n"])
    def test_coincident_bins_parse_without_visibility(self, setting):
        text = TIME_BIN.replace("bin_separation = 15 ps", "bin_separation = 0 ps")
        scenario = parse_scenario(text.replace("visibility = true\n", setting))
        assert scenario.analysis.visibility is (False if setting else None)

    @pytest.mark.parametrize(
        "text, delay",
        [
            (MINIMAL, None),
            (TIME_BIN.replace("visibility = true\n", ""), 20.0 * 15.0),
            (
                TIME_BIN.replace("visibility = true\n", "").replace(
                    "bin_separation = 15 ps", "bin_separation = 0 ps"
                ),
                None,
            ),
            (TIME_BIN, 20.0 * 15.0),
            (TIME_BIN.replace("visibility = true", "visibility = false"), None),
            (TIME_BIN + "analyzer_delay = 100 ps\n", 100.0),
            (TIME_BIN.replace("visibility = true", "analyzer_delay = 100 ps"), 100.0),
        ],
        ids=[
            "gaussian", "separated-bins", "coincident-bins", "explicitly-on",
            "explicitly-off", "explicit-delay", "explicit-delay-unset-visibility",
        ],
    )
    def test_analyzer_delay_default(self, text, delay):
        """The visibility analysis runs for separated time bins only, at
        |M| * bin_separation unless the scenario sets the delay."""
        assert parse_scenario(text).analyzer_delay == delay

    def test_input_duration(self):
        assert parse_scenario(MINIMAL).input.duration == 5.0
        assert parse_scenario(TIME_BIN).input.duration == 15.0 + 5.0

    def test_grid_constraints(self):
        bad_n = MINIMAL + "\n[grid]\nn_samples = 1000\n"
        with pytest.raises(ScenarioSemanticError):
            parse_scenario(bad_n)
        bad_window = MINIMAL + "\n[grid]\nwindow = -5 ps\n"
        with pytest.raises(ScenarioSemanticError):
            parse_scenario(bad_window)

    def test_transmission_range(self):
        bad = MINIMAL.replace(
            "focal_gdd = 5 ps2", "focal_gdd = 5 ps2\ntransmission = 1.5"
        )
        with pytest.raises(ScenarioSemanticError):
            parse_scenario(bad)

    def test_carrier_ordering_enforced(self):
        bad = MINIMAL.replace(
            "focal_gdd = 5 ps2",
            "focal_gdd = 5 ps2\ninput_carrier = 1600 nm",
        )
        with pytest.raises(ScenarioSemanticError) as err:
            parse_scenario(bad)
        assert "carrier" in str(err.value)

    @pytest.mark.parametrize(
        "lines, line, input_nm, pump_nm",
        [
            ("input_carrier = 1600 nm", 9, 1600.0, 1550.0),
            ("pump_carrier = 700 nm", 0, 710.0, 700.0),
            ("input_carrier = 1550 nm", 9, 1550.0, 1550.0),
        ],
    )
    def test_carrier_text_is_the_down_conversion_lens(
        self, lines, line, input_nm, pump_nm
    ):
        bad = MINIMAL.replace("focal_gdd = 5 ps2", f"focal_gdd = 5 ps2\n{lines}")
        message = (
            "down-conversion requires the input carrier frequency to exceed the "
            f"pump's ({input_nm} nm vs {pump_nm} nm)"
        )
        with pytest.raises(ScenarioSemanticError) as err:
            parse_scenario(bad)
        assert err.value.diagnostics == [(line, message)]
        with pytest.raises(DesignError) as design:
            converted_carrier(input_nm, pump_nm, ConversionDirection.DOWN)
        assert str(design.value) == message

    def test_empty_text_is_an_error(self):
        with pytest.raises(ScenarioSemanticError):
            parse_scenario("")

    def test_input_without_system_is_an_error(self):
        with pytest.raises(ScenarioSemanticError):
            parse_scenario("[input]\nkind = gaussian\nfwhm = 5 ps\n")

    def test_multiple_problems_reported_together(self):
        bad = MINIMAL.replace("fwhm = 5 ps", "fwhm = 5 rad").replace(
            "magnification = -20", "magnification = 0"
        )
        with pytest.raises(ScenarioSemanticError) as err:
            parse_scenario(bad)
        assert len(err.value.diagnostics) >= 2

    @pytest.mark.parametrize(
        "old, new, line",
        [
            ("fwhm = 5 ps", "fwhm = inf ps", 3),
            ("fwhm = 5 ps", "fwhm = -inf", 3),
            ("magnification = -20", "magnification = nan", 7),
            ("focal_gdd = 5 ps2", "focal_gdd = 5 ps2\n[grid]\nwindow = inf ps", 10),
            ("focal_gdd = 5 ps2", "focal_gdd = 5 ps2\n[grid]\nn_samples = inf", 10),
        ],
    )
    def test_non_finite_numbers_rejected(self, old, new, line):
        with pytest.raises(ScenarioSemanticError) as err:
            parse_scenario(MINIMAL.replace(old, new))
        assert len(err.value.diagnostics) == 1
        number = new.split("= ")[-1].split()[0]
        assert err.value.diagnostics[0][0] == line
        assert f"expected a finite number, got {number!r}" in str(err.value)

    def test_every_problem_reported_together(self):
        bad = MINIMAL.replace("fwhm = 5 ps", "fwhm = -5 ps").replace(
            "focal_gdd = 5 ps2",
            "focal_gdd = 5 ps2\npump_seed_fwhm = -1 ps\ntransmission = 2\n"
            "input_carrier = 1600 nm\n[grid]\nmargin = 0",
        )
        with pytest.raises(ScenarioSemanticError) as err:
            parse_scenario(bad)
        assert err.value.diagnostics == [
            (3, "fwhm must be positive"),
            (9, "pump_seed_fwhm must be positive"),
            (10, "transmission must be in (0, 1]"),
            (
                11,
                "down-conversion requires the input carrier frequency to exceed "
                "the pump's (1600.0 nm vs 1550.0 nm)",
            ),
            (13, "margin must be positive"),
        ]


class TestDesignScenario:
    def test_design_only_scenario(self):
        text = (SCENARIO_DIR / "design_field_lens.scn").read_text(encoding="utf-8")
        scenario = parse_scenario(text)
        assert not scenario.simulatable
        assert scenario.design is not None
        assert scenario.design.input_fwhm == 5.0
        assert scenario.design.bandwidth == 1.0
        assert scenario.design.magnification == 20.0
        assert scenario.design.far_field_multiplier == 10.0  # default

    def test_design_section_builds_the_request(self):
        text = (SCENARIO_DIR / "design_far_field.scn").read_text(encoding="utf-8")
        assert parse_scenario(text).design == DesignRequest(
            5.0, 1.0, 20.0, DesignConfiguration.FAR_FIELD, far_field_multiplier=10.0
        )

    def test_design_rejects_bad_configuration(self):
        with pytest.raises(ScenarioSemanticError):
            parse_scenario(
                "[design]\nconfiguration = pinhole\ninput_fwhm = 5 ps\n"
                "bandwidth = 1 rad/ps\nmagnification = 20\n"
            )


class TestOverrides:
    def test_numeric_override_applies(self):
        scenario = parse_scenario(MINIMAL, overrides={"system.magnification": -10.0})
        assert scenario.system.magnification == -10.0

    def test_override_is_validated(self):
        with pytest.raises(ScenarioSemanticError):
            parse_scenario(MINIMAL, overrides={"system.magnification": 0.0})

    def test_override_unknown_target_rejected(self):
        with pytest.raises(ScenarioSemanticError):
            parse_scenario(MINIMAL, overrides={"system.nonsense": 1.0})
        with pytest.raises(ScenarioSemanticError):
            parse_scenario(MINIMAL, overrides={"wardrobe.depth": 1.0})

    def test_non_numeric_target_rejected(self):
        with pytest.raises(ScenarioSemanticError):
            parse_scenario(MINIMAL, overrides={"input.kind": 1.0})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_override_rejected(self, value):
        with pytest.raises(ScenarioSemanticError) as err:
            parse_scenario(MINIMAL, overrides={"system.focal_gdd": value})
        assert err.value.diagnostics == [
            (0, f"focal_gdd: expected a finite number, got {repr(value)!r}")
        ]

    def test_override_can_add_missing_key(self):
        scenario = parse_scenario(MINIMAL, overrides={"grid.n_samples": 4096})
        assert scenario.grid.n_samples == 4096
