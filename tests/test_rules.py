"""Each scalar input rule has one definition, in the rule table of the library
call that enforces it: the scenario schema holds that same object, and the
library refuses every value the parser refuses, naming the argument."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from timelens import (
    ConversionDirection,
    DesignConfiguration,
    DesignError,
    DesignRequest,
    DispersiveElement,
    SystemSpec,
    TimeGrid,
    TimeLens,
    TopologyKind,
    converted_carrier,
    field_lens_system,
    gaussian_pulse,
    phase_fit_quadratic,
    plan_grid,
    telescope_system,
    time_bin_pulse,
    visibility_experiment,
)
from timelens.design import REQUEST_RULES
from timelens.elements import CARRIER_RULES, ELEMENT_RULES, LENS_RULES
from timelens.envelope import PHASE_FIT_RULES, PULSE_RULES
from timelens.grid import GRID_RULES
from timelens.imaging import PLAN_RULES
from timelens.interferometry import METRICS, VISIBILITY_RULES
from timelens.runner import build_topology
from timelens.scenario import _SCHEMA, _coerce

GRID = TimeGrid(2**12, 400.0 / 2**12)
SYSTEM = field_lens_system(-20.0, 5.0)
DOWN, UP = ConversionDirection.DOWN, ConversionDirection.UP
FAR_FIELD = DesignConfiguration.FAR_FIELD
FIELD_LENS = TopologyKind.FIELD_LENS


def _bins():
    return time_bin_pulse(GRID, 5.0, 20.0)


#: (section, key) -> (owner's rule table, parameter, call of the owner with
#: the value, error type).  [system] input_gdd and largest_gdd size the
#: first lens, whose pump chirp is that lens's focal_gdd.
OWNERS = {
    ("input", "fwhm"): (
        PULSE_RULES, "fwhm", lambda v: gaussian_pulse(GRID, v), ValueError
    ),
    ("input", "bin_fwhm"): (
        PULSE_RULES, "bin_fwhm", lambda v: time_bin_pulse(GRID, v, 20.0), ValueError
    ),
    ("input", "bin_separation"): (
        PULSE_RULES, "separation", lambda v: time_bin_pulse(GRID, 5.0, v), ValueError
    ),
    ("system", "focal_gdd"): (
        LENS_RULES, "focal_gdd", lambda v: TimeLens(DOWN, v), DesignError
    ),
    ("system", "input_gdd"): (
        LENS_RULES, "focal_gdd", lambda v: telescope_system(20.0, v), DesignError
    ),
    ("system", "largest_gdd"): (
        LENS_RULES,
        "focal_gdd",
        lambda v: build_topology(SystemSpec(FIELD_LENS, -20.0, largest_gdd=v)),
        DesignError,
    ),
    ("system", "pump_seed_fwhm"): (
        LENS_RULES, "pump_seed_fwhm", lambda v: TimeLens(DOWN, 5.0, v), DesignError
    ),
    ("system", "transmission"): (
        ELEMENT_RULES,
        "transmission",
        lambda v: DispersiveElement(1.0, transmission=v),
        DesignError,
    ),
    ("system", "input_carrier"): (
        CARRIER_RULES,
        "input_carrier_nm",
        lambda v: converted_carrier(v, 1550.0, UP),
        DesignError,
    ),
    ("system", "pump_carrier"): (
        CARRIER_RULES,
        "pump_carrier_nm",
        lambda v: converted_carrier(710.0, v, UP),
        DesignError,
    ),
    ("grid", "n_samples"): (
        GRID_RULES, "n_samples", lambda v: TimeGrid(v, 0.1), ValueError
    ),
    ("grid", "margin"): (
        PLAN_RULES,
        "margin",
        lambda v: plan_grid(SYSTEM, 20.0, 0.5, margin=v),
        ValueError,
    ),
    ("grid", "window"): (
        PLAN_RULES,
        "window",
        lambda v: plan_grid(SYSTEM, 20.0, 0.5, window=v),
        ValueError,
    ),
    ("analysis", "analyzer_delay"): (
        VISIBILITY_RULES,
        "bin_separation",
        lambda v: visibility_experiment(_bins(), v),
        ValueError,
    ),
    ("analysis", "phase_fit_window"): (
        PHASE_FIT_RULES,
        "window_fwhm_fraction",
        lambda v: phase_fit_quadratic(gaussian_pulse(GRID, 5.0), v),
        ValueError,
    ),
    ("design", "input_fwhm"): (
        REQUEST_RULES,
        "input_fwhm",
        lambda v: DesignRequest(v, 1.0, 20.0, FAR_FIELD),
        DesignError,
    ),
    ("design", "bandwidth"): (
        REQUEST_RULES,
        "bandwidth",
        lambda v: DesignRequest(5.0, v, 20.0, FAR_FIELD),
        DesignError,
    ),
    ("design", "magnification"): (
        REQUEST_RULES,
        "magnification",
        lambda v: DesignRequest(5.0, 1.0, v, FAR_FIELD),
        DesignError,
    ),
    ("design", "far_field_multiplier"): (
        REQUEST_RULES,
        "far_field_multiplier",
        lambda v: DesignRequest(5.0, 1.0, 20.0, FAR_FIELD, far_field_multiplier=v),
        DesignError,
    ),
}

#: Values to try on every key; each the parser refuses must be refused by
#: the owner too.
CANDIDATES = (-5.0, -1.0, -0.0, 0.0, 0.5, 2.0, 24.0, math.inf, -math.inf, math.nan)


def test_every_range_check_is_its_owners_rule():
    checked = {
        (section, key)
        for section, specs in _SCHEMA.items()
        for key, spec in specs.items()
        if spec.check is not None
    }
    assert checked == set(OWNERS)
    for (section, key), (rules, name, _, _) in OWNERS.items():
        assert _SCHEMA[section][key].check is rules[name], (section, key)


def test_choice_lists_are_the_librarys():
    choices = {
        (section, key): spec
        for section, specs in _SCHEMA.items()
        for key, spec in specs.items()
        if spec.kind == "enum"
    }
    assert choices.pop(("analysis", "metric")).choices is METRICS
    for path, kind in {
        ("system", "topology"): TopologyKind,
        ("design", "configuration"): DesignConfiguration,
    }.items():
        spec = choices.pop(path)
        assert spec.convert is kind
        assert spec.choices == tuple(member.value for member in kind)
    # scenario vocabulary with no library call behind it: the input kind
    # picks a pulse constructor, and the pump mode whether a seed is given
    assert set(choices) == {("input", "kind"), ("system", "pump")}


@pytest.mark.parametrize("path", list(OWNERS), ids="{0[0]}.{0[1]}".format)
def test_owner_refuses_what_the_parser_refuses(path):
    section, key = path
    spec = _SCHEMA[section][key]
    rules, name, call, error = OWNERS[path]
    refused = 0
    for value in CANDIDATES:
        try:
            _coerce(key, spec, repr(value))
        except ValueError:
            refused += 1
            if spec.kind == "int" and math.isfinite(value) and value == int(value):
                value = int(value)  # the parser's own type for an int key
            prefix = f"{name} {rules[name].reason}, got "
            with pytest.raises(error, match=f"^{re.escape(prefix)}"):
                call(value)
    assert refused >= 3  # every rule refuses infinities and NaN at least


@pytest.mark.parametrize(
    ("value", "holds"),
    [
        (np.int64(1024), True),
        (np.uint8(128), True),
        (True, False),
        (np.bool_(True), False),
        (3.0, False),
        (np.float64(1024.0), False),
    ],
    ids=["int64", "uint8", "bool", "numpy-bool", "float", "float64"],
)
def test_sample_count_rule_takes_integers_of_any_type(value, holds):
    # numbers.Integral admits numpy's integers, as (int, np.integer) did,
    # without reading numpy; bools are too small to pass either way
    assert GRID_RULES["n_samples"].holds(value) == holds


@pytest.mark.parametrize(
    ("call", "error", "message"),
    [
        (
            lambda: TimeLens(DOWN, 5.0, pump_seed_fwhm=math.inf),
            DesignError,
            "pump_seed_fwhm must be positive, got inf",
        ),
        (
            lambda: converted_carrier(math.inf, 1550.0, DOWN),
            DesignError,
            "input_carrier_nm must be positive, got inf",
        ),
        (
            lambda: DesignRequest(5.0, 1.0, 20.0, FAR_FIELD, math.inf),
            DesignError,
            "far_field_multiplier must be >= 1, got inf",
        ),
        (
            lambda: plan_grid(SYSTEM, 20.0, 0.5, margin=0),
            ValueError,
            "margin must be positive, got 0",
        ),
        (
            lambda: plan_grid(SYSTEM, 20.0, 0.5, window=-5),
            ValueError,
            "window must be positive, got -5",
        ),
        (
            lambda: phase_fit_quadratic(gaussian_pulse(GRID, 5.0), 0.0),
            ValueError,
            "window_fwhm_fraction must be positive, got 0.0",
        ),
    ],
    ids=[
        "infinite-pump-seed",
        "infinite-carrier",
        "infinite-far-field-multiplier",
        "zero-margin",
        "negative-window",
        "zero-phase-fit-window",
    ],
)
def test_values_the_library_once_accepted_or_misnamed(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message
