"""Declarative scenario files: parsing, validation, typed access.

Format: INI-like sections of ``key = value`` lines with ``#`` comments.
Section names, keys and enum values are case-insensitive.  Numeric values
must be finite and may carry a unit suffix which, when present, must match
the key's unit (``bin_fwhm = 5 ps``, ``largest_gdd = 1000 ps2``,
``bandwidth = 1 rad/ps``).  Unknown sections or keys are rejected, and all
problems are reported together with their line numbers.

``_SCHEMA`` holds every key's type, unit, choices and range check (the
topology, configuration and metric choices are the library's own, and each
range check is the :class:`timelens.errors.Rule` that the library call
taking the value enforces, from that call's rule table); the dataclass
each section builds holds its defaults ([design] builds ``DesignRequest``).
Only rules that involve more than one key have code of their own, and the
degenerate magnifications and the carrier order are asked of ``imaging``
and ``elements``, which state them.

A scenario describes a simulation ([input] + [system] with optional [grid],
[analysis], [output]) and/or a design request ([design]); the subcommand
picks which part it needs.
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import MISSING, dataclass, fields, replace
from typing import Callable

from .design import REQUEST_RULES, DesignConfiguration, DesignRequest
from .elements import (
    CARRIER_RULES,
    DEFAULT_INPUT_CARRIER_NM,
    DEFAULT_PUMP_CARRIER_NM,
    ELEMENT_RULES,
    LENS_RULES,
    ConversionDirection,
    converted_carrier,
)
from .envelope import PHASE_FIT_RULES, PULSE_RULES
from .errors import DesignError, Rule, ScenarioSemanticError, ScenarioSyntaxError
from .grid import GRID_RULES
from .imaging import (
    DEFAULT_MARGIN,
    DEFAULT_N_SAMPLES,
    PLAN_RULES,
    TopologyKind,
    _degenerate,
)
from .interferometry import METRICS, VISIBILITY_RULES

_SECTION_RE = re.compile(r"^\[([A-Za-z0-9_-]+)\]$")
_KEY_RE = re.compile(r"^[A-Za-z0-9_]+$")

#: Accepted spellings per canonical unit.
_UNIT_ALIASES: dict[str, set[str]] = {
    "ps": {"ps"},
    "ps2": {"ps2", "ps^2"},
    "rad": {"rad"},
    "rad/ps": {"rad/ps"},
    "nm": {"nm"},
}


@dataclass(frozen=True)
class _KeySpec:
    kind: str  # "float" | "int" | "bool" | "enum" | "string"
    unit: str | None = None
    choices: tuple[str, ...] = ()
    check: Rule | None = None
    convert: Callable[[str], object] = str  # an enum choice to its value
    field: str | None = None  # the spec field, when not named like the key


def _enum_key(kind: type[enum.Enum]) -> _KeySpec:
    """An enum key whose choices are ``kind``'s values, in definition order."""
    return _KeySpec("enum", choices=tuple(m.value for m in kind), convert=kind)


_SCHEMA: dict[str, dict[str, _KeySpec]] = {
    "input": {
        "kind": _KeySpec("enum", choices=("gaussian", "time-bin")),
        "fwhm": _KeySpec("float", unit="ps", check=PULSE_RULES["fwhm"]),
        "center": _KeySpec("float", unit="ps"),
        "bin_fwhm": _KeySpec("float", unit="ps", check=PULSE_RULES["bin_fwhm"]),
        "bin_separation": _KeySpec(
            "float", unit="ps", check=PULSE_RULES["separation"]
        ),
        "relative_phase": _KeySpec("float", unit="rad"),
    },
    "system": {
        "topology": _enum_key(TopologyKind),
        "magnification": _KeySpec("float"),
        "focal_gdd": _KeySpec("float", unit="ps2", check=LENS_RULES["focal_gdd"]),
        "input_gdd": _KeySpec("float", unit="ps2", check=LENS_RULES["focal_gdd"]),
        "largest_gdd": _KeySpec("float", unit="ps2", check=LENS_RULES["focal_gdd"]),
        "pump": _KeySpec("enum", choices=("ideal", "pumped")),
        "pump_seed_fwhm": _KeySpec(
            "float", unit="ps", check=LENS_RULES["pump_seed_fwhm"]
        ),
        "tod_ratio": _KeySpec("float", unit="ps"),
        "transmission": _KeySpec("float", check=ELEMENT_RULES["transmission"]),
        "input_carrier": _KeySpec(
            "float",
            unit="nm",
            check=CARRIER_RULES["input_carrier_nm"],
            field="input_carrier_nm",
        ),
        "pump_carrier": _KeySpec(
            "float",
            unit="nm",
            check=CARRIER_RULES["pump_carrier_nm"],
            field="pump_carrier_nm",
        ),
    },
    "grid": {
        "n_samples": _KeySpec("int", check=GRID_RULES["n_samples"]),
        "margin": _KeySpec("float", check=PLAN_RULES["margin"]),
        "window": _KeySpec("float", unit="ps", check=PLAN_RULES["window"]),
    },
    "analysis": {
        "visibility": _KeySpec("bool"),
        "analyzer_delay": _KeySpec(
            "float", unit="ps", check=VISIBILITY_RULES["bin_separation"]
        ),
        "analyzer_phase": _KeySpec("float", unit="rad"),
        "metric": _KeySpec("enum", choices=METRICS),
        "phase_fit_window": _KeySpec(
            "float", check=PHASE_FIT_RULES["window_fwhm_fraction"]
        ),
    },
    "output": {
        "dir": _KeySpec("string"),
    },
    "design": {
        "configuration": _enum_key(DesignConfiguration),
        "input_fwhm": _KeySpec("float", unit="ps", check=REQUEST_RULES["input_fwhm"]),
        "bandwidth": _KeySpec(
            "float", unit="rad/ps", check=REQUEST_RULES["bandwidth"]
        ),
        "magnification": _KeySpec("float", check=REQUEST_RULES["magnification"]),
        "far_field_multiplier": _KeySpec(
            "float", check=REQUEST_RULES["far_field_multiplier"]
        ),
    },
}


@dataclass(frozen=True)
class InputSpec:
    kind: str
    fwhm: float | None = None
    center: float = 0.0
    bin_fwhm: float | None = None
    bin_separation: float | None = None
    relative_phase: float = 0.0

    @property
    def extent(self) -> float:
        """Temporal support estimate for grid planning, ps: the width of a
        window centered on t = 0 that holds the input's 4-FWHM support."""
        if self.kind == "gaussian":
            return 4.0 * self.fwhm + 2.0 * abs(self.center)
        return self.bin_separation + 4.0 * self.bin_fwhm

    @property
    def feature_fwhm(self) -> float:
        return self.fwhm if self.kind == "gaussian" else self.bin_fwhm

    @property
    def duration(self) -> float:
        """The far-field test's input duration t_i, ps: the Gaussian's FWHM,
        or the bins' span, separation plus one bin FWHM."""
        if self.kind == "gaussian":
            return self.fwhm
        return self.bin_separation + self.bin_fwhm

    def imaged(self, magnification: float) -> InputSpec:
        """The ideal image a0(t/M) at ``magnification`` M, up to a global phase
        and 1/sqrt(|M|): the same pulse with widths and bin separation times
        |M|, center times M, and bin phase negated where M < 0 reverses it."""
        m, psi = abs(magnification), self.relative_phase
        if self.kind == "gaussian":
            return replace(self, fwhm=m * self.fwhm, center=magnification * self.center)
        return replace(
            self, bin_fwhm=m * self.bin_fwhm, bin_separation=m * self.bin_separation,
            relative_phase=psi if magnification > 0 else -psi,
        )


@dataclass(frozen=True)
class SystemSpec:
    topology: TopologyKind
    magnification: float
    focal_gdd: float | None = None
    input_gdd: float | None = None
    largest_gdd: float | None = None
    pump_seed_fwhm: float | None = None  # None means ideal lenses
    tod_ratio: float = 0.0
    transmission: float = 1.0
    input_carrier_nm: float = DEFAULT_INPUT_CARRIER_NM
    pump_carrier_nm: float = DEFAULT_PUMP_CARRIER_NM


@dataclass(frozen=True)
class GridSpec:
    n_samples: int = DEFAULT_N_SAMPLES
    margin: float = DEFAULT_MARGIN
    window: float | None = None


@dataclass(frozen=True)
class AnalysisSpec:
    visibility: bool | None = None  # None: see Scenario.analyzer_delay
    analyzer_delay: float | None = None  # None: see Scenario.analyzer_delay
    analyzer_phase: float | None = None
    metric: str = "energy"
    phase_fit_window: float = 1.0


@dataclass(frozen=True)
class Scenario:
    input: InputSpec | None
    system: SystemSpec | None
    grid: GridSpec
    analysis: AnalysisSpec
    design: DesignRequest | None
    output_dir: str | None

    @property
    def simulatable(self) -> bool:
        return self.input is not None and self.system is not None

    @property
    def analyzer_delay(self) -> float | None:
        """Analyzer delay of the visibility analysis, ps: the image's bin
        separation (:meth:`InputSpec.imaged`) unless set.  None when the
        analysis is off: ``visibility = false``, or unset for an input that
        cannot interfere (:func:`_no_interference`)."""
        spec, analysis = self.input, self.analysis
        if analysis.visibility is False or _no_interference(
            spec.kind, spec.bin_separation
        ):
            return None
        if analysis.analyzer_delay is None:
            return spec.imaged(self.system.magnification).bin_separation
        return analysis.analyzer_delay


def _no_interference(kind: str | None, bin_separation: float | None) -> str | None:
    """Why an input cannot interfere with its delayed copy, or None when it
    can; a ``kind`` of None (not parsed) leaves only the separation."""
    if kind not in (None, "time-bin"):
        return "visibility analysis requires a time-bin input"
    if bin_separation == 0.0:
        return "visibility analysis requires bin_separation > 0"
    return None


#: The spec each section builds; its fields without a default are required.
_SPECS = {
    "input": InputSpec,
    "system": SystemSpec,
    "grid": GridSpec,
    "analysis": AnalysisSpec,
    "design": DesignRequest,
}
_REQUIRED = {
    name: tuple(f.name for f in fields(cls) if f.default is MISSING)
    for name, cls in _SPECS.items()
}

#: A section's raw entries: key -> (line number, value text).
_Entries = dict[str, tuple[int, str]]


def key_spec(path: str) -> _KeySpec | None:
    """Schema entry for a ``section.key`` path, or None if unknown."""
    section, _, key = path.partition(".")
    return _SCHEMA.get(section.strip().lower(), {}).get(key.strip().lower())


def _parse_raw(
    text: str, syntax: list[tuple[int, str]], problems: list[tuple[int, str]]
) -> dict[str, _Entries]:
    sections: dict[str, _Entries] = {}
    current: str | None = None
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        header = _SECTION_RE.match(line)
        if header:
            current = header.group(1).lower()
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            syntax.append(
                (lineno, f"expected 'key = value' or '[section]', got {line!r}")
            )
            continue
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if not _KEY_RE.match(key):
            syntax.append((lineno, f"malformed key {key!r}"))
        elif current is None:
            syntax.append((lineno, f"key {key!r} appears before any [section] header"))
        elif not value:
            syntax.append((lineno, f"key {key!r} has no value"))
        elif key in sections[current]:
            problems.append((lineno, f"duplicate key {key!r} in section [{current}]"))
        else:
            sections[current][key] = (lineno, value)
    return sections


def _coerce(key: str, spec: _KeySpec, text: str) -> object:
    """``text`` as a value of ``spec``; raises ValueError with the diagnostic."""
    if spec.kind == "string":
        return text
    if spec.kind == "bool":
        if text.lower() not in ("true", "false"):
            raise ValueError(f"{key}: expected true or false, got {text!r}")
        return text.lower() == "true"
    if spec.kind == "enum":
        if text.lower() not in spec.choices:
            raise ValueError(
                f"{key}: expected one of {', '.join(spec.choices)}, got {text!r}"
            )
        return spec.convert(text.lower())
    number, *rest = text.split()
    unit = " ".join(rest)
    if unit and spec.unit is None:
        raise ValueError(f"{key} is dimensionless but has unit {unit!r}")
    if unit and unit not in _UNIT_ALIASES[spec.unit]:
        raise ValueError(f"{key}: unit mismatch, expected {spec.unit!r}, got {unit!r}")
    try:
        value = float(number)
    except ValueError:
        raise ValueError(f"{key}: expected a number, got {number!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"{key}: expected a finite number, got {number!r}")
    if spec.kind == "int":
        if value != int(value):
            raise ValueError(f"{key}: expected an integer, got {number!r}")
        value = int(value)
    if spec.check is not None and not spec.check.holds(value):
        raise ValueError(f"{key} {spec.check.reason}")
    return value


def _missing(
    section: str, keys: tuple[str, ...], raw: _Entries
) -> list[tuple[int, str]]:
    return [
        (0, f"section [{section}] is missing required key {key!r}")
        for key in keys
        if key not in raw
    ]


def _check_input(raw: _Entries, values: dict) -> list[tuple[int, str]]:
    """Each input kind requires some of its keys and rejects the other's."""
    kind = values.get("kind")
    if kind is None:
        return []
    required = {"gaussian": ("fwhm",), "time-bin": ("bin_fwhm", "bin_separation")}
    accepted = {
        "gaussian": ("fwhm", "center"),
        "time-bin": ("bin_fwhm", "bin_separation", "relative_phase"),
    }
    other = "time-bin" if kind == "gaussian" else "gaussian"
    return _missing("input", required[kind], raw) + [
        (raw[key][0], f"{key}: only valid for kind = {other}")
        for key in accepted[other]
        if key in raw
    ]


def _check_system(raw: _Entries, values: dict) -> list[tuple[int, str]]:
    """Degenerate magnifications (:func:`timelens.imaging._degenerate`), the
    sizing key, the pump mode and the carrier order (a down-conversion
    :func:`timelens.elements.converted_carrier`).  Consumes ``pump``, which
    the spec records as ``pump_seed_fwhm`` alone."""
    problems: list[tuple[int, str]] = []

    def report(key: str, message: str) -> None:
        problems.append((raw[key][0] if key in raw else 0, message))

    topology = values.get("topology")
    if "magnification" in values:
        why = _degenerate(topology, values["magnification"])
        if why is not None:
            report("magnification", why)

    if topology is not None:
        if topology is TopologyKind.TELESCOPE:
            wrong, sized_by = "focal_gdd", "input_gdd"
        else:
            wrong, sized_by = "input_gdd", "focal_gdd"
        if wrong in raw:
            report(wrong, f"{wrong}: {topology.value} systems are sized by {sized_by}")
        found = sum(key in raw for key in (sized_by, "largest_gdd"))
        if found != 1:
            problems.append(
                (
                    0,
                    f"section [system] needs exactly one of {sized_by} / "
                    f"largest_gdd (found {found})",
                )
            )

    pump = values.pop("pump", None)
    if pump == "ideal" and "pump_seed_fwhm" in raw:
        report("pump_seed_fwhm", "pump_seed_fwhm conflicts with pump = ideal")
    if pump == "pumped" and "pump_seed_fwhm" not in raw:
        report("pump", "pump = pumped requires pump_seed_fwhm")

    # Only valid carriers are checked; an invalid one is reported already.
    if all(key in values for key in ("input_carrier", "pump_carrier") if key in raw):
        try:
            converted_carrier(
                values.get("input_carrier", DEFAULT_INPUT_CARRIER_NM),
                values.get("pump_carrier", DEFAULT_PUMP_CARRIER_NM),
                ConversionDirection.DOWN,
            )
        except DesignError as exc:
            report("input_carrier", str(exc))
    return problems


def parse_scenario(
    text: str, overrides: dict[str, float] | None = None
) -> Scenario:
    """Parse and validate scenario text.

    Args:
        text: UTF-8 scenario source.
        overrides: optional {"section.key": value} replacements applied
            before validation (used by parameter sweeps).

    Raises:
        ScenarioSyntaxError: structurally malformed text (all offending
            lines listed).
        ScenarioSemanticError: unknown keys, unit/type mismatches, missing
            or out-of-range values (all listed with line numbers).
    """
    syntax: list[tuple[int, str]] = []
    problems: list[tuple[int, str]] = []
    raw = _parse_raw(text, syntax, problems)
    if syntax:
        raise ScenarioSyntaxError(sorted(syntax))

    for path, value in (overrides or {}).items():
        spec = key_spec(path)
        if spec is None or spec.kind not in ("float", "int"):
            problems.append(
                (0, f"override target {path!r} is not a numeric scenario key")
            )
            continue
        section, _, key = path.partition(".")
        raw.setdefault(section.strip().lower(), {})[key.strip().lower()] = (
            0,
            repr(float(value)),
        )

    values: dict[str, dict] = {}
    for name, entries in raw.items():
        if name not in _SCHEMA:
            # one diagnostic per unknown section, at its first key line
            first = min((line for line, _ in entries.values()), default=0)
            problems.append((first, f"unknown section [{name}]"))
            continue
        values[name] = {}
        for key, (line, value_text) in entries.items():
            if key not in _SCHEMA[name]:
                problems.append((line, f"unknown key {key!r} in section [{name}]"))
                continue
            try:
                values[name][key] = _coerce(key, _SCHEMA[name][key], value_text)
            except ValueError as exc:
                problems.append((line, str(exc)))
        problems += _missing(name, _REQUIRED.get(name, ()), entries)

    if "input" in values:
        problems += _check_input(raw["input"], values["input"])
    if "system" in values:
        problems += _check_system(raw["system"], values["system"])
    inputs = values.get("input", {})
    if values.get("analysis", {}).get("visibility"):
        why = _no_interference(inputs.get("kind"), inputs.get("bin_separation"))
        if why is not None:
            problems.append((raw["analysis"]["visibility"][0], why))

    has_simulation = "input" in raw or "system" in raw
    if has_simulation:
        if "input" not in raw:
            problems.append((0, "simulation scenarios need an [input] section"))
        if "system" not in raw:
            problems.append((0, "simulation scenarios need a [system] section"))
    if not has_simulation and "design" not in raw:
        problems.append(
            (0, "scenario defines neither a simulation ([input]/[system]) nor a "
                "design request ([design])")
        )
    if problems:
        raise ScenarioSemanticError(sorted(problems))

    specs = {
        name: cls(
            **{
                _SCHEMA[name][key].field or key: value
                for key, value in values[name].items()
            }
        )
        for name, cls in _SPECS.items()
        if name in values
    }
    return Scenario(
        input=specs.get("input"),
        system=specs.get("system"),
        grid=specs.get("grid", GridSpec()),
        analysis=specs.get("analysis", AnalysisSpec()),
        design=specs.get("design"),
        output_dir=values.get("output", {}).get("dir"),
    )
