"""Exception hierarchy for the timelens package.

Every domain failure raises a subclass of :class:`TimeLensError`, so callers
(and the CLI, which maps categories to exit codes) can distinguish bad input
files from physics-level failures without string matching.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping
from dataclasses import dataclass


@dataclass(frozen=True)
class Rule:
    """A scalar input rule: ``holds`` admits a value, ``reason`` says why a
    value fails it.  Each rule is stated once, in the rule table of the
    constructor that enforces it; the scenario schema reads the same object."""

    holds: Callable[[float], bool]
    reason: str


POSITIVE = Rule(lambda v: 0.0 < v < math.inf, "must be positive")
NONNEGATIVE = Rule(lambda v: 0.0 <= v < math.inf, "must be nonnegative")
NONZERO = Rule(lambda v: v != 0.0 and math.isfinite(v), "must be nonzero")
FINITE = Rule(math.isfinite, "must be finite")
UNIT_INTERVAL = Rule(lambda v: 0.0 < v <= 1.0, "must be in (0, 1]")
AT_LEAST_ONE = Rule(lambda v: 1.0 <= v < math.inf, "must be >= 1")


def require(error: type[Exception], rules: Mapping[str, Rule], **values) -> None:
    """Raise ``error("<name> <reason>, got <value>")`` for the first of the
    named ``values`` that its rule in ``rules`` refuses."""
    for name, value in values.items():
        rule = rules[name]
        if not rule.holds(value):
            raise error(f"{name} {rule.reason}, got {value!r}")


class TimeLensError(Exception):
    """Base class for all domain errors raised by this package."""


class WindowOverflowError(TimeLensError):
    """A waveform does not fit the time window (construction, shift, or
    dispersion would wrap around the grid boundary)."""


class UndersampledError(TimeLensError):
    """The sample spacing is too coarse for a waveform's spectrum (the
    spectrum would reach the band edge and alias)."""


class DegenerateInputError(TimeLensError):
    """An operation received an all-zero / zero-energy envelope."""


class InsufficientSupportError(TimeLensError):
    """Too few samples qualify for a fit (intensity support too sparse)."""


class CarrierMismatchError(TimeLensError):
    """Envelope carrier wavelength does not match a lens input carrier."""


class DesignError(TimeLensError):
    """Invalid or degenerate design parameters (magnification, dispersions,
    element coefficients, design-request fields)."""


class ScenarioError(TimeLensError):
    """Base class for scenario-file problems; carries line-numbered
    diagnostics."""

    def __init__(self, diagnostics: list[tuple[int, str]]):
        self.diagnostics = list(diagnostics)
        lines = "\n".join(f"  line {n}: {msg}" for n, msg in self.diagnostics)
        super().__init__(f"{len(self.diagnostics)} problem(s) in scenario:\n{lines}")


class ScenarioSyntaxError(ScenarioError):
    """Structurally malformed scenario text (unparseable lines/sections)."""


class ScenarioSemanticError(ScenarioError):
    """Well-formed scenario text with invalid content (unknown keys, unit
    mismatches, missing fields, out-of-range values)."""
