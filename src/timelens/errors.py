"""Exception hierarchy for the timelens package.

Every domain failure raises a subclass of :class:`TimeLensError`, so callers
(and the CLI, which maps categories to exit codes) can distinguish bad input
files from physics-level failures without string matching.
"""

from __future__ import annotations


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
