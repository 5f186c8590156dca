"""Requirement engine: dispersion lower bounds and bandwidth requirements.

Given the input width t_i (ps), the available angular bandwidth dnu
(rad/ps), and the magnification magnitude M, emits per-element bounds for
the three ways of obtaining a faithful (flat-phase) magnified image:

* far-field: make every dispersion so large that the residual phase is
  negligible ("much greater" bounds, reported with a configurable
  multiplier);
* telescope: two lenses, residual phase cancels by construction;
* field-lens: one relay plus an image-plane corrector lens.

The telescope and field-lens rows are the stages of the inverted (-M)
system that ``imaging`` builds, sized so that the first lens's pump chirp
is t_i/dnu: ``[system] topology = telescope``, ``magnification = -20``,
``input_gdd = 5`` realizes the M = 20, t_i = 5 ps, dnu = 1 rad/ps design
row for row, with the paper's (M+1)*t_i/dnu = 105 ps^2 relay.  The upright
(+M) telescope has a (M-1)*D1 relay instead.

All dispersion bounds are magnitudes (ps^2); sign assignment belongs to the
``imaging`` layouts.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .envelope import LN2
from .errors import AT_LEAST_ONE, POSITIVE, DesignError, require
from .imaging import _LAYOUTS, TopologyKind, _stage_values

#: Default numeric stand-in for "much greater than" in far-field bounds.
DEFAULT_FAR_FIELD_MULTIPLIER = 10.0

#: A request is outside the small-dispersion derivation regime when the D1
#: bound reaches this fraction of t_i^2.
SMALL_DISPERSION_FRACTION = 0.1

class DesignConfiguration(enum.Enum):
    FAR_FIELD = "far-field"
    TELESCOPE = "telescope"
    FIELD_LENS = "field-lens"


#: The rules :class:`DesignRequest` enforces on its numeric fields.
REQUEST_RULES = {
    "input_fwhm": POSITIVE,
    "bandwidth": POSITIVE,
    "magnification": POSITIVE,
    "far_field_multiplier": AT_LEAST_ONE,
}


@dataclass(frozen=True)
class DesignRequest:
    """Inputs of the requirement calculation.

    Attributes:
        input_fwhm: input intensity FWHM t_i in ps.
        bandwidth: available angular bandwidth (FWHM) dnu in rad/ps.
        magnification: magnification magnitude M (> 0; values below 1 mean
            compression).
        configuration: which scheme to size.
        far_field_multiplier: the far-field rows' "much greater than"
            factor (>= 1).
    """

    input_fwhm: float
    bandwidth: float
    magnification: float
    configuration: DesignConfiguration
    far_field_multiplier: float = DEFAULT_FAR_FIELD_MULTIPLIER

    def __post_init__(self) -> None:
        values = {name: getattr(self, name) for name in REQUEST_RULES}
        require(DesignError, REQUEST_RULES, **values)


@dataclass(frozen=True)
class BoundEntry:
    """One element's requirement row.

    ``bound_kind`` is ">=" for hard design bounds and ">>" for far-field
    bounds; ``recommended_ps2`` carries the far-field multiplier already
    applied (equal to the raw bound for ">=" entries).  ``bandwidth_kind``
    is ">=" when the element must pass at least that bandwidth and "=" when
    the value is the required pump bandwidth itself.
    """

    element: str
    bound_kind: str
    dispersion_bound_ps2: float
    recommended_ps2: float
    bandwidth_rad_per_ps: float
    bandwidth_kind: str


@dataclass(frozen=True)
class DesignReport:
    request: DesignRequest
    entries: tuple[BoundEntry, ...]
    footnotes: tuple[str, ...]

    def entry(self, element: str) -> BoundEntry:
        for e in self.entries:
            if e.element == element:
                return e
        raise KeyError(element)


def requirements(request: DesignRequest) -> DesignReport:
    """Compute the per-element dispersion and bandwidth requirements."""
    t_i = request.input_fwhm
    dnu = request.bandwidth
    m = request.magnification
    input_bw = 4.0 * LN2 / t_i
    output_bw = 4.0 * LN2 / (m * t_i)
    footnotes: list[str] = []

    config = request.configuration
    if config is DesignConfiguration.FAR_FIELD:
        bounds = (
            ("D1", math.pi * (m + 1.0) * t_i**2 / 8.0, input_bw),
            ("Df", math.pi * m * t_i**2 / 8.0, input_bw),
            ("D2", math.pi * m**2 * t_i**2 / 8.0, output_bw),
        )
        mult = request.far_field_multiplier
        entries = tuple(
            BoundEntry(name, ">>", bound, mult * bound, bw, ">=")
            for name, bound, bw in bounds
        )
        footnotes.append(
            f'">>" bounds are reported with a x{mult:g} '
            "recommendation; adjust the multiplier to taste"
        )
    else:
        # Dispersion before the first lens passes the input, after the last
        # lens the image; every other stage needs the pump bandwidth.
        kind = TopologyKind(config.value)
        layout = _LAYOUTS[kind]
        lens_at = [i for i, (_, lens, _) in enumerate(layout) if lens is not None]
        values = _stage_values(kind, -m, t_i / dnu)
        rows = []
        for i, ((_, _, name), value) in enumerate(zip(layout, values)):
            if i < lens_at[0]:
                bw, bw_kind = input_bw, ">="
            elif i > lens_at[-1]:
                bw, bw_kind = output_bw, ">="
            else:
                bw, bw_kind = dnu, "="
            rows.append(BoundEntry(name, ">=", abs(value), abs(value), bw, bw_kind))
        entries = tuple(rows)
        if kind is TopologyKind.TELESCOPE:
            footnotes.append(
                "telescope D2 bandwidth is listed as the pump bandwidth while the "
                "magnified signal at D3 only needs 4*ln2/(M*t_i); the stricter "
                "listed value is reproduced as-is"
            )
        d1_bound = entries[0].dispersion_bound_ps2
        if d1_bound >= SMALL_DISPERSION_FRACTION * t_i**2:
            footnotes.append(
                f"D1 bound {d1_bound:g} ps^2 is not small against t_i^2 = "
                f"{t_i**2:g} ps^2; the bound derivation assumes |D1| << t_i^2, "
                "treat the numbers as approximate"
            )
    if m < 1.0:
        footnotes.append(
            f"magnification {m:g} < 1: the system compresses; bounds follow "
            "the same formulas"
        )
    return DesignReport(request, entries, tuple(footnotes))

