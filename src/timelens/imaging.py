"""Imaging-system topologies: solvers, assembly, grid planning, execution.

Three configurations are supported, all built from dispersive elements and
time lenses:

* single-lens: input GDD D1, one lens, output GDD D2.  Imaging requires
  1/D1 + 1/D2 = 1/Df with magnification M = -D2/D1 (negative for
  all-positive dispersion chains); the image then carries a residual
  quadratic phase t^2/(2*M*Df).
* field-lens: the single-lens chain plus a corrector lens at the image plane
  whose phase -t^2/(2*M*Df) cancels the residual phase.  Its pump chirp is
  Dr = M*Df (an up-conversion lens).
* telescope: two lenses with an intermediate GDD; the design rule used here
  is D1 paired with lens chirp D1 (down-conversion), D2 = D1*(1-M), lens
  chirp M*D1 (up-conversion), D3 = -M*D1.  In the conventional focal-GDD
  labels this is Df1 = -D1 and Df2 = M*D1 = -D3; both the residual phase and
  the net chirp cancel, giving a flat-phase image with magnification +M.

One layout table lists each configuration's stages in order, as (label,
lens direction or None for a dispersive element), and one helper gives each
stage's GDD or pump chirp from the solvers for a magnification and a sizing
value (the main-lens focal GDD, or a telescope's input GDD).  The builders,
``verify_topology`` and ``sizing_divisor`` all read that table.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Union

import numpy as np

from .elements import (
    DEFAULT_INPUT_CARRIER_NM,
    DEFAULT_PUMP_CARRIER_NM,
    ConversionDirection,
    DispersiveElement,
    TimeLens,
    apply_dispersion,
    apply_time_lens,
    stretched_pump_fwhm,
)
from .envelope import SampledEnvelope
from .errors import DesignError, TimeLensError
from .grid import TimeGrid

#: Relative tolerance for the exact design identities.
DESIGN_RTOL = 1e-12

#: Default far-field threshold: |residual phase span| <= pi/10.
FAR_FIELD_THRESHOLD_RATIO = 0.1

Element = Union[DispersiveElement, TimeLens]


class TopologyKind(enum.Enum):
    SINGLE_LENS = "single-lens"
    FIELD_LENS = "field-lens"
    TELESCOPE = "telescope"


# ---------------------------------------------------------------------------
# closed-form condition solvers
# ---------------------------------------------------------------------------


def solve_single_lens(magnification: float, focal_gdd: float) -> tuple[float, float]:
    """Input/output GDD pair (D1, D2) imaging at the given magnification.

    D1 = Df*(M-1)/M and D2 = -M*D1, which satisfy 1/D1 + 1/D2 = 1/Df and
    M = -D2/D1 identically.  M in {0, 1} is degenerate (M = 1 forces D1 = 0,
    no imaging).
    """
    if magnification in (0.0, 1.0):
        raise DesignError(
            f"magnification {magnification} is degenerate: no single-lens "
            "imaging solution exists"
        )
    if focal_gdd == 0.0:
        raise DesignError("focal_gdd must be nonzero")
    d1 = focal_gdd * (magnification - 1.0) / magnification
    d2 = -magnification * d1
    return d1, d2


def solve_field_lens(
    magnification: float, focal_gdd: float
) -> tuple[float, float, float]:
    """(D1, D2, Dr) for the field-lens configuration; Dr = M*Df is the pump
    chirp of the image-plane corrector lens."""
    d1, d2 = solve_single_lens(magnification, focal_gdd)
    return d1, d2, magnification * focal_gdd


def solve_telescope(
    magnification: float, input_gdd: float
) -> tuple[float, float, float, float]:
    """(Df1, D2, Df2, D3) for a telescope with input GDD D1.

    Df1 = -D1, D3 = -M*D1, Df2 = M*D1 = -D3, D2 = D1 + D3 = D1*(1-M).
    M = 1 is degenerate (D2 = 0, back-to-back conjugate lenses) but still
    executable; D1 = 0 has no solution.
    """
    if magnification == 0.0:
        raise DesignError("telescope magnification must be nonzero")
    if input_gdd == 0.0:
        raise DesignError("telescope input_gdd must be nonzero")
    df1 = -input_gdd
    d3 = -magnification * input_gdd
    df2 = magnification * input_gdd
    d2 = input_gdd + d3
    return df1, d2, df2, d3


def residual_phase(magnification: float, focal_gdd: float, t: float) -> float:
    """Quadratic phase t^2/(2*M*Df) (rad) left on a single-lens image at
    time offset t from the image center."""
    if magnification == 0.0 or focal_gdd == 0.0:
        raise DesignError("magnification and focal_gdd must be nonzero")
    return t**2 / (2.0 * magnification * focal_gdd)


def residual_span(magnification: float, input_fwhm: float, focal_gdd: float) -> float:
    """Residual-phase variation M*t_i^2/(8*Df) (rad) across an input of
    width t_i; equals residual_phase evaluated at the image half-extent
    M*t_i/2."""
    if magnification == 0.0 or focal_gdd == 0.0:
        raise DesignError("magnification and focal_gdd must be nonzero")
    return magnification * input_fwhm**2 / (8.0 * focal_gdd)


@dataclass(frozen=True)
class FarFieldCheck:
    """Result of the far-field (negligible residual phase) test."""

    passed: bool
    margin: float  # |residual span| / pi
    threshold_ratio: float


def check_far_field(
    magnification: float,
    input_fwhm: float,
    focal_gdd: float,
    threshold_ratio: float = FAR_FIELD_THRESHOLD_RATIO,
) -> FarFieldCheck:
    """Whether the residual phase span is negligible: |span| <= ratio*pi."""
    span = residual_span(magnification, input_fwhm, focal_gdd)
    margin = abs(span) / np.pi
    return FarFieldCheck(
        passed=bool(margin <= threshold_ratio),
        margin=float(margin),
        threshold_ratio=threshold_ratio,
    )


# ---------------------------------------------------------------------------
# topology assembly
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SystemTopology:
    """Ordered element chain realizing one imaging configuration.

    Attributes:
        kind: which configuration the chain realizes.
        magnification: signed image magnification M = -D2/D1 (single/field)
            or +M (telescope).
        stages: the ordered elements (DispersiveElement / TimeLens).
    """

    kind: TopologyKind
    magnification: float
    stages: tuple[Element, ...]

    def dispersive_elements(self) -> tuple[DispersiveElement, ...]:
        return tuple(e for e in self.stages if isinstance(e, DispersiveElement))

    def lenses(self) -> tuple[TimeLens, ...]:
        return tuple(e for e in self.stages if isinstance(e, TimeLens))

    @property
    def stage_carriers_nm(self) -> tuple[float, ...]:
        """Expected signal carrier after each stage: the first lens's input
        carrier, changed to each lens's output carrier from that lens on."""
        carrier = self.lenses()[0].input_carrier_nm
        carriers = []
        for element in self.stages:
            if isinstance(element, TimeLens):
                carrier = element.output_carrier_nm
            carriers.append(carrier)
        return tuple(carriers)


#: Stage order of each configuration: (label, lens direction, or None for a
#: dispersive element).  ``_stage_values`` gives each stage's value.
_LAYOUTS: dict[TopologyKind, tuple[tuple[str, ConversionDirection | None], ...]] = {
    TopologyKind.SINGLE_LENS: (
        ("input_gdd", None),
        ("main_lens", ConversionDirection.DOWN),
        ("output_gdd", None),
    ),
    TopologyKind.FIELD_LENS: (
        ("input_gdd", None),
        ("main_lens", ConversionDirection.DOWN),
        ("output_gdd", None),
        ("field_lens", ConversionDirection.UP),
    ),
    TopologyKind.TELESCOPE: (
        ("input_gdd", None),
        ("lens_1", ConversionDirection.DOWN),
        ("relay_gdd", None),
        ("lens_2", ConversionDirection.UP),
        ("output_gdd", None),
    ),
}


def _stage_values(
    kind: TopologyKind, magnification: float, sizing: float
) -> tuple[float, ...]:
    """Each stage's GDD, or pump chirp for a lens, in layout order.  The
    sizing value is the first lens's pump chirp."""
    if kind is TopologyKind.TELESCOPE:
        df1, d2, df2, d3 = solve_telescope(magnification, sizing)
        return sizing, -df1, d2, df2, d3
    d1, d2, dr = solve_field_lens(magnification, sizing)
    if kind is TopologyKind.FIELD_LENS:
        return d1, sizing, d2, dr
    return d1, sizing, d2


def sizing_divisor(kind: TopologyKind, magnification: float) -> float:
    """|largest stage GDD or pump chirp| / |sizing value|: dividing a
    requested largest dispersion by it recovers the sizing value."""
    return max(abs(value) for value in _stage_values(kind, magnification, 1.0))


def assemble_system(
    kind: TopologyKind,
    magnification: float,
    sizing: float,
    pump_seed_fwhm: float | None = None,
    input_carrier_nm: float = DEFAULT_INPUT_CARRIER_NM,
    pump_carrier_nm: float = DEFAULT_PUMP_CARRIER_NM,
    tod_ratio: float = 0.0,
    transmission: float = 1.0,
) -> SystemTopology:
    """Build ``kind``'s stage chain from its layout.

    Every dispersive element gets ``transmission``; the largest-|gdd| one
    (the first, on a tie) also gets tod = tod_ratio * gdd.  Each lens takes
    the signal carrier left by the lens before it.
    """
    layout = _LAYOUTS[kind]
    values = _stage_values(kind, magnification, sizing)
    dispersive = [i for i, (_, direction) in enumerate(layout) if direction is None]
    tod_at = max(dispersive, key=lambda i: abs(values[i])) if tod_ratio else None
    carrier = input_carrier_nm
    stages: list[Element] = []
    for i, ((label, direction), value) in enumerate(zip(layout, values)):
        if direction is None:
            tod = tod_ratio * value if i == tod_at else 0.0
            stages.append(DispersiveElement(value, tod, transmission, label))
        else:
            lens = TimeLens(
                direction, value, pump_seed_fwhm, carrier, pump_carrier_nm, label
            )
            carrier = lens.output_carrier_nm
            stages.append(lens)
    return SystemTopology(kind, magnification, tuple(stages))


def single_lens_system(
    magnification: float, focal_gdd: float, **options
) -> SystemTopology:
    """D1 -> down-conversion lens (pump chirp = focal_gdd) -> D2.  Options
    are those of :func:`assemble_system`."""
    return assemble_system(TopologyKind.SINGLE_LENS, magnification, focal_gdd, **options)


def field_lens_system(
    magnification: float, focal_gdd: float, **options
) -> SystemTopology:
    """Single-lens chain plus an image-plane up-conversion corrector with
    pump chirp Dr = M*focal_gdd; its imprinted phase -t^2/(2*M*Df) cancels
    the residual curvature.  Options are those of :func:`assemble_system`."""
    return assemble_system(TopologyKind.FIELD_LENS, magnification, focal_gdd, **options)


def telescope_system(
    magnification: float, input_gdd: float, **options
) -> SystemTopology:
    """D1 -> down lens (chirp D1) -> D2 -> up lens (chirp M*D1) -> D3.
    Options are those of :func:`assemble_system`."""
    return assemble_system(TopologyKind.TELESCOPE, magnification, input_gdd, **options)


def _imprint_focal(direction: ConversionDirection, chirp: float) -> float:
    """GDD F such that a lens with this pump chirp multiplies the signal by
    exp(+i*t^2/(2F)): down-conversion imprints +t^2/(2*chirp), up-conversion
    the opposite sign."""
    return chirp if direction is ConversionDirection.DOWN else -chirp


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= DESIGN_RTOL * max(1.0, abs(a), abs(b))


def verify_topology(topology: SystemTopology) -> None:
    """Re-check a chain against its kind's layout; raises DesignError.

    The stage count and element types must match the layout.  Every GDD and
    lens imprint focal must then equal the value the solvers give for the
    stored magnification and the chain's own sizing value, which is the
    first lens's imprint focal.
    """
    layout = _LAYOUTS[topology.kind]
    stages = topology.stages
    if len(stages) != len(layout) or not all(
        isinstance(stage, DispersiveElement if direction is None else TimeLens)
        for stage, (_, direction) in zip(stages, layout)
    ):
        raise DesignError(f"malformed {topology.kind.value} stage chain")
    first = topology.lenses()[0]
    sizing = _imprint_focal(first.direction, first.focal_gdd)
    values = _stage_values(topology.kind, topology.magnification, sizing)
    for stage, (label, direction), value in zip(stages, layout, values):
        if direction is None:
            got, want = stage.gdd, value
        else:
            got = _imprint_focal(stage.direction, stage.focal_gdd)
            want = _imprint_focal(direction, value)
        if not _close(got, want):
            raise DesignError(
                f"{topology.kind.value} stage {label} violates the design at M = "
                f"{topology.magnification}, sizing {sizing}: got {got}, want {want}"
            )


# ---------------------------------------------------------------------------
# grid planning and execution
# ---------------------------------------------------------------------------

#: Planned windows cover at least this many stretched-pump FWHMs.  A pump only
#: multiplies the signal, so a narrower window is correct too; the term stays
#: so that default grids, and the numbers reported on them, do not move.
PUMP_WINDOW_FACTOR = 8.0

#: Default grid size: 2**15 samples.
DEFAULT_N_SAMPLES = 2**15

#: Default safety margin between predicted waveform extent and window length.
DEFAULT_MARGIN = 4.0


def plan_grid(
    topology: SystemTopology,
    input_extent: float,
    input_bandwidth: float,
    analyzer_delay: float = 0.0,
    n_samples: int = DEFAULT_N_SAMPLES,
    margin: float = DEFAULT_MARGIN,
    window: float | None = None,
) -> TimeGrid:
    """Auto-size a centered grid for a run of ``topology``.

    The window covers, with the given margin factor: the input extent, the
    magnified image extent, the group-delay spread |D| * bandwidth summed
    over all dispersive stages, and any analyzer delay applied afterwards.
    It is also at least ``PUMP_WINDOW_FACTOR`` stretched-pump FWHMs, which
    usually dominates for chirped pumps.

    Args:
        input_extent: full temporal support estimate of the input in ps
            (e.g. 4*fwhm for a Gaussian, separation + 4*bin_fwhm for bins).
        input_bandwidth: angular spectral FWHM of the input in rad/ps.
        analyzer_delay: extra shift applied by interference analysis, ps.
        window: explicit window override in ps (skips the estimate).
    """
    if window is None:
        spread = sum(
            abs(e.gdd) * input_bandwidth for e in topology.dispersive_elements()
        )
        extent = input_extent * max(1.0, abs(topology.magnification))
        window = margin * (extent + spread + abs(analyzer_delay))
        for lens in topology.lenses():
            if not lens.is_ideal:
                window = max(
                    window,
                    PUMP_WINDOW_FACTOR
                    * stretched_pump_fwhm(lens.pump_seed_fwhm, lens.focal_gdd),
                )
    return TimeGrid.centered(window, n_samples)


@dataclass(frozen=True)
class StageTrace:
    """Every intermediate envelope of a system run, in order."""

    input: SampledEnvelope
    steps: tuple[tuple[str, SampledEnvelope], ...]
    magnification: float

    @property
    def final(self) -> SampledEnvelope:
        return self.steps[-1][1]

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.steps)


def run_system(input_env: SampledEnvelope, topology: SystemTopology) -> StageTrace:
    """Propagate an envelope through every stage of the topology.

    Pumps for non-ideal lenses are synthesized on the input grid.  The
    returned trace holds the envelope after each stage; with ideal lenses
    the final envelope of a field-lens or telescope system equals
    a0(t/M)/sqrt(|M|) up to a global phase.

    A :class:`TimeLensError` from a stage is re-raised as the same type with
    the prefix ``stage N (label): ``, numbered as the stage artifacts are.
    """
    verify_topology(topology)
    env = input_env
    steps: list[tuple[str, SampledEnvelope]] = []
    for index, element in enumerate(topology.stages, start=1):
        try:
            if isinstance(element, DispersiveElement):
                env = apply_dispersion(env, element)
            else:
                env = apply_time_lens(env, element)
        except TimeLensError as exc:
            raise type(exc)(f"stage {index} ({element.label}): {exc}") from exc
        steps.append((element.label, env))
    return StageTrace(input=input_env, steps=tuple(steps), magnification=topology.magnification)
