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
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Union

import numpy as np

from .elements import (
    ConversionDirection,
    DispersiveElement,
    TimeLens,
    apply_dispersion,
    apply_time_lens,
    stretched_pump_fwhm,
)
from .envelope import SampledEnvelope
from .errors import DesignError
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


def _imprint_focal(lens: TimeLens) -> float:
    """GDD F such that the lens multiplies the signal by exp(+i*t^2/(2F)).

    Down-conversion imprints +t^2/(2*chirp); up-conversion flips the sign.
    """
    if lens.direction is ConversionDirection.DOWN:
        return lens.focal_gdd
    return -lens.focal_gdd


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= DESIGN_RTOL * max(1.0, abs(a), abs(b))


def verify_topology(topology: SystemTopology) -> None:
    """Re-check the configuration identities; raises DesignError on violation."""
    stages = topology.stages
    m = topology.magnification
    if topology.kind in (TopologyKind.SINGLE_LENS, TopologyKind.FIELD_LENS):
        expected = 3 if topology.kind is TopologyKind.SINGLE_LENS else 4
        if len(stages) != expected or not (
            isinstance(stages[0], DispersiveElement)
            and isinstance(stages[1], TimeLens)
            and isinstance(stages[2], DispersiveElement)
        ):
            raise DesignError(f"malformed {topology.kind.value} stage chain")
        d1, d2 = stages[0].gdd, stages[2].gdd
        f = _imprint_focal(stages[1])
        if d1 == 0.0 or d2 == 0.0 or f == 0.0:
            raise DesignError("zero dispersion in imaging chain")
        if not _close(1.0 / d1 + 1.0 / d2, 1.0 / f):
            raise DesignError(
                f"imaging condition violated: 1/{d1} + 1/{d2} != 1/{f}"
            )
        if not _close(-d2 / d1, m):
            raise DesignError(
                f"magnification mismatch: -D2/D1 = {-d2 / d1}, stored {m}"
            )
        if topology.kind is TopologyKind.FIELD_LENS:
            if not isinstance(stages[3], TimeLens):
                raise DesignError("field-lens chain must end with a lens")
            # corrector imprint must cancel the residual curvature 1/(2*M*f)
            if not _close(_imprint_focal(stages[3]), -m * f):
                raise DesignError(
                    "field-lens corrector does not cancel the residual phase: "
                    f"imprint focal {_imprint_focal(stages[3])}, need {-m * f}"
                )
    elif topology.kind is TopologyKind.TELESCOPE:
        if len(stages) != 5 or not (
            isinstance(stages[0], DispersiveElement)
            and isinstance(stages[1], TimeLens)
            and isinstance(stages[2], DispersiveElement)
            and isinstance(stages[3], TimeLens)
            and isinstance(stages[4], DispersiveElement)
        ):
            raise DesignError("malformed telescope stage chain")
        d1, d2, d3 = stages[0].gdd, stages[2].gdd, stages[4].gdd
        f1 = _imprint_focal(stages[1])
        f2 = _imprint_focal(stages[3])
        checks = (
            (f1, d1, "first lens imprint focal must equal D1"),
            (f2, d3, "second lens imprint focal must equal D3"),
            (d3, -m * d1, "D3 must equal -M*D1"),
            (d2, d1 + d3, "D2 must equal D1 + D3"),
        )
        for got, want, why in checks:
            if not _close(got, want):
                raise DesignError(f"telescope condition violated: {why} "
                                  f"(got {got}, want {want})")
    else:  # pragma: no cover - enum is exhaustive
        raise DesignError(f"unknown topology kind {topology.kind!r}")


def _dispersive(
    gdd: float, label: str, tod: float = 0.0, transmission: float = 1.0
) -> DispersiveElement:
    return DispersiveElement(gdd=gdd, tod=tod, transmission=transmission, label=label)


def _apply_tod_ratio(
    elements: list[DispersiveElement], tod_ratio: float
) -> list[DispersiveElement]:
    """Attach tod = tod_ratio * gdd to the largest-|gdd| element."""
    if tod_ratio == 0.0:
        return elements
    target = max(range(len(elements)), key=lambda i: abs(elements[i].gdd))
    e = elements[target]
    elements[target] = DispersiveElement(
        gdd=e.gdd, tod=tod_ratio * e.gdd, transmission=e.transmission, label=e.label
    )
    return elements


def single_lens_system(
    magnification: float,
    focal_gdd: float,
    pump_seed_fwhm: float | None = None,
    input_carrier_nm: float = 710.0,
    pump_carrier_nm: float = 1550.0,
    tod_ratio: float = 0.0,
    transmission: float = 1.0,
) -> SystemTopology:
    """D1 -> down-conversion lens (pump chirp = focal_gdd) -> D2."""
    d1, d2 = solve_single_lens(magnification, focal_gdd)
    lens = TimeLens(
        direction=ConversionDirection.DOWN,
        focal_gdd=focal_gdd,
        pump_seed_fwhm=pump_seed_fwhm,
        input_carrier_nm=input_carrier_nm,
        pump_carrier_nm=pump_carrier_nm,
        label="main_lens",
    )
    elements = _apply_tod_ratio(
        [
            _dispersive(d1, "input_gdd", transmission=transmission),
            _dispersive(d2, "output_gdd", transmission=transmission),
        ],
        tod_ratio,
    )
    return SystemTopology(
        kind=TopologyKind.SINGLE_LENS,
        magnification=magnification,
        stages=(elements[0], lens, elements[1]),
    )


def field_lens_system(
    magnification: float,
    focal_gdd: float,
    pump_seed_fwhm: float | None = None,
    input_carrier_nm: float = 710.0,
    pump_carrier_nm: float = 1550.0,
    tod_ratio: float = 0.0,
    transmission: float = 1.0,
) -> SystemTopology:
    """Single-lens chain plus an image-plane corrector lens.

    The corrector is an up-conversion lens with pump chirp Dr = M*focal_gdd;
    its imprinted phase -t^2/(2*M*Df) cancels the residual curvature.
    """
    base = single_lens_system(
        magnification,
        focal_gdd,
        pump_seed_fwhm=pump_seed_fwhm,
        input_carrier_nm=input_carrier_nm,
        pump_carrier_nm=pump_carrier_nm,
        tod_ratio=tod_ratio,
        transmission=transmission,
    )
    _, _, dr = solve_field_lens(magnification, focal_gdd)
    corrector = TimeLens(
        direction=ConversionDirection.UP,
        focal_gdd=dr,
        pump_seed_fwhm=pump_seed_fwhm,
        input_carrier_nm=base.lenses()[0].output_carrier_nm,
        pump_carrier_nm=pump_carrier_nm,
        label="field_lens",
    )
    return SystemTopology(
        kind=TopologyKind.FIELD_LENS,
        magnification=magnification,
        stages=base.stages + (corrector,),
    )


def telescope_system(
    magnification: float,
    input_gdd: float,
    pump_seed_fwhm: float | None = None,
    input_carrier_nm: float = 710.0,
    pump_carrier_nm: float = 1550.0,
    tod_ratio: float = 0.0,
    transmission: float = 1.0,
) -> SystemTopology:
    """D1 -> down lens (chirp D1) -> D2 -> up lens (chirp M*D1) -> D3."""
    df1, d2, df2, d3 = solve_telescope(magnification, input_gdd)
    lens1 = TimeLens(
        direction=ConversionDirection.DOWN,
        focal_gdd=-df1,  # pump chirp D1: imprints +t^2/(2*D1)
        pump_seed_fwhm=pump_seed_fwhm,
        input_carrier_nm=input_carrier_nm,
        pump_carrier_nm=pump_carrier_nm,
        label="lens_1",
    )
    lens2 = TimeLens(
        direction=ConversionDirection.UP,
        focal_gdd=df2,  # pump chirp M*D1: imprints +t^2/(2*D3)
        pump_seed_fwhm=pump_seed_fwhm,
        input_carrier_nm=lens1.output_carrier_nm,
        pump_carrier_nm=pump_carrier_nm,
        label="lens_2",
    )
    elements = _apply_tod_ratio(
        [
            _dispersive(input_gdd, "input_gdd", transmission=transmission),
            _dispersive(d2, "relay_gdd", transmission=transmission),
            _dispersive(d3, "output_gdd", transmission=transmission),
        ],
        tod_ratio,
    )
    return SystemTopology(
        kind=TopologyKind.TELESCOPE,
        magnification=magnification,
        stages=(elements[0], lens1, elements[1], lens2, elements[2]),
    )


# ---------------------------------------------------------------------------
# grid planning and execution
# ---------------------------------------------------------------------------

#: Window must cover this many stretched-pump FWHMs so that the pump itself
#: satisfies the boundary-leakage invariant (a Gaussian is below 1e-8 of its
#: peak amplitude four FWHMs from center).
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
    Chirped pumps usually dominate: the window is at least
    ``PUMP_WINDOW_FACTOR`` stretched-pump FWHMs so the pump satisfies the
    boundary-leakage invariant.

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
    """
    verify_topology(topology)
    env = input_env
    steps: list[tuple[str, SampledEnvelope]] = []
    for element in topology.stages:
        if isinstance(element, DispersiveElement):
            env = apply_dispersion(env, element)
        else:
            env = apply_time_lens(env, element)
        steps.append((element.label, env))
    return StageTrace(input=input_env, steps=tuple(steps), magnification=topology.magnification)
