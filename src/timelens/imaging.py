"""Imaging-system topologies: layouts, ray-transfer matrix, grid planning, execution.

By space-time duality every TOD-free stage is a 2x2 ray-transfer matrix on
(t, omega): a dispersion of GDD D is [[1, -D], [0, 1]], and a lens that
imprints exp(+i*t^2/(2F)) is [[1, 0], [1/F, 1]].  A chain's product
[[A, B], [C, D]] images when B = 0; its magnification is A, and the image
carries the quadratic phase C/(2A)*t^2.

Three configurations are supported, all built from dispersive elements and
time lenses:

* single-lens: input GDD D1, one lens of focal GDD Df, output GDD D2, with
  D1 = Df*(M-1)/M and D2 = -M*D1 (B = 0, A = M; M < 0 for all-positive
  dispersion chains).  The image carries t^2/(2*M*Df), as C = 1/Df.
* field-lens: the single-lens chain plus an image-plane up-conversion
  corrector of pump chirp M*Df, whose phase -t^2/(2*M*Df) sets C = 0.
* telescope: D1, a down-conversion lens of chirp D1, a relay D1 + D3, an
  up-conversion lens of chirp M*D1, and D3 = -M*D1.  B = C = 0 and A = +M:
  a flat-phase image.

One layout table lists each configuration's stages in order, as (label,
lens direction or None for a dispersive element), and ``_stage_values``
gives each stage's GDD or pump chirp for a magnification and a sizing value
(the first lens's pump chirp).  The builders, ``verify_topology`` and
``sizing_divisor`` all read that table; ``verify_topology`` and
``check_far_field`` read the chain's matrix.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
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

#: Far-field threshold: |residual phase span| <= pi/10.
FAR_FIELD_THRESHOLD_RATIO = 0.1

Element = Union[DispersiveElement, TimeLens]


class TopologyKind(enum.Enum):
    SINGLE_LENS = "single-lens"
    FIELD_LENS = "field-lens"
    TELESCOPE = "telescope"


def _imprint_focal(direction: ConversionDirection, chirp: float) -> float:
    """GDD F such that a lens with this pump chirp multiplies the signal by
    exp(+i*t^2/(2F)): down-conversion imprints +t^2/(2*chirp), up-conversion
    the opposite sign."""
    return chirp if direction is ConversionDirection.DOWN else -chirp


def transfer_matrix(stages: Sequence[Element]) -> tuple[float, float, float, float]:
    """Ray-transfer matrix (A, B, C, D) on (t, omega) of a stage chain, first
    stage applied first; TOD is ignored."""
    a, b, c, d = 1.0, 0.0, 0.0, 1.0
    for stage in stages:
        if isinstance(stage, DispersiveElement):
            a, b = a - stage.gdd * c, b - stage.gdd * d
        else:
            power = 1.0 / _imprint_focal(stage.direction, stage.focal_gdd)
            c, d = c + power * a, d + power * b
    return a, b, c, d


@dataclass(frozen=True)
class FarFieldCheck:
    """Result of the far-field (negligible residual phase) test."""

    passed: bool
    margin: float  # |residual span| / pi


def check_far_field(topology: SystemTopology, input_fwhm: float) -> FarFieldCheck:
    """Whether the phase on the uncorrected image is negligible over an input
    of width t_i: its span A*C*t_i^2/8, the phase C/(2A)*t^2 at the image
    half-extent A*t_i/2, must satisfy |span| <= ratio*pi with ratio
    :data:`FAR_FIELD_THRESHOLD_RATIO`.  The chain is read up to its last
    dispersive stage, the image plane before any field lens.
    """
    stages = topology.stages
    last = max(i for i, e in enumerate(stages) if isinstance(e, DispersiveElement))
    a, _, c, _ = transfer_matrix(stages[: last + 1])
    margin = abs(a * c * input_fwhm**2 / 8.0) / np.pi
    return FarFieldCheck(
        passed=bool(margin <= FAR_FIELD_THRESHOLD_RATIO), margin=float(margin)
    )


# ---------------------------------------------------------------------------
# topology assembly
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SystemTopology:
    """Ordered element chain realizing one imaging configuration.

    Attributes:
        kind: which configuration the chain realizes.
        magnification: signed image magnification M, the A element of the
            chain's transfer matrix.
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
    sizing value is the first lens's pump chirp; M = 0, sizing 0, and M = 1
    outside the telescope have no imaging solution."""
    m = magnification
    if m == 0.0 or sizing == 0.0:
        raise DesignError(
            f"{kind.value} needs a nonzero magnification and sizing value, got "
            f"M = {m}, sizing {sizing}"
        )
    if kind is TopologyKind.TELESCOPE:
        d3 = -m * sizing
        return sizing, sizing, sizing + d3, m * sizing, d3
    if m == 1.0:
        raise DesignError(
            f"magnification 1 is degenerate: no {kind.value} imaging solution exists"
        )
    d1 = sizing * (m - 1.0) / m
    d2 = -m * d1
    if kind is TopologyKind.FIELD_LENS:
        return d1, sizing, d2, m * sizing
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


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= DESIGN_RTOL * max(1.0, abs(a), abs(b))


def verify_topology(topology: SystemTopology) -> None:
    """Check that a chain images flat at its magnification; raises DesignError.

    The stage count and element types must match the kind's layout.  The
    chain's transfer matrix must then have B = 0 and A = M, and C = 0 unless
    the kind is single-lens.  B and C are made dimensionless by the largest
    |GDD| or |imprint focal| of the chain, and C also divided by
    max(|A|, |D|), the size its rounding error scales with.
    """
    layout = _LAYOUTS[topology.kind]
    stages = topology.stages
    if len(stages) != len(layout) or not all(
        isinstance(stage, DispersiveElement if direction is None else TimeLens)
        for stage, (_, direction) in zip(stages, layout)
    ):
        raise DesignError(f"malformed {topology.kind.value} stage chain")
    a, b, c, d = transfer_matrix(stages)
    scale = max(
        abs(e.gdd if isinstance(e, DispersiveElement) else e.focal_gdd) for e in stages
    )
    checks = [("B/scale", b / scale, 0.0), ("A", a, topology.magnification)]
    if topology.kind is not TopologyKind.SINGLE_LENS:
        checks.append(("C*scale/max(|A|,|D|)", c * scale / max(abs(a), abs(d)), 0.0))
    for name, got, want in checks:
        if not _close(got, want):
            raise DesignError(
                f"{topology.kind.value} chain does not image at M = "
                f"{topology.magnification}: {name} = {got}, want {want}"
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
    return TimeGrid(n_samples, window / n_samples)


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
