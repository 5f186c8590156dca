"""Physical primitives: dispersive propagation and the pumped time lens.

A dispersive element multiplies the spectrum by
``transmission * exp(i*(gdd/2)*w^2 + i*(tod/6)*w^3)``.

A time lens is a three-wave-mixing frequency converter driven by a strong
chirped pump.  The pump is a Gaussian seed of width ``pump_seed_fwhm``
stretched by ``focal_gdd`` worth of dispersion and peak-normalized, taken in
closed form (Agrawal, *Nonlinear Fiber Optics*, sec. 3.2); its temporal phase
is exactly quadratic up to a constant,

    phi_p(t) = -t^2 / (2*focal_gdd)   (large-chirp limit; see
                                       :func:`pump_phase_curvature` for the
                                       exact finite-bandwidth coefficient),

and the lens multiplies the signal by ``i * eta(t) * exp(-i*phi_p)`` for
down-conversion or ``i * eta(t) * exp(+i*phi_p)`` for up-conversion, where
``eta`` is the pump-shaped conversion amplitude.  A down-conversion lens
therefore imprints ``+t^2/(2*focal_gdd)`` of quadratic phase and an
up-conversion lens the opposite sign.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .envelope import (
    BOUNDARY_TOLERANCE,
    LN2,
    SampledEnvelope,
    _adopt,
    _band_edge_leakage,
    _filter,
    _multiply_blocks,
    boundary_leakage,
)
from .errors import (
    CarrierMismatchError,
    DesignError,
    UndersampledError,
    WindowOverflowError,
)
from .grid import TimeGrid

#: Default carriers, nm: a 710 nm signal converted by a 1550 nm pump.
DEFAULT_INPUT_CARRIER_NM = 710.0
DEFAULT_PUMP_CARRIER_NM = 1550.0

#: Relative tolerance for carrier-wavelength comparisons (metadata labels).
CARRIER_TOLERANCE = 1e-3


@dataclass(frozen=True)
class DispersiveElement:
    """Second/third-order dispersive element.

    Attributes:
        gdd: group delay dispersion in ps^2 (signed).
        tod: third-order dispersion in ps^3 (signed, default 0).
        transmission: scalar amplitude factor in (0, 1]; 1 means lossless.
        label: short name used in stage traces and artifact files.
    """

    gdd: float
    tod: float = 0.0
    transmission: float = 1.0
    label: str = "dispersion"

    def __post_init__(self) -> None:
        if not np.isfinite(self.gdd) or not np.isfinite(self.tod):
            raise DesignError("gdd and tod must be finite")
        if not (0.0 < self.transmission <= 1.0):
            raise DesignError(
                f"transmission must be in (0, 1], got {self.transmission!r}"
            )


class ConversionDirection(enum.Enum):
    """Which three-wave-mixing branch the lens realizes."""

    DOWN = "down-conversion"  # signal - pump: applies exp(-i*phi_p)
    UP = "up-conversion"  # signal + pump: applies exp(+i*phi_p)

    @property
    def phase_sign(self) -> float:
        return -1.0 if self is ConversionDirection.DOWN else +1.0


def converted_carrier(
    input_carrier_nm: float, pump_carrier_nm: float, direction: ConversionDirection
) -> float:
    """Output carrier from energy conservation.

    Up-conversion: 1/lambda_out = 1/lambda_in + 1/lambda_pump.
    Down-conversion: 1/lambda_out = 1/lambda_in - 1/lambda_pump
    (requires the input carrier frequency to exceed the pump's).
    """
    if input_carrier_nm <= 0.0 or pump_carrier_nm <= 0.0:
        raise DesignError("carrier wavelengths must be positive")
    if direction is ConversionDirection.UP:
        inverse = 1.0 / input_carrier_nm + 1.0 / pump_carrier_nm
    else:
        inverse = 1.0 / input_carrier_nm - 1.0 / pump_carrier_nm
        if inverse <= 0.0:
            raise DesignError(
                "down-conversion requires the input carrier frequency to "
                f"exceed the pump's (input {input_carrier_nm} nm, pump "
                f"{pump_carrier_nm} nm)"
            )
    return 1.0 / inverse


@dataclass(frozen=True)
class TimeLens:
    """Pumped three-wave-mixing time lens.

    Attributes:
        direction: down- or up-conversion branch.
        focal_gdd: GDD (ps^2) used to chirp the pump seed; sets the imprinted
            quadratic phase (see module docstring for the sign convention).
        pump_seed_fwhm: Gaussian pump seed intensity FWHM in ps, or None for
            an IDEAL lens (exact quadratic phase, unit conversion everywhere).
        input_carrier_nm / pump_carrier_nm: carrier metadata; the output
            carrier follows from energy conservation.
        label: short name used in stage traces and artifact files.
    """

    direction: ConversionDirection
    focal_gdd: float
    pump_seed_fwhm: float | None = None
    input_carrier_nm: float = DEFAULT_INPUT_CARRIER_NM
    pump_carrier_nm: float = DEFAULT_PUMP_CARRIER_NM
    label: str = "lens"

    def __post_init__(self) -> None:
        if self.focal_gdd == 0.0 or not np.isfinite(self.focal_gdd):
            raise DesignError(f"focal_gdd must be nonzero, got {self.focal_gdd!r}")
        if self.pump_seed_fwhm is not None and not (self.pump_seed_fwhm > 0.0):
            raise DesignError(
                f"pump_seed_fwhm must be positive or None, got {self.pump_seed_fwhm!r}"
            )
        # validate the carrier combination eagerly
        converted_carrier(self.input_carrier_nm, self.pump_carrier_nm, self.direction)

    @property
    def is_ideal(self) -> bool:
        return self.pump_seed_fwhm is None

    @property
    def output_carrier_nm(self) -> float:
        return converted_carrier(
            self.input_carrier_nm, self.pump_carrier_nm, self.direction
        )


def apply_dispersion(
    env: SampledEnvelope, element: DispersiveElement
) -> SampledEnvelope:
    """Propagate through a dispersive element.

    Filters the spectrum with the kernel transmission * exp(i*(gdd/2)*w^2 +
    i*(tod/6)*w^3) (:func:`timelens.envelope._filter`): a chirp in
    m = w/domega times, with TOD, the cubic factor; with transmission = 1 the
    spectral magnitude is unchanged.

    Raises:
        UndersampledError: the dispersed waveform reaches the window boundary
            above the leakage tolerance, and the input's spectrum reaches the
            outer 1/64 of the band above it too: the samples alias, and a
            larger window at the same dt would not help.
        WindowOverflowError: the dispersed waveform reaches the window
            boundary above the leakage tolerance (wrap-around would corrupt
            the samples) from a well-sampled input.
    """
    if element.gdd == 0.0 and element.tod == 0.0 and element.transmission == 1.0:
        return env

    out = _filter(env, **_dispersion_kernel(element, env.grid))
    if boundary_leakage(out) > BOUNDARY_TOLERANCE:
        what = (
            f"{element.label}: dispersion gdd={element.gdd} ps^2, "
            f"tod={element.tod} ps^3"
        )
        edge = _band_edge_leakage(env)
        if edge > BOUNDARY_TOLERANCE:
            raise UndersampledError(
                f"{what} receives a spectrum with {edge:.3g} of its peak at the "
                f"band edge of dt={env.grid.dt} ps, so the waveform aliases; use "
                f"more than n_samples={env.grid.n_samples} for this window"
            )
        raise WindowOverflowError(
            f"{what} stretches the waveform across the window boundary; "
            "enlarge the grid window"
        )
    return out


def _dispersion_kernel(element: DispersiveElement, grid: TimeGrid) -> dict:
    """The element's spectral kernel as the
    :func:`timelens.envelope._multiply_blocks` kernel of m = w/domega: the
    chirp (gdd/2)*domega^2*m^2 times, with TOD, the cubic factor."""
    domega = grid.domega
    cubic = None
    if element.tod != 0.0:

        def cubic(lo: int, hi: int) -> np.ndarray:
            return np.exp(1j * (element.tod / 6.0) * (np.arange(lo, hi) * domega) ** 3)

    return dict(
        a=0.5 * element.gdd * domega**2,
        scale=element.transmission,
        extra=cubic,
        mirror=np.copy if cubic is None else None,  # even in w without TOD
    )


def stretched_pump_fwhm(seed_fwhm: float, chirp_gdd: float) -> float:
    """Intensity FWHM of a Gaussian seed after chirp_gdd of dispersion (ps)."""
    return seed_fwhm * np.hypot(1.0, 4.0 * LN2 * chirp_gdd / seed_fwhm**2)


def pump_phase_curvature(seed_fwhm: float, chirp_gdd: float) -> float:
    """Exact quadratic temporal-phase coefficient of the dispersed pump.

    A Gaussian seed exp(-p*t^2) with p = 2*ln2/seed_fwhm^2 acquires, after
    ``chirp_gdd`` of dispersion under this package's spectral-phase sign,
    phase c2*t^2 with

        c2 = -2*p^2*chirp_gdd / (1 + 4*p^2*chirp_gdd^2),

    which tends to -1/(2*chirp_gdd) when |chirp_gdd| >> seed_fwhm^2.
    """
    p = 2.0 * LN2 / seed_fwhm**2
    return -2.0 * p**2 * chirp_gdd / (1.0 + 4.0 * p**2 * chirp_gdd**2)


def synthesize_pump(
    grid: TimeGrid, seed_fwhm: float, chirp_gdd: float
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form chirped pump on ``grid``: (peak-normalized magnitude, phase).

    A seed exp(-p*t^2), p = 2*ln2/seed_fwhm^2, dispersed by ``chirp_gdd`` is
    exp(-p*t^2/(1 - 2i*p*chirp_gdd)) / sqrt(1 - 2i*p*chirp_gdd): a Gaussian of
    FWHM :func:`stretched_pump_fwhm` with phase
    :func:`pump_phase_curvature` * t^2 + arctan(2*p*chirp_gdd)/2.
    """
    t = grid.times
    phase = pump_phase_curvature(seed_fwhm, chirp_gdd) * t**2
    phase += _pump_offset(seed_fwhm, chirp_gdd)
    return _pump_magnitude(t, seed_fwhm, chirp_gdd), phase


def _pump_magnitude(t: np.ndarray, seed_fwhm: float, chirp_gdd: float) -> np.ndarray:
    """The peak-normalized pump magnitude at the times ``t``."""
    return np.exp(-2.0 * LN2 * (t / stretched_pump_fwhm(seed_fwhm, chirp_gdd)) ** 2)


def _pump_offset(seed_fwhm: float, chirp_gdd: float) -> float:
    """The pump's constant phase arctan(2*p*chirp_gdd)/2."""
    p = 2.0 * LN2 / seed_fwhm**2
    return 0.5 * np.arctan(2.0 * p * chirp_gdd)


def apply_time_lens(env: SampledEnvelope, lens: TimeLens) -> SampledEnvelope:
    """Convert a signal through the lens.

    output(t) = i * eta(t) * exp(s*i*phi_p(t)) * input(t), with s = -1 for
    down-conversion and s = +1 for up-conversion.  For a pumped lens phi_p and
    the pump magnitude |A_p| come from :func:`synthesize_pump` and
    eta(t) = sin((pi/2) * |A_p(t)|) — full conversion at the pump peak,
    graceful roll-off in the wings.  For an IDEAL lens
    phi_p(t) = -t^2/(2*focal_gdd) exactly and eta = 1.

    The output carrier follows the lens's energy-conservation bookkeeping.

    Raises:
        CarrierMismatchError: envelope carrier differs from the lens input
            carrier.
    """
    if env.carrier_wavelength_nm is not None:
        expected = lens.input_carrier_nm
        if abs(env.carrier_wavelength_nm - expected) > CARRIER_TOLERANCE * expected:
            raise CarrierMismatchError(
                f"lens expects input carrier {expected} nm, envelope is at "
                f"{env.carrier_wavelength_nm} nm"
            )
    grid = env.grid
    samples = np.empty(grid.n_samples, dtype=np.complex128)
    _multiply_blocks(samples, env.samples, grid, **_lens_factor(lens, grid))
    carrier = (
        lens.output_carrier_nm if env.carrier_wavelength_nm is not None else None
    )
    return _adopt(SampledEnvelope, grid, samples, carrier)


def _lens_factor(lens: TimeLens, grid: TimeGrid) -> dict:
    """The lens multiplier i*eta(t)*exp(s*i*phi_p(t)) as the
    :func:`timelens.envelope._multiply_blocks` kernel of m on ``grid``.

    With phi_p = alpha*t^2 + offset at t = dt*m, m = k - N/2, s*phi_p is the
    chirp a*m^2 + c, even in m; eta is the ``extra`` factor of a pumped lens.
    """
    seed = lens.pump_seed_fwhm
    if lens.is_ideal:
        alpha, offset, extra = -1.0 / (2.0 * lens.focal_gdd), 0.0, None
    else:
        alpha = pump_phase_curvature(seed, lens.focal_gdd)
        offset = _pump_offset(seed, lens.focal_gdd)

        def extra(lo: int, hi: int) -> np.ndarray:
            t = grid._times(lo + grid.n_samples // 2, hi + grid.n_samples // 2)
            return np.sin(0.5 * np.pi * _pump_magnitude(t, seed, lens.focal_gdd))

    alpha *= lens.direction.phase_sign
    offset *= lens.direction.phase_sign
    return dict(a=alpha * grid.dt**2, c=offset, scale=1j, extra=extra, mirror=np.copy)
