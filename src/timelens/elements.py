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
    _filter,
    boundary_leakage,
)
from .errors import CarrierMismatchError, DesignError, WindowOverflowError
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


def _dispersion_kernel(element: DispersiveElement, grid: TimeGrid) -> np.ndarray:
    """New array exp(i*(gdd/2)*w^2 + i*(tod/6)*w^3) on the grid's angular
    frequencies, evaluated in blocks.

    Without TOD the kernel is even in w, and omegas[n/2 + j] ==
    -omegas[n/2 - j] exactly, so only w <= 0 is evaluated and then mirrored.
    """
    half = grid.n_samples // 2
    kernel = np.empty(grid.n_samples, dtype=np.complex128)
    stop = grid.n_samples if element.tod != 0.0 else half + 1
    for span, k in grid._blocks(0, stop):
        w = (k - half) * grid.domega
        phase = 0.5 * element.gdd * w**2
        if element.tod != 0.0:
            phase = phase + (element.tod / 6.0) * w**3
        np.exp(1j * phase, out=kernel[span])
    if element.tod == 0.0:
        kernel[half + 1 :] = kernel[half - 1 : 0 : -1]
    return kernel


def apply_dispersion(
    env: SampledEnvelope, element: DispersiveElement
) -> SampledEnvelope:
    """Propagate through a dispersive element.

    Filters the spectrum with the kernel transmission * exp(i*(gdd/2)*w^2 +
    i*(tod/6)*w^3) (:func:`timelens.envelope._filter`); with transmission = 1
    the spectral magnitude is unchanged.

    Raises:
        WindowOverflowError: the dispersed waveform reaches the window
            boundary above the leakage tolerance (wrap-around would corrupt
            the samples).
    """
    if element.gdd == 0.0 and element.tod == 0.0 and element.transmission == 1.0:
        return env
    kernel = _dispersion_kernel(element, env.grid)
    if element.transmission != 1.0:
        kernel *= element.transmission
    out = _filter(env, kernel)
    if boundary_leakage(out) > BOUNDARY_TOLERANCE:
        raise WindowOverflowError(
            f"{element.label}: dispersion gdd={element.gdd} ps^2, "
            f"tod={element.tod} ps^3 stretches the waveform across the window "
            "boundary; enlarge the grid window"
        )
    return out


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
    return _pump(grid.times, seed_fwhm, chirp_gdd)


def _pump(
    t: np.ndarray, seed_fwhm: float, chirp_gdd: float
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`synthesize_pump` at the times ``t``."""
    p = 2.0 * LN2 / seed_fwhm**2
    magnitude = np.exp(-2.0 * LN2 * (t / stretched_pump_fwhm(seed_fwhm, chirp_gdd)) ** 2)
    offset = 0.5 * np.arctan(2.0 * p * chirp_gdd)
    return magnitude, pump_phase_curvature(seed_fwhm, chirp_gdd) * t**2 + offset


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
    for span, k in grid._blocks():
        t = grid.t0 + grid.dt * k
        np.multiply(env.samples[span], _lens_factor(lens, t), out=samples[span])
    carrier = (
        lens.output_carrier_nm if env.carrier_wavelength_nm is not None else None
    )
    return _adopt(SampledEnvelope, grid, samples, carrier)


def _lens_factor(lens: TimeLens, t: np.ndarray) -> np.ndarray:
    """The lens multiplier i*eta(t)*exp(s*i*phi_p(t)) at the times ``t``."""
    sign = lens.direction.phase_sign
    if lens.is_ideal:
        phi = -(t**2) / (2.0 * lens.focal_gdd)
        return 1j * np.exp(1j * sign * phi)
    magnitude, phase = _pump(t, lens.pump_seed_fwhm, lens.focal_gdd)
    return 1j * np.sin(0.5 * np.pi * magnitude) * np.exp(1j * sign * phase)
