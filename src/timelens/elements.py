"""Physical primitives: dispersive propagation and the pumped time lens.

A dispersive element multiplies the spectrum by
``transmission * exp(i*(gdd/2)*w^2 + i*(tod/6)*w^3)``.

A time lens is a three-wave-mixing frequency converter driven by a strong
chirped pump.  The pump is a Gaussian seed of width ``pump_seed_fwhm``
stretched by ``focal_gdd`` worth of dispersion and peak-normalized; under the
spectral-phase convention above its temporal phase is exactly quadratic,

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
    SpectralEnvelope,
    boundary_leakage,
    gaussian_pulse,
    to_frequency,
    to_time,
)
from .errors import CarrierMismatchError, DesignError, WindowOverflowError
from .grid import TimeGrid

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
    input_carrier_nm: float = 710.0
    pump_carrier_nm: float = 1550.0
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


@dataclass(frozen=True)
class PumpWaveform:
    """Classical chirped pump: peak-normalized envelope plus its chirp GDD."""

    envelope: SampledEnvelope
    chirp_gdd: float


def _dispersion_kernel(element: DispersiveElement, w: np.ndarray) -> np.ndarray:
    """exp(i*(gdd/2)*w^2 + i*(tod/6)*w^3) on the angular frequencies ``w``."""
    phase = 0.5 * element.gdd * w**2
    if element.tod != 0.0:
        phase = phase + (element.tod / 6.0) * w**3
    return np.exp(1j * phase)


def apply_dispersion(
    env: SampledEnvelope, element: DispersiveElement
) -> SampledEnvelope:
    """Propagate through a dispersive element.

    Multiplies the spectrum by transmission * exp(i*(gdd/2)*w^2 +
    i*(tod/6)*w^3); with transmission = 1 the spectral magnitude is
    unchanged.

    Raises:
        WindowOverflowError: the dispersed waveform reaches the window
            boundary above the leakage tolerance (wrap-around would corrupt
            the samples).
    """
    if element.gdd == 0.0 and element.tod == 0.0 and element.transmission == 1.0:
        return env
    kernel = _dispersion_kernel(element, env.grid.omegas)
    spectrum = to_frequency(env).samples
    if element.transmission != 1.0:
        spectrum = spectrum * element.transmission
    # spectrum-first operand order: complex products round differently when
    # the operands are swapped
    np.multiply(spectrum, kernel, out=kernel)
    del spectrum  # free it before the inverse transform allocates its own arrays
    out = to_time(SpectralEnvelope(env.grid, kernel, env.carrier_wavelength_nm))
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
) -> PumpWaveform:
    """Disperse a Gaussian seed by chirp_gdd and peak-normalize.

    The resulting envelope has unit peak magnitude, the seed's spectral
    width (dispersion is phase-only), and an exactly quadratic temporal
    phase with curvature :func:`pump_phase_curvature`.

    Raises:
        WindowOverflowError: seed or stretched pump exceeds the grid window.
    """
    seed = gaussian_pulse(grid, seed_fwhm)
    dispersed = apply_dispersion(seed, DispersiveElement(gdd=chirp_gdd, label="pump chirp"))
    peak = float(np.abs(dispersed.samples).max())
    return PumpWaveform(
        envelope=dispersed.with_samples(dispersed.samples / peak),
        chirp_gdd=chirp_gdd,
    )


def pump_for(lens: TimeLens, grid: TimeGrid) -> PumpWaveform | None:
    """The pump a lens requires on the given grid (None for an IDEAL lens)."""
    if lens.is_ideal:
        return None
    return synthesize_pump(grid, lens.pump_seed_fwhm, lens.focal_gdd)


def apply_time_lens(
    env: SampledEnvelope, lens: TimeLens, pump: PumpWaveform | None = None
) -> SampledEnvelope:
    """Convert a signal through the lens.

    output(t) = i * eta(t) * exp(s*i*phi_p(t)) * input(t), with s = -1 for
    down-conversion and s = +1 for up-conversion.  For a pumped lens phi_p is
    the pump envelope's phase and eta(t) = sin((pi/2) * |A_p(t)| / peak) —
    full conversion at the pump peak, graceful roll-off in the wings.  For an
    IDEAL lens (pump None) phi_p(t) = -t^2/(2*focal_gdd) exactly and eta = 1.

    The output carrier follows the lens's energy-conservation bookkeeping.

    Raises:
        CarrierMismatchError: envelope carrier differs from the lens input
            carrier.
        ValueError: pump given for an ideal lens, missing for a pumped lens,
            or on a different grid.
    """
    if env.carrier_wavelength_nm is not None:
        expected = lens.input_carrier_nm
        if abs(env.carrier_wavelength_nm - expected) > CARRIER_TOLERANCE * expected:
            raise CarrierMismatchError(
                f"lens expects input carrier {expected} nm, envelope is at "
                f"{env.carrier_wavelength_nm} nm"
            )
    sign = lens.direction.phase_sign
    if lens.is_ideal:
        if pump is not None:
            raise ValueError("ideal lens takes no pump waveform")
        t = env.times
        phi = -(t**2) / (2.0 * lens.focal_gdd)
        factor = 1j * np.exp(1j * sign * phi)
    else:
        if pump is None:
            raise ValueError("pumped lens requires a pump waveform")
        if pump.envelope.grid != env.grid:
            raise ValueError("pump grid must equal the signal grid")
        amplitude = np.abs(pump.envelope.samples)
        peak = float(amplitude.max())
        unit_phase = np.ones_like(pump.envelope.samples)
        nonzero = amplitude > 0.0
        unit_phase[nonzero] = pump.envelope.samples[nonzero] / amplitude[nonzero]
        eta = np.sin(0.5 * np.pi * amplitude / peak)
        factor = 1j * eta * (unit_phase if sign > 0 else np.conjugate(unit_phase))
    carrier = (
        lens.output_carrier_nm if env.carrier_wavelength_nm is not None else None
    )
    return SampledEnvelope(env.grid, env.samples * factor, carrier)
