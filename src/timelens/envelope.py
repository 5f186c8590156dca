"""Sampled complex envelopes, their spectra, constructors, and metrics.

Conventions:
    * Time axis in ps; angular frequency axis in rad/ps (offset from the
      carrier, co-moving frame — absolute carrier phase and group delay are
      not tracked).
    * Envelope samples have units ps^(-1/2) so that energy = sum(|a|^2) * dt
      is dimensionless.
    * ``to_frequency``/``to_time`` form a unitary pair:
      A(w) = (1/sqrt(2*pi)) * integral a(t) exp(-i w t) dt and back, so
      Parseval holds exactly in the discrete approximation:
      sum(|a|^2) dt == sum(|A|^2) dw.  Every grid is centered on t = 0, so
      each is one FFT between sign flips.  ``_filter`` is their one caller:
      every spectral stage (dispersion, time shift) is that pair around one
      spectrum-first multiply by its chirp kernel (:func:`_multiply_blocks`),
      block by block in the forward transform's work array, which the
      inverse then transforms in place.  Large transforms run that same FFT
      call on a one-worker thread pool (:func:`_transform`).
    * Envelopes own read-only samples.  The public constructors (and
      ``SampledEnvelope.with_samples``) copy what they are given, so the
      caller's array may change afterwards; arrays the library has just built
      are adopted by ``_adopt`` without a copy, after the same shape and
      finiteness checks.  Only ``_filter`` makes a spectrum with writeable
      samples: scratch that ``to_time`` inverts in place (it copies others).
"""

from __future__ import annotations

import contextvars
import math
import os
from collections.abc import Iterator
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import (
    DegenerateInputError,
    InsufficientSupportError,
    UndersampledError,
    WindowOverflowError,
)
from .grid import TimeGrid, _chirp

LN2 = float(np.log(2.0))

#: Amplitude threshold (relative to peak) below which boundary samples are
#: considered leakage-free. Shared by the wrap-around checks.
BOUNDARY_TOLERANCE = 1e-8

#: Gaussian exponents below this are not evaluated: exp underflows to exactly
#: 0.0 below about -745.13, which a unit-peak Gaussian reaches about 23.2
#: FWHM from its center.
_EXPONENT_FLOOR = -750.0


@dataclass(frozen=True)
class SampledEnvelope:
    """Complex field envelope sampled on a uniform time grid.

    Attributes:
        grid: the shared time grid.
        samples: complex amplitudes per grid point, shape (n_samples,).
        carrier_wavelength_nm: metadata label for the optical carrier; may be
            None for carrier-agnostic waveforms.
    """

    grid: TimeGrid
    samples: np.ndarray
    carrier_wavelength_nm: float | None = None

    def __post_init__(self) -> None:
        _own(self, np.array(self.samples, dtype=np.complex128))

    @property
    def times(self) -> np.ndarray:
        return self.grid.times

    @property
    def intensity(self) -> np.ndarray:
        return np.abs(self.samples) ** 2

    def with_samples(self, samples: np.ndarray) -> "SampledEnvelope":
        """Same grid and carrier, new sample values."""
        return SampledEnvelope(self.grid, samples, self.carrier_wavelength_nm)


@dataclass(frozen=True)
class SpectralEnvelope:
    """Complex spectral envelope on the grid-conjugate frequency axis.

    The originating :class:`TimeGrid` is retained so the inverse transform is
    exact; ``omegas`` are angular-frequency offsets from the carrier in
    rad/ps.
    """

    grid: TimeGrid
    samples: np.ndarray
    carrier_wavelength_nm: float | None = None

    def __post_init__(self) -> None:
        _own(self, np.array(self.samples, dtype=np.complex128))

    @property
    def omegas(self) -> np.ndarray:
        return self.grid.omegas

    @property
    def intensity(self) -> np.ndarray:
        return np.abs(self.samples) ** 2


AnyEnvelope = Union[SampledEnvelope, SpectralEnvelope]


def _own(env: AnyEnvelope, samples: np.ndarray) -> None:
    """Check ``samples`` against ``env``'s grid (time-domain samples must also
    be finite), make it read-only and store it as ``env.samples``."""
    if samples.shape != (env.grid.n_samples,):
        raise ValueError(
            f"samples shape {samples.shape} does not match grid "
            f"({env.grid.n_samples},)"
        )
    if isinstance(env, SampledEnvelope) and not _all_finite(samples):
        raise ValueError("samples must be finite")
    samples.setflags(write=False)
    object.__setattr__(env, "samples", samples)


def _all_finite(samples: np.ndarray) -> bool:
    """Whether every part of the contiguous ``samples`` is finite.  A finite
    sum of the parts proves it without a full-size mask; only a sum that is
    not finite (a NaN or infinity, or an overflow of finite parts) is
    checked element by element."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = samples.view(np.float64).sum()
    return bool(np.isfinite(total) or np.isfinite(samples).all())


def _adopt(
    cls: type[AnyEnvelope],
    grid: TimeGrid,
    samples: np.ndarray,
    carrier_wavelength_nm: float | None,
) -> AnyEnvelope:
    """A ``cls`` envelope around ``samples``, a complex128 array the library
    has just built and holds no other reference to, without the copy the
    public constructor makes; the constructor's checks still run."""
    env = object.__new__(cls)
    object.__setattr__(env, "grid", grid)
    object.__setattr__(env, "carrier_wavelength_nm", carrier_wavelength_nm)
    _own(env, samples)
    return env


def to_frequency(env: SampledEnvelope) -> SpectralEnvelope:
    """Unitary transform to the carrier-relative angular-frequency domain.

    A(w_m) = (dt/sqrt(2*pi)) * sum_k a(t_k) exp(-i w_m t_k), evaluated via a
    single FFT.  With h = n//2, t_k = (k - h)*dt and w_m = (m - h)*domega,
    exp(-i w_m t_k) = (-1)^k (-1)^m exp(-2*pi*i*m*k/n) exactly (h is even),
    so the transform is a sign flip of every odd sample on each side of the
    FFT, all in place on one copy of the samples.  ``env`` is left untouched.
    """
    grid = env.grid
    work = env.samples.copy()
    work[1::2] *= -1.0
    _transform(np.fft.fft, work)
    work *= grid.dt / np.sqrt(2.0 * np.pi)
    work[1::2] *= -1.0
    return _adopt(SpectralEnvelope, grid, work, env.carrier_wavelength_nm)


def to_time(spec: SpectralEnvelope) -> SampledEnvelope:
    """Inverse of :func:`to_frequency` (exact round trip): the same sign
    flips around one inverse FFT, in place on a scratch spectrum or a copy."""
    grid = spec.grid
    work = spec.samples if spec.samples.flags.writeable else spec.samples.copy()
    work[1::2] *= -1.0
    _transform(np.fft.ifft, work)
    work[1::2] *= -1.0
    work *= grid.n_samples * grid.domega / np.sqrt(2.0 * np.pi)
    return _adopt(SampledEnvelope, grid, work, spec.carrier_wavelength_nm)


#: Transforms of at least this many samples run on the helper thread.  The
#: shipped scenarios' 2**14-2**15 grids stay below it: for them a thread's
#: arena would only hold scratch that the main arena reuses anyway.
_HELPER_MIN_SAMPLES = 2**17

#: One single-worker executor per process id, started on first use, so a
#: forked child starts its own.  glibc gives the worker thread its own malloc arena, so the FFT's
#: internal scratch (twice the array) stays mapped from one call to the next
#: instead of being faulted in afresh after the caller's arrays took its pages.
_helpers: dict = {}


def _transform(fft, work: np.ndarray) -> None:
    """``fft(work, out=work)``: on the helper thread, under the caller's
    context (so ``np.errstate`` applies), when ``work`` has at least
    :data:`_HELPER_MIN_SAMPLES` samples; inline otherwise, and at interpreter
    exit once the thread pool's exit hook has run.  Concurrent callers queue
    on the one thread.  Same function, same input: the same bits."""
    if work.size >= _HELPER_MIN_SAMPLES:
        try:
            # imported here, so that importing timelens loads no
            # concurrent.futures; once the pool's exit hook has run, a
            # first import of it or a submit raises RuntimeError
            from concurrent.futures import ThreadPoolExecutor

            pid = os.getpid()
            # setdefault is atomic: threads that race here share one executor
            helper = _helpers.get(pid) or _helpers.setdefault(
                pid, ThreadPoolExecutor(1, "timelens-fft")
            )
            job = helper.submit(contextvars.copy_context().run, fft, work, out=work)
        except RuntimeError:
            pass
        else:
            job.result()
            return
    fft(work, out=work)


def _ramp(grid: TimeGrid, tau: float) -> dict:
    """The :func:`_multiply_blocks` kernel exp(-i*w*tau), w = m*domega."""
    return dict(b=-tau * grid.domega, mirror=np.conjugate)


def _multiply_blocks(
    out: np.ndarray,
    src: np.ndarray,
    grid: TimeGrid,
    *,
    a: float = 0.0,
    b: float = 0.0,
    c: float = 0.0,
    scale: complex = 1.0,
    extra=None,
    mirror=None,
) -> None:
    """``out = src * kernel``, ``src`` first, one block at a time (``out`` may
    be ``src``), with the kernel scale*exp(i*(a*m^2 + b*m + c)) of
    m = k - n//2 from :func:`timelens.grid._chirp`, times ``extra(lo, hi)``
    for m in [lo, hi) if given.  m*domega is exactly the grid's omegas, and
    dt*m its times.

    With ``mirror``, only m <= 0 is evaluated: ``mirror`` (``np.copy`` if the
    kernel is even in m, ``np.conjugate`` if it is conjugate-symmetric) of a
    block's values, reversed, is the kernel on the mirror block, and
    contiguous, which keeps the product on numpy's contiguous loop."""
    n, half = grid.n_samples, grid.n_samples // 2
    whole = mirror is None
    stop = n if whole else half + 1
    kernel = _chirp(a, b, c, -half, stop - half, scale)
    for span, values in zip(grid._blocks(0, stop), kernel):
        if extra is not None:
            values *= extra(span.start - half, span.stop - half)
        np.multiply(src[span], values, out=out[span])
        lo, hi = max(span.start, 1), min(span.stop, half)
        if not whole and lo < hi:
            twin = mirror(values[lo - span.start : hi - span.start][::-1])
            other = slice(n - hi + 1, n - lo + 1)
            np.multiply(src[other], twin, out=out[other])


def _check_spectral_edge(grid: TimeGrid, fwhm: float, what: str) -> None:
    """Raise :class:`UndersampledError` if a Gaussian of intensity FWHM ``fwhm``
    keeps over :data:`BOUNDARY_TOLERANCE` of its peak spectral amplitude at
    w = (63/64)*pi/dt, the outer 1/64 of the band: the window check's twin."""
    scale = ((63.0 / 64.0) * np.pi * fwhm) ** 2 / (8.0 * LN2)
    edge = float(np.exp(-scale / grid.dt**2))
    if edge > BOUNDARY_TOLERANCE:
        n = 2 * grid.n_samples
        while np.exp(-scale * (n / grid.window) ** 2) > BOUNDARY_TOLERANCE:
            n *= 2
        raise UndersampledError(
            f"{what}: dt={grid.dt} ps leaves {edge:.3g} of the peak spectrum "
            f"at the band edge; use n_samples >= {n} for this window"
        )


def _pulse_blocks(
    grid: TimeGrid, first: float, last: float, fwhm: float, what: str
) -> Iterator[slice]:
    """Blocks covering every sample where unit Gaussians of FWHM ``fwhm``
    centered between ``first`` and ``last`` have exponents above
    :data:`_EXPONENT_FLOOR` (elsewhere each is exactly 0), once the pulse
    ``what`` is checked against the window and the band."""
    t_lo, t_hi = first - 2.0 * fwhm, last + 2.0 * fwhm
    if not grid.contains(t_lo, t_hi):
        raise WindowOverflowError(
            f"{what} needs a 4*fwhm extent [{t_lo}, {t_hi}] ps; grid window "
            f"is [{grid._time(0)}, {grid._time(grid.n_samples - 1)}] ps"
        )
    _check_spectral_edge(grid, fwhm, what)
    reach = fwhm * np.sqrt(-_EXPONENT_FLOOR / (2.0 * LN2))
    start = math.floor(grid._index(first - reach))
    stop = math.ceil(grid._index(last + reach)) + 1
    return grid._blocks(max(start, 0), min(stop, grid.n_samples))


def gaussian_pulse(
    grid: TimeGrid,
    fwhm: float,
    center: float = 0.0,
    amplitude: complex = 1.0,
    carrier_wavelength_nm: float | None = None,
) -> SampledEnvelope:
    """Gaussian envelope amplitude * exp(-2*ln2*((t-center)/fwhm)^2).

    ``fwhm`` is the intensity full width at half maximum in ps.  Samples
    beyond about 23.2 FWHM of ``center``, where the formula underflows to
    zero, are not evaluated and hold exact +0; with Re(amplitude) < 0 the
    formula itself would give -0 there.

    Raises:
        WindowOverflowError: if the 4*fwhm extent around ``center`` does not
            fit the grid window.
        UndersampledError: if dt is too coarse for the spectrum.
    """
    if not (fwhm > 0.0 and np.isfinite(fwhm)):
        raise ValueError(f"fwhm must be positive, got {fwhm!r}")
    what = f"gaussian pulse (fwhm={fwhm} ps, center={center} ps)"
    samples = np.zeros(grid.n_samples, dtype=np.complex128)
    for span in _pulse_blocks(grid, center, center, fwhm, what):
        t = grid._times(span.start, span.stop)
        samples[span] = amplitude * np.exp(-2.0 * LN2 * ((t - center) / fwhm) ** 2)
    return _adopt(SampledEnvelope, grid, samples, carrier_wavelength_nm)


def time_bin_pulse(
    grid: TimeGrid,
    bin_fwhm: float,
    separation: float,
    relative_phase: float = 0.0,
    carrier_wavelength_nm: float | None = None,
) -> SampledEnvelope:
    """Two-bin coherent waveform: early and late Gaussian bins.

    a(t) = 1/2 * g(t + separation/2) + 1/2 * e^{i relative_phase} *
    g(t - separation/2) with g a unit-peak Gaussian of intensity FWHM
    ``bin_fwhm``.  ``separation`` is the early-to-late peak distance in ps;
    the total pattern width between outermost half-maximum crossings is
    separation + bin_fwhm.  As in :func:`gaussian_pulse`, samples where both
    bins underflow to zero are not evaluated; they hold exact +0, as the
    formula does.  Raises as :func:`gaussian_pulse` does.
    """
    if not (bin_fwhm > 0.0 and np.isfinite(bin_fwhm)):
        raise ValueError(f"bin_fwhm must be positive, got {bin_fwhm!r}")
    if separation < 0.0:
        raise ValueError(f"separation must be nonnegative, got {separation!r}")
    half = 0.5 * separation
    what = f"time-bin pulse (bin_fwhm={bin_fwhm} ps, separation={separation} ps)"
    samples = np.zeros(grid.n_samples, dtype=np.complex128)
    for span in _pulse_blocks(grid, -half, half, bin_fwhm, what):
        t = grid._times(span.start, span.stop)
        early = np.exp(-2.0 * LN2 * ((t + half) / bin_fwhm) ** 2)
        late = np.exp(-2.0 * LN2 * ((t - half) / bin_fwhm) ** 2)
        samples[span] = 0.5 * early + 0.5 * np.exp(1j * relative_phase) * late
    return _adopt(SampledEnvelope, grid, samples, carrier_wavelength_nm)


def _step(env: AnyEnvelope) -> float:
    """Sample spacing of ``env``'s domain: dt in time, domega in frequency."""
    return env.grid.dt if isinstance(env, SampledEnvelope) else env.grid.domega


def fwhm(env: AnyEnvelope) -> float:
    """Intensity full width at half maximum, by linear interpolation.

    Multi-lobe profiles use the dominant lobe: the width is measured between
    the first half-maximum crossings walking outward from the global
    intensity peak.

    Raises:
        DegenerateInputError: all-zero envelope or no half-maximum crossing
            inside the window.
    """
    axis = env.times if isinstance(env, SampledEnvelope) else env.omegas
    intensity = env.intensity
    peak_index = int(np.argmax(intensity))
    peak = intensity[peak_index]
    if peak == 0.0:
        raise DegenerateInputError("fwhm of an all-zero envelope is undefined")
    half = 0.5 * peak

    def crossing(direction: int) -> float:
        i = peak_index
        while 0 <= i + direction < len(intensity):
            j = i + direction
            if intensity[j] < half:
                # linear interpolation between samples i (>= half) and j (< half)
                frac = (intensity[i] - half) / (intensity[i] - intensity[j])
                return axis[i] + frac * (axis[j] - axis[i])
            i = j
        raise DegenerateInputError(
            "no half-maximum crossing inside the window; profile too wide"
        )

    return crossing(+1) - crossing(-1)


def energy(env: AnyEnvelope) -> float:
    """L2 norm: sum(|a|^2) * step (dimensionless for time-domain envelopes)."""
    return float(np.sum(env.intensity) * _step(env))


def overlap(a: AnyEnvelope, b: AnyEnvelope) -> complex:
    """Normalized inner product sum(conj(a)*b)*step / sqrt(Ea*Eb).

    |overlap| == 1 iff the envelopes are proportional.  Both arguments must
    share the same grid and domain.

    Raises:
        DegenerateInputError: either envelope has zero energy.
    """
    if type(a) is not type(b) or a.grid != b.grid:
        raise ValueError("overlap requires two envelopes on the same grid and domain")
    ea = energy(a)
    eb = energy(b)
    if ea == 0.0 or eb == 0.0:
        raise DegenerateInputError("overlap with a zero-energy envelope is undefined")
    inner = np.sum(np.conjugate(a.samples) * b.samples) * _step(a)
    return complex(inner / np.sqrt(ea * eb))


def intensity_overlap(a: AnyEnvelope, b: AnyEnvelope) -> float:
    """Normalized correlation of the two intensity profiles (phase-blind).

    sum(Ia*Ib) / sqrt(sum(Ia^2)*sum(Ib^2)); equals 1 iff the intensity
    profiles are proportional.
    """
    if type(a) is not type(b) or a.grid != b.grid:
        raise ValueError(
            "intensity_overlap requires two envelopes on the same grid and domain"
        )
    ia = a.intensity
    ib = b.intensity
    na = float(np.sum(ia * ia))
    nb = float(np.sum(ib * ib))
    if na == 0.0 or nb == 0.0:
        raise DegenerateInputError(
            "intensity overlap with a zero-energy envelope is undefined"
        )
    return float(np.sum(ia * ib) / np.sqrt(na * nb))


#: Intensity floor (relative to peak) below which samples are excluded from
#: phase fits, keeping the unwrap away from noise-dominated branches.
PHASE_FIT_INTENSITY_FLOOR = 0.01


def _phase_fit_block(
    env: SampledEnvelope, window_fwhm_fraction: float
) -> tuple[np.ndarray, np.ndarray]:
    """Times and unwrapped phases of the contiguous qualifying samples around
    the intensity peak (inside the fit window and above the intensity floor)."""
    intensity = env.intensity
    peak_index = int(np.argmax(intensity))
    peak = intensity[peak_index]
    if peak == 0.0:
        raise DegenerateInputError("phase fit of an all-zero envelope is undefined")
    width = fwhm(env)
    t = env.times
    center = t[peak_index]
    half_window = 0.5 * window_fwhm_fraction * width
    floor = PHASE_FIT_INTENSITY_FLOOR * peak

    ok = (np.abs(t - center) <= half_window) & (intensity >= floor)
    # contiguous run containing the peak, so the unwrap never jumps lobes
    lo = peak_index
    while lo - 1 >= 0 and ok[lo - 1]:
        lo -= 1
    hi = peak_index
    while hi + 1 < len(ok) and ok[hi + 1]:
        hi += 1
    if hi - lo + 1 < 8:
        raise InsufficientSupportError(
            f"only {hi - lo + 1} samples qualify for the phase fit "
            "(need at least 8); widen the window or refine the grid"
        )
    block = slice(lo, hi + 1)
    phases = np.unwrap(np.angle(env.samples[block]))
    return t[block], phases


def phase_fit_quadratic(
    env: SampledEnvelope, window_fwhm_fraction: float = 1.0
) -> tuple[float, float]:
    """Least-squares quadratic fit of the unwrapped temporal phase.

    Fits arg(a(t)) to c0 + c1*t + c2*t^2 over the central window (width =
    ``window_fwhm_fraction`` times the intensity FWHM, centered on the peak),
    using only samples above 1% of peak intensity.

    Returns:
        (c2, rms_residual): curvature in rad/ps^2 and the RMS fit residual in
        radians.

    Raises:
        InsufficientSupportError: fewer than 8 samples qualify.
        DegenerateInputError: all-zero envelope.
    """
    times, phases = _phase_fit_block(env, window_fwhm_fraction)
    tau = times - times[len(times) // 2]  # centered abscissa for conditioning
    coeffs = np.polynomial.polynomial.polyfit(tau, phases, deg=2)
    fit = np.polynomial.polynomial.polyval(tau, coeffs)
    rms = float(np.sqrt(np.mean((phases - fit) ** 2)))
    return float(coeffs[2]), rms  # the t^2 coefficient is shift-invariant


def phase_rms(env: SampledEnvelope, window_fwhm_fraction: float = 1.0) -> float:
    """RMS deviation of the unwrapped phase from a linear trend.

    A constant (global phase) and a linear term (carrier-frequency offset)
    are removed first, so the result measures genuine phase structure —
    curvature and above — across the central window.  Sample selection
    matches :func:`phase_fit_quadratic`.
    """
    times, phases = _phase_fit_block(env, window_fwhm_fraction)
    tau = times - times[len(times) // 2]
    coeffs = np.polynomial.polynomial.polyfit(tau, phases, deg=1)
    fit = np.polynomial.polynomial.polyval(tau, coeffs)
    return float(np.sqrt(np.mean((phases - fit) ** 2)))


def _peak_magnitude(env: AnyEnvelope) -> float:
    """max|a|, one block at a time."""
    return max(float(np.abs(env.samples[s]).max()) for s in env.grid._blocks())


def boundary_leakage(env: AnyEnvelope) -> float:
    """max(|a[0]|, |a[-1]|) / max|a|; zero for an all-zero envelope."""
    peak = _peak_magnitude(env)
    if peak == 0.0:
        return 0.0
    return float(np.abs(env.samples[[0, -1]]).max() / peak)


def _band_edge_leakage(env: SampledEnvelope) -> float:
    """Largest spectral amplitude of ``env`` over the outer 1/64 of the band,
    |w| >= (63/64)*pi/dt, relative to its peak; zero for an all-zero
    envelope.  The sampled twin of :func:`_check_spectral_edge`, at the cost
    of one transform."""
    spectrum = np.abs(to_frequency(env).samples)
    peak = float(spectrum.max())
    if peak == 0.0:
        return 0.0
    edge = np.abs(env.grid.omegas) >= (63.0 / 64.0) * np.pi / env.grid.dt
    return float(spectrum[edge].max() / peak)


def _filter(env: SampledEnvelope, **kernel) -> SampledEnvelope:
    """``env`` with its spectrum times the :func:`_multiply_blocks` ``kernel``
    of m = w/domega, in the forward transform's work array, which is then
    inverted in place."""
    spec = to_frequency(env)
    spec.samples.setflags(write=True)  # scratch: nothing else refers to it
    _multiply_blocks(spec.samples, spec.samples, env.grid, **kernel)
    return to_time(spec)


def _support(env: SampledEnvelope) -> np.ndarray | None:
    """Times of the first and last samples above :data:`BOUNDARY_TOLERANCE`
    of the peak magnitude, sought in blocks from each end; None if all zero."""
    peak = _peak_magnitude(env)
    if peak == 0.0:
        return None

    def significant(spans):
        for span in spans:
            hits = np.flatnonzero(np.abs(env.samples[span]) > BOUNDARY_TOLERANCE * peak)
            if hits.size:
                return span.start + hits

    spans = list(env.grid._blocks())
    ends = [significant(spans)[0], significant(reversed(spans))[-1]]
    return np.array([env.grid._time(k) for k in ends])


def shifted(env: SampledEnvelope, delay: float) -> SampledEnvelope:
    """a(t - delay), via an exact spectral phase ramp.

    Raises:
        WindowOverflowError: the shifted waveform would leak across the
            window boundary (checked against :data:`BOUNDARY_TOLERANCE`).
    """
    if delay == 0.0:
        return env
    # The spectral shift is circular, so a large delay can wrap the waveform
    # back into the interior where boundary leakage alone would not flag it;
    # require the shifted support to fit the window outright.
    support = _support(env)
    if support is not None:
        lo, hi = support + delay
        if not env.grid.contains(lo, hi):
            raise WindowOverflowError(
                f"time shift by {delay} ps pushes the waveform support "
                f"[{lo:.6g}, {hi:.6g}] ps outside the window"
            )
    out = _filter(env, **_ramp(env.grid, delay))
    if boundary_leakage(out) > BOUNDARY_TOLERANCE:
        raise WindowOverflowError(
            f"time shift by {delay} ps pushes the waveform across the window "
            "boundary"
        )
    return out


#: Cubic B-spline prefilter sqrt(3) * z**|k|, z = sqrt(3) - 2: the exact inverse
#: of the [1, 4, 1]/6 filter, truncated at |k| <= 32 where |z|**k < 1e-18.
_SPLINE_PREFILTER = np.sqrt(3.0) * (np.sqrt(3.0) - 2.0) ** np.abs(np.arange(-32, 33))


def magnified_copy(env: SampledEnvelope, magnification: float) -> SampledEnvelope:
    """Analytically magnified copy a(t/M)/sqrt(|M|) on the same grid.

    The reference waveform an ideal imaging system should produce: stretched
    by M (time-reversed for M < 0) about t = 0 with energy preserved: output
    sample k reads the input at fractional index N/2 + (k - N/2)/M, t = 0
    on sample N/2.  Evaluated by cubic B-spline interpolation (Unser,
    IEEE SPM 16(6), 1999) with zero samples beyond the window, as the
    boundary-leakage invariant assumes; this differs from a not-a-knot cubic
    spline only within ~30 samples of an edge.  Points
    mapping outside the original window are zero, and so are blocks whose
    interpolation stencils read only zero samples: those are not evaluated
    and hold exact +0.
    """
    if magnification == 0.0 or not np.isfinite(magnification):
        raise ValueError(f"magnification must be nonzero, got {magnification!r}")
    grid = env.grid
    n = grid.n_samples
    scale = np.sqrt(abs(magnification))
    values = np.zeros(n, dtype=np.complex128)
    # first and last nonzero input samples (an all-zero input skips nothing)
    nonzero = env.samples != 0.0
    first = int(np.argmax(nonzero))
    last = n - 1 - int(np.argmax(nonzero[::-1]))
    del nonzero
    for span in grid._blocks():
        x = grid._index(grid._times(span.start, span.stop) / magnification)
        # the stencil at x reads samples floor(x) - 33 .. floor(x) + 34
        if np.floor(x.max()) + 34 < first or np.floor(x.min()) - 33 > last:
            continue
        inside = (x >= 0.0) & (x <= n - 1)
        if inside.any():
            x = x[inside]
            values[span][inside] = _spline_at(env.samples, x) / scale
    return _adopt(SampledEnvelope, grid, values, env.carrier_wavelength_nm)


def _spline_at(samples: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Cubic B-spline interpolant of ``samples`` at fractional sample
    positions 0 <= ``x`` <= len(samples) - 1, with zero samples beyond them.

    Spline coefficient m (from -32 to n + 31) is the 65-tap sum c[m + 32]
    over samples m - 32 .. m + 32, and the stencil at x reads coefficients
    floor(x) - 1 .. floor(x) + 2.  Convolving only samples lo .. hi - 1 gives
    the same sums wherever the stencil reads them, and at least 65 samples
    keep np.convolve's operand order.
    """
    n = len(samples)
    u, whole = np.modf(x)
    lo = max(0, min(int(whole.min()) - 33, n - 65))
    hi = min(n, max(int(whole.max()) + 35, 65))
    c = np.convolve(samples[lo:hi], _SPLINE_PREFILTER)
    j = whole.astype(np.intp)
    del whole
    j += 32 - lo
    # summed in place, term by term, to keep few block-sized arrays alive
    out = (1.0 - u) ** 3 * c[j - 1]
    out += (4.0 - 6.0 * u**2 + 3.0 * u**3) * c[j]
    out += (1.0 + 3.0 * (u + u**2 - u**3)) * c[j + 1]
    out += u**3 * c[j + 2]
    out /= 6.0
    return out
