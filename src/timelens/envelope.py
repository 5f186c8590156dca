"""Sampled complex envelopes, their spectra, constructors, and metrics.

Conventions:
    * Time axis in ps; angular frequency axis in rad/ps (offset from the
      carrier, co-moving frame — absolute carrier phase and group delay are
      not tracked).
    * The pulse constructors give unit peak amplitude, so energy =
      sum(|a|^2) * dt carries ps: a 5 ps two-bin input has energy 2.6664 ps.
    * ``to_frequency``/``to_time`` form a unitary pair:
      A(w) = (1/sqrt(2*pi)) * integral a(t) exp(-i w t) dt and back, so
      Parseval holds exactly in the discrete approximation:
      sum(|a|^2) dt == sum(|A|^2) dw.  Every grid is centered on t = 0, so
      each is one FFT between sign flips.  ``_filter`` is their one caller:
      every spectral stage (dispersion, time shift) is that pair around one
      spectrum-first multiply by its phase kernel, block by block in the
      forward transform's work array, which the inverse then transforms in
      place; :func:`timelens.grid._multiply_blocks` is that one kernel loop.
      Transforms of 2**17 samples or more compute the same DFT in place
      as a four-step FFT, without the two full-size scratch arrays of
      numpy's single call (:func:`_transform`).
    * Envelopes own read-only samples.  The public constructors copy what
      they are given, so the caller's array may change afterwards; arrays
      the library has just built are adopted by ``_adopt`` without a copy,
      after the same shape and finiteness checks.  Only ``_filter`` makes
      a spectrum with writeable samples: scratch that ``to_time`` inverts
      in place (it copies others).
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass

from ._numpy import np
from .errors import (
    NONNEGATIVE,
    POSITIVE,
    DegenerateInputError,
    InsufficientSupportError,
    UndersampledError,
    WindowOverflowError,
    require,
)
from .grid import BLOCK, TimeGrid, _multiply_blocks

LN2 = math.log(2.0)

#: Amplitude threshold (relative to peak) below which boundary samples are
#: considered leakage-free. Shared by the wrap-around checks.
BOUNDARY_TOLERANCE = 1e-8

#: Gaussian exponents below this are not evaluated: exp underflows to exactly
#: 0.0 below about -745.13, which a unit-peak Gaussian reaches about 23.2
#: FWHM from its center.
_EXPONENT_FLOOR = -750.0


@dataclass(frozen=True, eq=False)
class AnyEnvelope:
    """Complex samples on a :class:`TimeGrid`, the base of the time-domain
    :class:`SampledEnvelope` and of :class:`SpectralEnvelope`: ``samples``
    (shape (n_samples,)) are read-only, and finite in time, and
    ``carrier_wavelength_nm`` labels the optical carrier (None: agnostic)."""

    grid: TimeGrid
    samples: np.ndarray
    carrier_wavelength_nm: float | None = None

    def __post_init__(self) -> None:
        self._own(np.array(self.samples, dtype=np.complex128))

    def __reduce__(self):
        # unpickling runs the constructor, so the samples are checked and
        # read-only again
        return type(self), (self.grid, self.samples, self.carrier_wavelength_nm)

    def __eq__(self, other: object) -> bool:
        # the field-tuple comparison a dataclass generates would ask the
        # samples array for a truth value; envelopes stay unhashable
        if type(other) is not type(self):
            return NotImplemented
        return (
            self.grid == other.grid
            and self.carrier_wavelength_nm == other.carrier_wavelength_nm
            and np.array_equal(self.samples, other.samples)
        )

    def _own(self, samples: np.ndarray) -> None:
        """Check ``samples`` against the grid (time-domain samples must also
        be finite), make it read-only and store it as ``self.samples``."""
        if samples.shape != (self.grid.n_samples,):
            raise ValueError(
                f"samples shape {samples.shape} does not match grid "
                f"({self.grid.n_samples},)"
            )
        if isinstance(self, SampledEnvelope) and not np.isfinite(samples).all():
            raise ValueError("samples must be finite")
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)

    @property
    def intensity(self) -> np.ndarray:
        return np.abs(self.samples) ** 2


@dataclass(frozen=True, eq=False)
class SampledEnvelope(AnyEnvelope):
    """Complex field envelope sampled on a uniform time grid."""

    @property
    def times(self) -> np.ndarray:
        return self.grid.times


@dataclass(frozen=True, eq=False)
class SpectralEnvelope(AnyEnvelope):
    """Complex spectral envelope on the grid-conjugate frequency axis.

    The originating :class:`TimeGrid` is retained so the inverse transform is
    exact; ``omegas`` are angular-frequency offsets from the carrier in
    rad/ps.
    """

    @property
    def omegas(self) -> np.ndarray:
        return self.grid.omegas


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
    env._own(samples)
    return env


def to_frequency(env: SampledEnvelope) -> SpectralEnvelope:
    """Unitary transform to the carrier-relative angular-frequency domain.

    A(w_m) = (dt/sqrt(2*pi)) * sum_k a(t_k) exp(-i w_m t_k), evaluated via
    one DFT (:func:`_transform`).  With h = n//2, t_k = (k - h)*dt and w_m = (m - h)*domega,
    exp(-i w_m t_k) = (-1)^k (-1)^m exp(-2*pi*i*m*k/n) exactly (h is even),
    so the transform is a sign flip of every odd sample on each side of the
    FFT, all in place on one copy of the samples.  ``env`` is left untouched.
    """
    grid = env.grid
    work = env.samples.copy()
    work[1::2] *= -1.0
    _transform(work, inverse=False)
    work *= grid.dt / np.sqrt(2.0 * np.pi)
    work[1::2] *= -1.0
    return _adopt(SpectralEnvelope, grid, work, env.carrier_wavelength_nm)


def to_time(spec: SpectralEnvelope) -> SampledEnvelope:
    """Inverse of :func:`to_frequency` (exact round trip): the same sign
    flips around one inverse FFT, in place on a scratch spectrum or a copy."""
    grid = spec.grid
    work = spec.samples if spec.samples.flags.writeable else spec.samples.copy()
    work[1::2] *= -1.0
    _transform(work, inverse=True)
    work[1::2] *= -1.0
    work *= grid.n_samples * grid.domega / np.sqrt(2.0 * np.pi)
    return _adopt(SampledEnvelope, grid, work, spec.carrier_wavelength_nm)


#: Transforms of at least this many samples run as a four-step FFT.  The
#: shipped scenarios' 2**14-2**15 grids stay below it, so their artifacts are
#: those of one numpy FFT call.
_FOUR_STEP_MIN_SAMPLES = 2**17

#: Side of the square tiles that a four-step transform swaps to transpose.
_TILE = 64


def _transform(work: np.ndarray, inverse: bool) -> None:
    """``np.fft.fft(work, out=work)``, or ``np.fft.ifft`` if ``inverse``:
    the same DFT and scale, in place on the contiguous ``work``.

    From :data:`_FOUR_STEP_MIN_SAMPLES` samples up it is a four-step FFT
    (Gentleman & Sande, AFIPS 1966; Bailey, J. Supercomputing 4, 23 (1990)):
    ``work`` is viewed as rows x cols, rows = 2**floor(log2(n)/2); every
    column is transformed, element (k1, n2) is multiplied by the twiddle
    w**(k1*n2), w = exp(-/+2*pi*i/n), every row is transformed, and the
    result is transposed to natural order.  numpy's two ifft scales,
    1/rows and 1/cols, multiply to 1/n.  The batched numpy calls need
    scratch for one line at a time, where a single 1-D call takes two
    arrays of n samples.
    """
    fft = np.fft.ifft if inverse else np.fft.fft
    n = work.size
    if n < _FOUR_STEP_MIN_SAMPLES:
        fft(work, out=work)
        return
    rows = 1 << (n.bit_length() - 1) // 2
    cols = n // rows
    a = work.reshape(rows, cols)
    fft(a, axis=0, out=a)
    coarse, fine = _twiddle_tables(rows, cols)
    step = max(BLOCK // cols, 1)
    for top in range(0, rows, step):
        block = slice(top, top + step)
        twiddle = (coarse[block, :, None] * fine[block, None, :]).reshape(-1, cols)
        if inverse:
            np.conjugate(twiddle, out=twiddle)
        a[block] *= twiddle
    fft(a, axis=1, out=a)
    if rows == cols:
        _transpose_square(a)
    else:  # cols == 2*rows
        work[:] = a.T.ravel()


@functools.cache
def _twiddle_tables(rows: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """The forward twiddles w**(k1*n2), w = exp(-2*pi*i/n), of a rows x cols
    four-step as ``coarse[k1, h] * fine[k1, l]`` with n2 = h*split + l,
    split = 2**floor(log2(cols)/2): two read-only tables of rows*cols/split
    and rows*split entries (1 MB together at n = 2**20).  Each phase is
    reduced mod n in integers first, so it is an exact fraction of a turn."""
    n = rows * cols
    split = 1 << (cols.bit_length() - 1) // 2
    k1 = np.arange(rows)[:, None]
    tables = []
    for steps in (split * np.arange(cols // split), np.arange(split)):
        table = np.exp(-2j * np.pi * ((k1 * steps) % n / n))
        table.setflags(write=False)
        tables.append(table)
    return tables[0], tables[1]


def _transpose_square(a: np.ndarray) -> None:
    """Transpose the square ``a`` in place, one pair of tiles at a time."""
    for i in range(0, a.shape[0], _TILE):
        rows = slice(i, i + _TILE)
        for j in range(i, a.shape[0], _TILE):
            cols = slice(j, j + _TILE)
            a[rows, cols], a[cols, rows] = a[cols, rows].T.copy(), a[rows, cols].T.copy()


def _ramp(grid: TimeGrid, tau: float) -> dict:
    """The :func:`_multiply_blocks` kernel exp(-i*w*tau), w = m*domega."""
    return dict(b=-tau * grid.domega, mirror=np.conjugate)


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


#: The rules the pulse constructors enforce on their widths and separation.
PULSE_RULES = {"fwhm": POSITIVE, "bin_fwhm": POSITIVE, "separation": NONNEGATIVE}


def gaussian_pulse(
    grid: TimeGrid,
    fwhm: float,
    center: float = 0.0,
    carrier_wavelength_nm: float | None = None,
) -> SampledEnvelope:
    """Gaussian envelope exp(-2*ln2*((t-center)/fwhm)^2).

    ``fwhm`` is the intensity full width at half maximum in ps.  Samples
    beyond about 23.2 FWHM of ``center``, where the formula underflows to
    zero, are not evaluated and hold its exact +0.

    Raises:
        ValueError: ``fwhm`` breaks its rule in :data:`PULSE_RULES`.
        WindowOverflowError: if the 4*fwhm extent around ``center`` does not
            fit the grid window.
        UndersampledError: if dt is too coarse for the spectrum.
    """
    require(ValueError, PULSE_RULES, fwhm=fwhm)
    what = f"gaussian pulse (fwhm={fwhm} ps, center={center} ps)"
    samples = np.zeros(grid.n_samples, dtype=np.complex128)
    for span in _pulse_blocks(grid, center, center, fwhm, what):
        t = grid._times(span.start, span.stop)
        samples[span] = np.exp(-2.0 * LN2 * ((t - center) / fwhm) ** 2)
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
    require(ValueError, PULSE_RULES, bin_fwhm=bin_fwhm, separation=separation)
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
    # the nearest samples below half on each side; the peak is not below
    below = intensity < half
    after = int(np.argmax(below[peak_index:]))
    before = int(np.argmax(below[peak_index::-1]))
    if not (after and before):
        raise DegenerateInputError(
            "no half-maximum crossing inside the window; profile too wide"
        )

    def crossing(i: int, j: int) -> float:
        # linear interpolation between samples i (>= half) and j (< half)
        frac = (intensity[i] - half) / (intensity[i] - intensity[j])
        return axis[i] + frac * (axis[j] - axis[i])

    right, left = peak_index + after, peak_index - before
    return crossing(right - 1, right) - crossing(left + 1, left)


def _block_sum(grid: TimeGrid, term):
    """np.sum of ``term``, applied to a slice of the samples, over the whole
    last axis, bit for bit, with no full-size array: numpy sums a contiguous
    power-of-two axis pairwise, halving it down to 128 values, so the
    block boundaries are among its split points, and the sums of the blocks
    combine in the same binary tree.  The sum is returned as numpy gives
    it: a real or complex scalar, or one per row of a stacked ``term``.
    Every waveform sum goes through it; none goes through BLAS (``@``,
    ``np.vdot``), whose thread pool would raise the peak RSS."""
    sums = [np.sum(term(span), axis=-1) for span in grid._blocks()]
    while len(sums) > 1:
        sums = [sums[k] + sums[k + 1] for k in range(0, len(sums), 2)]
    return sums[0]


def energy(env: AnyEnvelope) -> float:
    """L2 norm: sum(|a|^2) * step; ps for a time-domain envelope of
    unit-peak samples."""
    total = _block_sum(env.grid, lambda s: np.abs(env.samples[s]) ** 2)
    return float(total * _step(env))


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
    inner = _block_sum(a.grid, lambda s: np.conjugate(a.samples[s]) * b.samples[s])
    return complex(inner * _step(a) / np.sqrt(ea * eb))


def intensity_overlap(a: AnyEnvelope, b: AnyEnvelope) -> float:
    """Normalized correlation of the two intensity profiles (phase-blind).

    sum(Ia*Ib) / sqrt(sum(Ia^2)*sum(Ib^2)); equals 1 iff the intensity
    profiles are proportional.
    """
    if type(a) is not type(b) or a.grid != b.grid:
        raise ValueError(
            "intensity_overlap requires two envelopes on the same grid and domain"
        )

    def products(s: slice) -> np.ndarray:
        ia, ib = np.abs(a.samples[s]) ** 2, np.abs(b.samples[s]) ** 2
        return np.stack((ia * ia, ib * ib, ia * ib))

    na, nb, cross = _block_sum(a.grid, products)
    if na == 0.0 or nb == 0.0:
        raise DegenerateInputError(
            "intensity overlap with a zero-energy envelope is undefined"
        )
    return float(cross / np.sqrt(na * nb))


#: Intensity floor (relative to peak) below which samples are excluded from
#: phase fits, keeping the unwrap away from noise-dominated branches.
PHASE_FIT_INTENSITY_FLOOR = 0.01

#: The rule the phase fits enforce on their window.
PHASE_FIT_RULES = {"window_fwhm_fraction": POSITIVE}


def _phase_fit(
    env: SampledEnvelope, window_fwhm_fraction: float, deg: int
) -> tuple[np.ndarray, float]:
    """Least-squares degree-``deg`` polynomial fit of the unwrapped phase over
    the contiguous qualifying samples around the intensity peak (inside the
    fit window and above the intensity floor): its coefficients in the
    abscissa centered on the middle sample, and its RMS residual."""
    require(ValueError, PHASE_FIT_RULES, window_fwhm_fraction=window_fwhm_fraction)
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
    # contiguous run containing the peak, so the unwrap never jumps lobes:
    # it ends before the nearest gap on each side (the peak qualifies)
    gap = ~ok
    before = int(np.argmax(gap[peak_index::-1])) or peak_index + 1
    after = int(np.argmax(gap[peak_index:])) or len(ok) - peak_index
    lo, hi = peak_index - before + 1, peak_index + after - 1
    if hi - lo + 1 < 8:
        raise InsufficientSupportError(
            f"only {hi - lo + 1} samples qualify for the phase fit "
            "(need at least 8); widen the window or refine the grid"
        )
    phases = np.unwrap(np.angle(env.samples[lo : hi + 1]))
    tau = t[lo : hi + 1] - t[(lo + hi + 1) // 2]  # centered, for conditioning
    coeffs = np.polynomial.polynomial.polyfit(tau, phases, deg=deg)
    fit = np.polynomial.polynomial.polyval(tau, coeffs)
    return coeffs, float(np.sqrt(np.mean((phases - fit) ** 2)))


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
        ValueError: ``window_fwhm_fraction`` is not positive.
        InsufficientSupportError: fewer than 8 samples qualify.
        DegenerateInputError: all-zero envelope.
    """
    coeffs, rms = _phase_fit(env, window_fwhm_fraction, deg=2)
    return float(coeffs[2]), rms  # the t^2 coefficient is shift-invariant


def phase_rms(env: SampledEnvelope, window_fwhm_fraction: float = 1.0) -> float:
    """RMS deviation of the unwrapped phase from a linear trend.

    A constant (global phase) and a linear term (carrier-frequency offset)
    are removed first, so the result measures genuine phase structure —
    curvature and above — across the central window.  Sample selection
    matches :func:`phase_fit_quadratic`.
    """
    return _phase_fit(env, window_fwhm_fraction, deg=1)[1]


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
    of the peak magnitude; None if all zero.  |a| is taken over the whole
    array: a shift checks its support before its work array exists."""
    magnitude = np.abs(env.samples)
    peak = magnitude.max()
    if peak == 0.0:
        return None
    above = np.flatnonzero(magnitude > BOUNDARY_TOLERANCE * peak)
    return np.array([env.grid._time(k) for k in above[[0, -1]]])


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


@functools.cache
def _spline_prefilter() -> np.ndarray:
    """Cubic B-spline prefilter sqrt(3) * z**|k|, z = sqrt(3) - 2: the exact
    inverse of the [1, 4, 1]/6 filter, truncated at |k| <= 32 where
    |z|**k < 1e-18.  Built on first use, so importing this module executes
    no numpy."""
    return np.sqrt(3.0) * (np.sqrt(3.0) - 2.0) ** np.abs(np.arange(-32, 33))


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
    nonzero = np.flatnonzero(env.samples)
    first, last = nonzero[[0, -1]] if nonzero.size else (0, n - 1)
    del nonzero  # up to one index per sample: not held through the loop
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
    c = np.convolve(samples[lo:hi], _spline_prefilter())
    j = whole.astype(np.intp)
    del whole
    j += 32 - lo
    u2, u3 = u**2, u**3
    # summed in place, term by term, to keep few block-sized arrays alive
    out = (1.0 - u) ** 3 * c[j - 1]
    out += (4.0 - 6.0 * u2 + 3.0 * u3) * c[j]
    out += (1.0 + 3.0 * (u + u2 - u3)) * c[j + 1]
    out += u3 * c[j + 2]
    out /= 6.0
    return out
