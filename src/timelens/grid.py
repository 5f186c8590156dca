"""Uniform time grid shared by sampled envelopes and their spectra.

The grid fixes both domains at once: N = ``n_samples`` points at the times
dt*(k - N/2) (ps), and the conjugate angular-frequency axis centered on zero
carrier offset with spacing ``2*pi/(N*dt)`` (rad/ps).  Only :class:`TimeGrid`
turns a sample index into a time, or a time into a fractional index: a copy
magnified by M reads sample k at N/2 + (k - N/2)/M.

Every dispersion, time-shift and lens kernel is the exponential of a
polynomial phase d*m^3 + a*m^2 + b*m + c of the sample index m.  One
function, :func:`_multiply_blocks`, evaluates it sample by sample and
multiplies it into a waveform, one block of :data:`BLOCK` samples at a
time, so no full-size kernel is ever formed.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from numbers import Integral

from ._numpy import np
from .errors import POSITIVE, Rule, require

#: Samples per block of a per-sample kernel.  A block of complex values is
#: 128 KiB: it stays in cache, and it is below numpy's 256 KiB threshold for
#: reusing temporaries in place, so a block never swaps the operands of a
#: complex product (``a*b`` and ``b*a`` can differ in the last bit).
BLOCK = 2**13


#: The rules :class:`TimeGrid` enforces on its fields.
GRID_RULES = {
    "n_samples": Rule(
        lambda n: isinstance(n, Integral) and n >= 16 and n & (n - 1) == 0,
        "must be a power of two >= 16",
    ),
    "dt": POSITIVE,
}


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sampling grid centered on t = 0; a window of length W is
    ``TimeGrid(n_samples, W / n_samples)``.

    Sample k sits at t_k = dt*(k - N/2), rounded once, so t_{N/2+j} is
    exactly -t_{N/2-j}: a pulse even about t = 0 is exactly even on the
    grid, and the transform pair re-centers the spectrum with sign flips.
    A time t sits at the fractional index N/2 + t/dt.

    Attributes:
        n_samples: number of samples; must be a power of two >= 16.
        dt: time step in ps; must be positive.
    """

    n_samples: int
    dt: float

    def __post_init__(self) -> None:
        require(ValueError, GRID_RULES, n_samples=self.n_samples, dt=self.dt)

    @property
    def t0(self) -> float:
        """Time of the first sample, -dt*(n_samples//2), in ps."""
        return self._time(0)

    @property
    def window(self) -> float:
        """Total window length n_samples*dt in ps."""
        return self.n_samples * self.dt

    @property
    def domega(self) -> float:
        """Angular frequency resolution 2*pi/(n_samples*dt) in rad/ps."""
        return 2.0 * np.pi / (self.n_samples * self.dt)

    @property
    def times(self) -> np.ndarray:
        """Sample times dt*(k - n_samples//2), shape (n_samples,), ps."""
        return self._times(0, self.n_samples)

    def _times(self, start: int, stop: int) -> np.ndarray:
        """Times dt*(k - n_samples//2) of the samples start <= k < stop, ps."""
        half = self.n_samples // 2
        return self.dt * np.arange(start - half, stop - half)

    def _time(self, k: int) -> float:
        """Time of sample ``k``, bitwise equal to ``times[k]``, ps."""
        return float(self._times(k, k + 1)[0])

    def _index(self, t):
        """Fractional sample index n_samples//2 + t/dt of the time(s) ``t``."""
        return self.n_samples // 2 + t / self.dt

    @property
    def omegas(self) -> np.ndarray:
        """Angular frequency offsets (k - n/2)*domega, shape (n_samples,), rad/ps.

        Centered axis: zero offset sits at index n_samples // 2, matching the
        FFT conventions used by the transform pair.
        """
        n = self.n_samples
        return (np.arange(n) - n // 2) * self.domega

    def _blocks(self, start: int = 0, stop: int | None = None) -> Iterator[slice]:
        """Slices of consecutive runs of at most :data:`BLOCK` samples
        covering [start, stop), by default the grid."""
        stop = self.n_samples if stop is None else stop
        for lo in range(start, stop, BLOCK):
            yield slice(lo, min(lo + BLOCK, stop))

    def contains(self, t_lo: float, t_hi: float) -> bool:
        """Whether [t_lo, t_hi] lies between the first and last sample times."""
        return self._time(0) <= t_lo and t_hi <= self._time(self.n_samples - 1)


def _multiply_blocks(
    out: np.ndarray,
    src: np.ndarray,
    grid: TimeGrid,
    *,
    a: float = 0.0,
    b: float = 0.0,
    c: float = 0.0,
    d: float = 0.0,
    scale: complex = 1.0,
    extra=None,
    mirror=None,
) -> None:
    """``out = src * kernel``, ``src`` first, one :meth:`TimeGrid._blocks`
    block at a time (``out`` may be ``src``), with the kernel
    scale*exp(i*(d*m^3 + a*m^2 + b*m + c)) of m = k - n//2, times
    ``extra(lo, hi)`` for m in [lo, hi) if given.  m*domega is exactly the
    grid's omegas, and dt*m its times.

    Each sample's phase is its own float64 Horner sum, so no rounding
    repeats coherently across samples.  Reducing it mod 2*pi adds about one
    rounding and spares ``cos`` and ``sin`` libm's slow large-argument path.

    With ``mirror``, only m <= 0 is evaluated: ``mirror`` (``np.copy`` if the
    kernel is even in m, ``np.conjugate`` if it is conjugate-symmetric) of a
    block's values, reversed, is the kernel on the mirror block, and
    contiguous, which keeps the product on numpy's contiguous loop.
    """
    n, half = grid.n_samples, grid.n_samples // 2
    whole = mirror is None
    for span in grid._blocks(0, n if whole else half + 1):
        m = np.arange(span.start - half, span.stop - half, dtype=np.float64)
        phase = ((d * m + a) * m + b) * m + c
        phase -= (2.0 * np.pi) * np.rint(phase * (0.5 / np.pi))
        values = np.empty(len(m), dtype=np.complex128)
        np.cos(phase, out=values.real)
        np.sin(phase, out=values.imag)
        values *= scale
        if extra is not None:
            values *= extra(span.start - half, span.stop - half)
        np.multiply(src[span], values, out=out[span])
        lo, hi = max(span.start, 1), min(span.stop, half)
        if not whole and lo < hi:
            twin = mirror(values[lo - span.start : hi - span.start][::-1])
            other = slice(n - hi + 1, n - lo + 1)
            np.multiply(src[other], twin, out=out[other])
