"""Uniform time grid shared by sampled envelopes and their spectra.

The grid fixes both domains at once: ``n_samples`` points spaced ``dt`` (ps)
with t = 0 on sample ``n_samples // 2``, and the conjugate angular-frequency
axis centered on zero carrier offset with spacing ``2*pi/(n_samples*dt)``
(rad/ps).

The per-sample kernels of the propagation path are evaluated in blocks of
:data:`BLOCK` samples, each written or multiplied into one full-size array.
Every dispersion, time-shift and lens kernel is a discrete chirp
exp(i*(a*m^2 + b*m + c)) of the sample index m, which :func:`_chirp`
evaluates block by block from a few small tables of exactly reduced phases.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

#: Samples per block of a per-sample kernel.  A block of complex values is
#: 128 KiB: it stays in cache, and it is below numpy's 256 KiB threshold for
#: reusing temporaries in place, so a block never swaps the operands of a
#: complex product (``a*b`` and ``b*a`` can differ in the last bit).
BLOCK = 2**13


def _is_grid_size(n: int) -> bool:
    """Whether ``n`` is a power of two >= 16, the sizes a grid admits."""
    return n >= 16 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sampling grid centered on t = 0.

    The zero of time falls exactly on sample ``n_samples // 2``, which keeps
    symmetric pulses numerically even on the grid and lets the transform
    pair re-center the spectrum with sign flips alone.

    Attributes:
        n_samples: number of samples; must be a power of two >= 16.
        dt: time step in ps; must be positive.
    """

    n_samples: int
    dt: float

    def __post_init__(self) -> None:
        if not isinstance(self.n_samples, (int, np.integer)) or not _is_grid_size(
            int(self.n_samples)
        ):
            raise ValueError(
                f"n_samples must be a power of two >= 16, got {self.n_samples!r}"
            )
        if not (self.dt > 0.0 and np.isfinite(self.dt)):
            raise ValueError(f"dt must be a positive finite number, got {self.dt!r}")

    @classmethod
    def centered(cls, window: float, n_samples: int) -> "TimeGrid":
        """Grid of total length ``window`` (ps)."""
        return cls(n_samples=n_samples, dt=window / n_samples)

    @property
    def t0(self) -> float:
        """Time of the first sample, -dt*(n_samples//2), in ps."""
        return -self.dt * (self.n_samples // 2)

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
        """Sample times t0 + k*dt, shape (n_samples,), ps."""
        return self.t0 + self.dt * np.arange(self.n_samples)

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
        """Whether the closed interval [t_lo, t_hi] lies inside the window."""
        return t_lo >= self.t0 and t_hi <= self.t0 + (self.n_samples - 1) * self.dt


# 2*pi = _TWO_PI[0] + _TWO_PI[1] + _TWO_PI[2] to about 1e-34 (Cody and Waite):
# the first two parts have at most 27 significant bits, so k times either is
# exact for |k| < 2**26.
_TWO_PI = (
    float.fromhex("0x1.921fb54000000p+2"),
    float.fromhex("0x1.10b4610000000p-28"),
    float.fromhex("0x1.a62633145c06ep-56"),
)

#: A chirp table covers m0 + j, j = _Q*p + q with p, q < _Q.
_Q = 64
_SPAN = _Q * _Q
#: Chirp tables of this many spans (_Q*_Q entries each) are built at a time.
_GROUP = 64


def _two_sum(x, y):
    """(s, e) with s = fl(x + y) and x + y = s + e exactly (Knuth)."""
    s = x + y
    v = s - x
    return s, (x - (s - v)) + (y - v)


def _split(x):
    """(hi, lo) with x = hi + lo and at most 26 significant bits in each."""
    c = 134217729.0 * x  # 2**27 + 1 (Veltkamp)
    hi = c - (c - x)
    return hi, x - hi


def _two_prod(x, y):
    """(p, e) with p = fl(x*y) and x*y = p + e exactly (Dekker)."""
    p = x * y
    xh, xl = _split(x)
    yh, yl = _split(y)
    return p, ((xh * yh - p) + xh * yl + xl * yh) + xl * yl


def _reduce(hi, lo):
    """(hi + lo) - 2*pi*k with k = rint(hi/(2*pi)), as a double-double.

    hi - k*_TWO_PI[0] is exact by Sterbenz's lemma, so for |hi| < 2**26*2*pi
    (about 4.2e8 rad) the result is within about 1e-30 rad of the exact
    remainder; beyond that k*_TWO_PI[0] rounds, as an unreduced phase would.
    """
    k = np.rint(hi * (1.0 / (2.0 * np.pi)))
    r, e = _two_sum(hi - k * _TWO_PI[0], -k * _TWO_PI[1])
    e += lo - k * _TWO_PI[2]
    return _two_sum(r, e)


def _add(x, y):
    """Double-double sum x + y, reduced mod 2*pi."""
    s, e = _two_sum(x[0], y[0])
    return _reduce(s, e + (x[1] + y[1]))


def _cis(phase, scale=1.0):
    """scale*exp(i*phase) of a reduced double-double phase."""
    values = np.exp(1j * (phase[0] + phase[1]))
    if scale != 1.0:
        values *= scale
    return values


def _chirp(
    a: float, b: float, c: float, lo: int, hi: int, scale: complex = 1.0
) -> Iterator[np.ndarray]:
    """scale*exp(i*(a*m^2 + b*m + c)) for the integers m in [lo, hi), as
    consecutive arrays of at most :data:`BLOCK` values.  Each is a view of
    one buffer that the next overwrites: use it (or copy it) before asking
    for the next.

    With m = m0 + j over spans of _SPAN values, the phase is
    phi(m0) + theta*j + a*j^2 with theta = 2*a*m0 + b, and j = _Q*p + q turns
    exp(i*theta*j) into the outer product of exp(i*_Q*theta*p) and
    exp(i*theta*q).  So a span is one _Q x _Q outer product times the one
    table exp(i*a*j^2) of the call.  Every phase fed to ``exp`` is reduced
    mod 2*pi exactly in double-double arithmetic first (products by Dekker's
    algorithm), so each factor is within rounding of |phase| <= pi and a
    value is within about 1e-15 of exact; unreduced, the table's rounding of
    a*j^2 would repeat in every span.  Exact while |m| < 2**26 and each term
    stays below about 4.2e8 rad.
    """
    size = hi - lo
    if size <= 0:
        return
    rows = -(-min(size, _SPAN) // _Q)  # p < rows, so j < rows*_Q
    j = np.arange(rows * _Q, dtype=np.float64)
    table = _cis(_reduce(*_two_prod(a, j * j))) if a != 0.0 else None
    q = j[:_Q]
    per_block = BLOCK // _SPAN
    out = np.empty((per_block, rows, _Q), dtype=np.complex128)
    for start in range(lo, hi, _GROUP * _SPAN):
        m0 = np.arange(start, min(start + _GROUP * _SPAN, hi), _SPAN, dtype=np.float64)
        theta = _add(_two_prod(2.0 * a, m0), (b, 0.0))
        phi0 = _add(
            _add(_reduce(*_two_prod(a, m0 * m0)), _reduce(*_two_prod(b, m0))),
            _reduce(np.float64(c), 0.0),
        )
        th, tl = theta[0][:, None], theta[1][:, None]
        hq, lq = _two_prod(th, q)
        ramp = _cis(_reduce(hq, lq + tl * q))
        p = q[:rows]
        hp, lp = _two_prod(_Q * th, p)
        phi0 = (phi0[0][:, None], phi0[1][:, None])
        steps = _cis(_add(phi0, (hp, lp + _Q * tl * p)), scale)
        for first in range(0, len(m0), per_block):
            blocks = slice(first, first + per_block)
            spans = len(m0[blocks])
            np.multiply(steps[blocks, :, None], ramp[blocks, None, :], out=out[:spans])
            values = out[:spans].reshape(spans, rows * _Q)
            if table is not None:
                values *= table
            begin = start + first * _SPAN
            yield values.reshape(-1)[: min(BLOCK, hi - begin)]
