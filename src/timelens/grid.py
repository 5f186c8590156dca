"""Uniform time grid shared by sampled envelopes and their spectra.

The grid fixes both domains at once: ``n_samples`` points spaced ``dt`` (ps)
starting at ``t0``, and the conjugate angular-frequency axis centered on zero
carrier offset with spacing ``2*pi/(n_samples*dt)`` (rad/ps).

The per-sample kernels of the propagation path are evaluated in blocks of
:data:`BLOCK` samples, each written or multiplied into one full-size array.
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


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sampling grid.

    Attributes:
        n_samples: number of samples; must be a power of two.
        dt: time step in ps; must be positive.
        t0: time of the first sample in ps.
    """

    n_samples: int
    dt: float
    t0: float

    def __post_init__(self) -> None:
        if not isinstance(self.n_samples, (int, np.integer)) or not _is_power_of_two(
            int(self.n_samples)
        ):
            raise ValueError(f"n_samples must be a power of two, got {self.n_samples!r}")
        if not (self.dt > 0.0 and np.isfinite(self.dt)):
            raise ValueError(f"dt must be a positive finite number, got {self.dt!r}")
        if not np.isfinite(self.t0):
            raise ValueError(f"t0 must be finite, got {self.t0!r}")

    @classmethod
    def centered(cls, window: float, n_samples: int = 2**15) -> "TimeGrid":
        """Grid of total length ``window`` (ps) centered on t = 0.

        The zero of time falls exactly on sample ``n_samples // 2``, which
        keeps symmetric pulses numerically even on the grid and lets the
        transform pair re-center the spectrum with sign flips alone.
        """
        dt = window / n_samples
        return cls(n_samples=n_samples, dt=dt, t0=-dt * (n_samples // 2))

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

    def _blocks(
        self, start: int = 0, stop: int | None = None
    ) -> Iterator[tuple[slice, np.ndarray]]:
        """(slice, sample indices k) of consecutive runs of at most
        :data:`BLOCK` samples covering [start, stop), by default the grid.

        ``t0 + dt*k`` and ``(k - n_samples//2)*domega`` are bitwise equal to
        the matching slices of :attr:`times` and :attr:`omegas`.
        """
        stop = self.n_samples if stop is None else stop
        for lo in range(start, stop, BLOCK):
            hi = min(lo + BLOCK, stop)
            yield slice(lo, hi), np.arange(lo, hi)

    def contains(self, t_lo: float, t_hi: float) -> bool:
        """Whether the closed interval [t_lo, t_hi] lies inside the window."""
        return t_lo >= self.t0 and t_hi <= self.t0 + (self.n_samples - 1) * self.dt
