"""The blocked chirp kernel against exact arithmetic.

``timelens.grid._multiply_blocks`` multiplies a waveform by
scale*exp(i*(a*m^2 + b*m + c)), m = k - N/2, evaluated from small tables of
phases reduced mod 2*pi in double-double arithmetic.  Here it multiplies a
unit input, over the smallest grid whose m covers each case's range, and
the same phase is formed exactly with ``fractions.Fraction`` from the
doubles a, b, c, reduced with a 60-digit 2*pi, and its cosine and sine are
summed as Taylor series in 40-digit ``decimal`` arithmetic: a reference good
to about 1e-35, against which every value checked must be within 1e-15.
"""

from __future__ import annotations

import decimal
from fractions import Fraction

import numpy as np
import pytest

from timelens.grid import _SPAN, TimeGrid, _multiply_blocks

TWO_PI = Fraction("6.28318530717958647692528676655900576839433879875021164194988918")
CONTEXT = decimal.Context(prec=40)


def _exact(a: float, b: float, c: float, m: int, scale: complex) -> complex:
    phase = Fraction(a) * m * m + Fraction(b) * m + Fraction(c)
    phase -= round(phase / TWO_PI) * TWO_PI
    x = CONTEXT.divide(decimal.Decimal(phase.numerator), decimal.Decimal(phase.denominator))
    cos, sin = decimal.Decimal(0), decimal.Decimal(0)
    term, k = decimal.Decimal(1), 0
    while k < 4 or abs(term) > decimal.Decimal("1e-38"):
        if k % 2 == 0:
            cos = CONTEXT.add(cos, term if k % 4 == 0 else -term)
        else:
            sin = CONTEXT.add(sin, term if k % 4 == 1 else -term)
        k += 1
        term = CONTEXT.divide(CONTEXT.multiply(term, x), k)
    return scale * complex(float(cos), float(sin))


def _grid(lo: int, hi: int) -> TimeGrid:
    """The smallest grid whose m = k - N/2 covers [lo, hi)."""
    half = 8
    while -lo > half or hi > half:
        half *= 2
    return TimeGrid(2 * half, 1.0)


def _checked_indices(grid: TimeGrid, lo: int, hi: int) -> list[int]:
    """Both sides of every table span and block edge of ``grid`` in [lo, hi),
    the range's ends and a few random indices."""
    rng = np.random.default_rng(hi - lo)
    half = grid.n_samples // 2
    edges = [*range(-half, half + 1, _SPAN), lo, hi - 1]
    near = {m + d for m in edges for d in (-2, -1, 0, 1)}
    near |= {int(m) for m in rng.integers(lo, hi, 16)}
    return sorted(m for m in near if lo <= m < hi)


def _check(a, b, c, lo, hi, scale, mirror=None) -> None:
    grid = _grid(lo, hi)
    half = grid.n_samples // 2
    values = np.ones(grid.n_samples, dtype=np.complex128)
    _multiply_blocks(values, values, grid, a=a, b=b, c=c, scale=scale, mirror=mirror)
    worst = max(
        abs(complex(values[m + half]) - _exact(a, b, c, m, scale))
        for m in _checked_indices(grid, lo, hi)
    )
    assert worst <= 1e-15


# (a, b, c, lo, hi, scale): a dispersion kernel on both mirror halves
# (w <= 0 and w >= 0) and one on the whole axis of a 2**16 grid, a lens on an
# off-center grid (b, c != 0), a pure ramp, a range of many spans, one-sample
# and sub-row ranges.
DISPERSION = [
    (0.5 * 1000.0 * (2 * np.pi / 4000.0) ** 2, 0.0, 0.0, -(2**15), 1, 0.6),
    (0.5 * 1000.0 * (2 * np.pi / 4000.0) ** 2, 0.0, 0.0, 0, 2**15 + 1, 0.6),
]
CASES = DISPERSION + [
    (0.5 * -12.0 * (2 * np.pi / 400.0) ** 2, 0.0, 0.0, -(2**15), 2**15, 1.0),
    (-0.0030517578125**2 / 14.0, 2.1e-3, 0.4321, -(2**15), 2**15, 1j),
    (0.0, -0.37 * 2 * np.pi / 400.0, 0.0, -(2**15), 1, 1.0),
    (1.234567e-9, 0.0, -3.5, -(2**18) - 5000, 3000, 1.0),
    (2.9, 1e3, -1e5, -3, 10, 1j),
    (0.31, 0.0, 0.0, 7, 8, 1.0),
    (-1.7e-3, 0.25, 1.0, -40, 100, 1.0),
]


@pytest.mark.parametrize("a, b, c, lo, hi, scale", CASES)
def test_chirp_is_within_1e15_of_exact(a, b, c, lo, hi, scale):
    _check(a, b, c, lo, hi, scale)


@pytest.mark.parametrize("a, b, c, lo, hi, scale", DISPERSION)
def test_mirrored_dispersion_is_within_1e15_of_exact(a, b, c, lo, hi, scale):
    """An even kernel evaluated on m <= 0 and mirrored: the values for m > 0
    are copies, and as exact as those they copy."""
    _check(a, b, c, lo, hi, scale, mirror=np.copy)
