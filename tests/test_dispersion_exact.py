"""Dispersion checked at its output: against closed forms and exact twins.

A Gaussian exp(-t^2/(2*T^2)) through the spectral phase D/2*w^2 + b/6*w^3
is, with s = (2/b)^(1/3) and p = (T^2 - i*D)*s^2/2, the Airy integral

    T*s*sqrt(2*pi) * Ai(p^2 + t*s) * exp(2*p^3/3 + p*t*s)

(Miyagi & Nishida, Appl. Opt. 18, 678 (1979)), evaluated here with the
scaled ``scipy.special.airye``; without TOD it is the complex Gaussian
T/sqrt(T^2 - i*D) * exp(-t^2/(2*(T^2 - i*D))).  The time-bin input is two
such Gaussians.  Grids of 2**17 samples and more run the four-step
transform.

The twins are exact symmetries of the filter: conjugating the input flips
the sign of D, and reversing time, k -> (n - k) mod n, flips the sign of b.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.special import airye

from timelens import (
    DispersiveElement,
    SampledEnvelope,
    TimeGrid,
    apply_dispersion,
    gaussian_pulse,
    time_bin_pulse,
)

FWHM = 5.0
T = FWHM / (2.0 * math.sqrt(math.log(2.0)))  # exp(-t^2/(2*T^2)) has FWHM 5 ps
SEPARATION = 20.0
PHASE = 0.7


def _gaussian_out(t: np.ndarray, gdd: float, tod: float) -> np.ndarray:
    """The closed-form output of the unit Gaussian of width T at times ``t``."""
    if tod == 0.0:
        q = T**2 - 1j * gdd
        return T / np.sqrt(q) * np.exp(-(t**2) / (2.0 * q))
    s = np.cbrt(2.0 / tod)
    p = (T**2 - 1j * gdd) * s**2 / 2.0
    z = p**2 + t * s
    # airye gives Ai(z)*exp(2/3*z^(3/2)); the exponents cancel to O(1)
    scaled = airye(z)[0]
    exponent = 2.0 * p**3 / 3.0 + p * t * s - 2.0 / 3.0 * z * np.sqrt(z)
    return T * abs(s) * math.sqrt(2.0 * math.pi) * scaled * np.exp(exponent)


def _closed_form(kind: str, t: np.ndarray, gdd: float, tod: float) -> np.ndarray:
    if kind == "gaussian":
        return _gaussian_out(t, gdd, tod)
    half = 0.5 * SEPARATION
    early = _gaussian_out(t + half, gdd, tod)
    late = _gaussian_out(t - half, gdd, tod)
    return 0.5 * early + 0.5 * np.exp(1j * PHASE) * late


def _input(kind: str, grid: TimeGrid):
    if kind == "gaussian":
        return gaussian_pulse(grid, FWHM)
    return time_bin_pulse(grid, FWHM, SEPARATION, PHASE)


def _worst(out: np.ndarray, reference: np.ndarray) -> float:
    """max |out - reference| over the reference's peak magnitude."""
    return float(np.max(np.abs(out - reference)) / np.max(np.abs(reference)))


# (gdd ps^2, tod ps^3, window ps): each window holds the Airy tail to far
# below 1e-10 of the peak, so nothing wraps around.
TOD_CASES = [
    (1000.0, 1000.0, 16000.0),
    (-1000.0, 1000.0, 16000.0),
    (50.0, 20.0, 4000.0),
]


@pytest.mark.parametrize("n_samples", [2**14, 2**17])
@pytest.mark.parametrize("kind", ["gaussian", "time_bin"])
@pytest.mark.parametrize("gdd, tod, window", TOD_CASES)
def test_tod_dispersion_matches_the_airy_form(n_samples, kind, gdd, tod, window):
    grid = TimeGrid(n_samples, window / n_samples)
    out = apply_dispersion(_input(kind, grid), DispersiveElement(gdd=gdd, tod=tod))
    reference = _closed_form(kind, grid.times, gdd, tod)
    assert _worst(out.samples, reference) <= 1e-10


def test_large_grid_gaussian_matches_the_complex_gaussian():
    """1000 ps^2 without TOD on 2**20 samples, where each kernel phase
    reaches about 4e7 rad at the band edge."""
    grid = TimeGrid(2**20, 8000.0 / 2**20)
    out = apply_dispersion(gaussian_pulse(grid, FWHM), DispersiveElement(gdd=1000.0))
    assert _worst(out.samples, _gaussian_out(grid.times, 1000.0, 0.0)) <= 1e-12


def _reversed(samples: np.ndarray) -> np.ndarray:
    """Samples at index (n - k) mod n: t -> -t on the centered grid."""
    return np.roll(samples[::-1], 1)


@pytest.mark.parametrize("n_samples", [2**14, 2**17])
@pytest.mark.parametrize("tod", [0.0, 20.0])
class TestTwins:
    GDD = 50.0

    @pytest.fixture
    def pulse(self, n_samples):
        return time_bin_pulse(TimeGrid(n_samples, 4000.0 / n_samples), FWHM,
                              SEPARATION, PHASE)

    def test_conjugation_flips_the_gdd(self, pulse, tod):
        out = apply_dispersion(pulse, DispersiveElement(gdd=self.GDD, tod=tod))
        twin = apply_dispersion(
            SampledEnvelope(pulse.grid, np.conj(pulse.samples)),
            DispersiveElement(gdd=-self.GDD, tod=tod),
        )
        assert _worst(np.conj(out.samples), twin.samples) <= 1e-15

    def test_time_reversal_flips_the_tod(self, pulse, tod):
        out = apply_dispersion(pulse, DispersiveElement(gdd=self.GDD, tod=tod))
        twin = apply_dispersion(
            SampledEnvelope(pulse.grid, _reversed(pulse.samples)),
            DispersiveElement(gdd=self.GDD, tod=-tod),
        )
        assert _worst(_reversed(out.samples), twin.samples) <= 1e-15
