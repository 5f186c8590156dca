"""Unbalanced-interferometer analysis of time-bin waveforms.

A two-bin waveform recombined with a delay matching its bin separation
produces a three-peak intensity profile whose central peak interferes; the
visibility of that interference across analyzer phase settings is the
figure of merit for phase-preserving imaging.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import partial

import numpy as np

from .envelope import SampledEnvelope, _adopt, shifted
from .errors import DegenerateInputError, PeakDetectionError, WindowOverflowError
from .grid import TimeGrid

#: Local maxima below this fraction of the global intensity peak are ignored
#: when locating the outer peaks of the interference profile.
PEAK_HEIGHT_FLOOR = 0.01


def analyzer_port(
    env: SampledEnvelope, delayed: SampledEnvelope, phase: float
) -> SampledEnvelope:
    """Output port (1/2) * [a(t) + e^{i*phase} * a(t - delay)] of ``env`` and
    its already delayed copy ``delayed`` = a(t - delay); no transform."""
    samples = 0.5 * (env.samples + np.exp(1j * phase) * delayed.samples)
    return _adopt(SampledEnvelope, env.grid, samples, env.carrier_wavelength_nm)


def recombine(env: SampledEnvelope, delay: float, phase: float) -> SampledEnvelope:
    """One output port of a balanced unbalanced-arm interferometer.

    b(t) = (1/2) * [a(t) + e^{i*phase} * a(t - delay)].  The conjugate port
    is obtained with phase -> phase + pi.

    Raises:
        WindowOverflowError: the delayed copy does not fit the window.
    """
    return analyzer_port(env, shifted(env, delay), phase)


def asymmetry(env: SampledEnvelope) -> float:
    """Skewness of the intensity profile: third central moment of |a(t)|^2
    about its centroid, normalized by the variance^(3/2).

    Zero (to grid accuracy) for time-symmetric profiles; its sign gives the
    direction of the heavier tail.

    Raises:
        DegenerateInputError: zero-energy envelope.
    """
    intensity = env.intensity
    total = float(intensity.sum())
    if total == 0.0:
        raise DegenerateInputError("asymmetry of a zero-energy envelope is undefined")
    t = env.times
    weights = intensity / total
    centroid = float(np.sum(weights * t))
    var = float(np.sum(weights * (t - centroid) ** 2))
    if var == 0.0:
        raise DegenerateInputError("asymmetry of a single-sample profile is undefined")
    third = float(np.sum(weights * (t - centroid) ** 3))
    return third / var**1.5


@dataclass(frozen=True)
class InterferenceResult:
    """Outcome of a two-setting visibility experiment."""

    constructive: SampledEnvelope
    destructive: SampledEnvelope
    delayed: SampledEnvelope  # the image shifted by the analyzer delay
    window: tuple[float, float]  # central integration window, ps
    visibility: float
    constructive_energy: float
    destructive_energy: float
    metric: str  # "energy" or "peak"
    outer_peaks: tuple[float, float]  # detected outer peak positions, ps


def _outer_peaks(intensity: np.ndarray, peak: float | None = None) -> tuple[int, int]:
    """Indices of the first and last of at least three local maxima above
    :data:`PEAK_HEIGHT_FLOOR` of the global peak.

    ``intensity`` may be a run of a longer profile whose global peak is
    ``peak``, if the run holds every sample at or above the floor and one
    more on each side where the profile has one: the indices are then the
    profile's, less the run's start."""
    if peak is None:
        peak = float(intensity.max())
    if peak == 0.0:
        raise DegenerateInputError("peak detection on a zero-energy envelope")
    floor = PEAK_HEIGHT_FLOOR * peak
    # Every counted maximum, with the rise before it and the fall after it,
    # lies within one sample of the samples at or above the floor, so only
    # that span is scanned.
    above = intensity >= floor
    start = max(int(above.argmax()) - 1, 0)
    span = intensity[start : len(intensity) + 1 - int(above[::-1].argmax())]
    # local maxima: a rise, then a fall after any flat run; a flat top counts
    # once, at its middle index rounded left, and end samples never count
    steps = np.flatnonzero(np.diff(span))
    rising = span[steps + 1] > span[steps]
    tops = np.flatnonzero(rising[:-1] & ~rising[1:])
    indices = (steps[tops] + 1 + steps[tops + 1]) // 2
    indices = start + indices[span[indices] >= floor]
    if len(indices) < 3:
        raise PeakDetectionError(
            f"expected a three-peak interference profile, found {len(indices)} "
            "peak(s); is the input a two-bin waveform recombined at its bin "
            "separation?"
        )
    return int(indices[0]), int(indices[-1])


def _time(grid: TimeGrid, k: int) -> float:
    """Time of sample ``k``, bitwise equal to ``grid.times[k]``."""
    return float(grid.t0 + grid.dt * k)


def _window_energy(
    env: SampledEnvelope, window: tuple[float, float], metric: str
) -> float:
    # times rise with k, so the samples in the closed window are one run
    time = partial(_time, env.grid)
    k = range(env.grid.n_samples)
    run = slice(bisect_left(k, window[0], key=time), bisect_right(k, window[1], key=time))
    intensity = np.abs(env.samples[run]) ** 2
    if metric == "energy":
        return float(intensity.sum() * env.grid.dt)
    if metric == "peak":
        return float(intensity.max())
    raise ValueError(f"metric must be 'energy' or 'peak', got {metric!r}")


def visibility_experiment(
    image: SampledEnvelope,
    bin_separation: float,
    relative_phase: float = 0.0,
    metric: str = "energy",
) -> InterferenceResult:
    """Two-setting interference measurement on a two-bin image.

    Recombines the image with delay = ``bin_separation`` at analyzer phases
    ``relative_phase`` (constructive) and ``relative_phase + pi``
    (destructive), locates the outer peaks of the three-peak profile on the
    summed intensity of both settings (the interference terms cancel in the
    sum, so detection works for any analyzer phase), and integrates the
    intensity over the central window of width ``bin_separation`` centered
    midway between the outer peaks.  Visibility is
    (E_max - E_min)/(E_max + E_min) of the two central-window energies
    (or peak heights with ``metric='peak'``), so it is insensitive to which
    setting actually interferes constructively.

    ``relative_phase`` must be the phase between the image's early and late
    bins as they appear at the output (for a prepared phase psi this is psi
    when the magnification is positive and -psi when the image is
    time-reversed; the two coincide for the usual psi = 0).

    Raises:
        WindowOverflowError: the analyzer delay shifts the image out of the
            window; the message names the delay.
        PeakDetectionError: the combined two-setting profile has fewer than
            three local maxima above 1% of its global peak.
    """
    if bin_separation <= 0.0:
        raise ValueError(f"bin_separation must be positive, got {bin_separation!r}")
    try:
        delayed = shifted(image, bin_separation)
    except WindowOverflowError as exc:
        raise WindowOverflowError(f"analyzer delay {bin_separation} ps: {exc}") from exc
    constructive = analyzer_port(image, delayed, relative_phase)
    destructive = analyzer_port(image, delayed, relative_phase + np.pi)
    grid = image.grid

    def summed(span: slice) -> np.ndarray:
        values = np.abs(constructive.samples[span]) ** 2
        values += np.abs(destructive.samples[span]) ** 2
        return values

    # The summed intensity is held only over the blocks that reach the peak
    # floor, and one sample beyond them on each side.
    spans = list(grid._blocks())
    maxima = [float(summed(span).max()) for span in spans]
    peak = max(maxima)
    reached = [i for i, top in enumerate(maxima) if top >= PEAK_HEIGHT_FLOOR * peak]
    lo = max(spans[reached[0]].start - 1, 0)
    hi = min(spans[reached[-1]].stop + 1, grid.n_samples)
    combined = np.empty(hi - lo)
    for span in grid._blocks(lo, hi):
        combined[span.start - lo : span.stop - lo] = summed(span)
    lo_peak, hi_peak = (_time(grid, lo + k) for k in _outer_peaks(combined, peak))
    del combined
    center = 0.5 * (lo_peak + hi_peak)
    window = (center - 0.5 * bin_separation, center + 0.5 * bin_separation)
    e_con = _window_energy(constructive, window, metric)
    e_des = _window_energy(destructive, window, metric)
    e_max, e_min = max(e_con, e_des), min(e_con, e_des)
    visibility = 0.0 if e_max == 0.0 else (e_max - e_min) / (e_max + e_min)
    return InterferenceResult(
        constructive=constructive,
        destructive=destructive,
        delayed=delayed,
        window=window,
        visibility=float(visibility),
        constructive_energy=e_con,
        destructive_energy=e_des,
        metric=metric,
        outer_peaks=(lo_peak, hi_peak),
    )
