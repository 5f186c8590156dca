"""Unbalanced-interferometer analysis of time-bin waveforms.

A two-bin waveform recombined with a delay matching its bin separation
produces a three-peak intensity profile whose central peak interferes; the
visibility of that interference across analyzer phase settings is the
figure of merit for phase-preserving imaging.  The central window is the
delay's span starting at the image's intensity centroid, and each port's
intensity is integrated over it as the linear interpolant of its samples,
so the visibility is continuous in the window and in the grid step.  Each
port is formed only on the window's samples; :func:`analyzer_port` forms a
whole one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._numpy import np
from .envelope import SampledEnvelope, _adopt, _block_sum, shifted
from .errors import POSITIVE, DegenerateInputError, WindowOverflowError, require


def analyzer_port(
    env: SampledEnvelope, delayed: SampledEnvelope, phase: float
) -> SampledEnvelope:
    """Output port (1/2) * [a(t) + e^{i*phase} * a(t - delay)] of ``env`` and
    its already delayed copy ``delayed`` = a(t - delay); no transform."""
    samples = _port(env.samples, delayed.samples, phase)
    return _adopt(SampledEnvelope, env.grid, samples, env.carrier_wavelength_nm)


def _port(samples: np.ndarray, delayed: np.ndarray, phase: float) -> np.ndarray:
    """The port's samples, each from the same two samples on any slice."""
    return 0.5 * (samples + np.exp(1j * phase) * delayed)


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
    total, moment = _moments(env, 0.0, 0)
    if total == 0.0:
        raise DegenerateInputError("asymmetry of a zero-energy envelope is undefined")
    second, third = _moments(env, moment / total, 2) / total
    if second == 0.0:
        raise DegenerateInputError("asymmetry of a single-sample profile is undefined")
    return float(third / second**1.5)


@dataclass(frozen=True)
class InterferenceResult:
    """Outcome of a two-setting visibility experiment.  The ports are not
    kept: ``analyzer_port(image, delayed, phase)`` forms either one whole,
    bit for bit as the experiment forms it over the window."""

    delayed: SampledEnvelope  # the image shifted by the analyzer delay
    window: tuple[float, float]  # central integration window, ps
    visibility: float
    constructive_energy: float
    destructive_energy: float
    metric: str  # "energy" or "peak"


def _moments(env: SampledEnvelope, center: float, order: int) -> np.ndarray:
    """The sums of |a(t)|^2 * (t - center)**k over the samples, for
    k = ``order`` and ``order + 1``."""
    grid = env.grid

    def terms(s: slice) -> np.ndarray:
        offset = grid._times(s.start, s.stop) - center
        low = np.abs(env.samples[s]) ** 2 * offset**order
        return np.stack((low, low * offset))

    return _block_sum(grid, terms)


def _centroid(env: SampledEnvelope) -> float:
    """Time centroid of |a(t)|^2, ps.

    Raises:
        DegenerateInputError: zero-energy envelope.
    """
    total, moment = _moments(env, 0.0, 0)
    if total == 0.0:
        raise DegenerateInputError("the centroid of a zero-energy envelope is undefined")
    return float(moment / total)


def _window_energy(
    image: SampledEnvelope,
    delayed: SampledEnvelope,
    phase: float,
    window: tuple[float, float],
    metric: str,
) -> float:
    """Integral (``metric='energy'``) or maximum (``'peak'``) over the closed
    ``window``, clipped to the grid, of the linear interpolant of |b|^2 for
    the analyzer port b = :func:`analyzer_port` (``image``, ``delayed``,
    ``phase``), formed on the window's samples only: the values the whole
    port has there.

    The nodes are the window's ends and the samples between them, so a
    window that holds no sample still has its two interpolated end values.
    """
    grid = image.grid
    x0, x1 = np.clip(grid._index(np.asarray(window)), 0, grid.n_samples - 1)
    k0, k1 = math.floor(x0), math.ceil(x1)
    cut = slice(k0, k1 + 1)
    port = _port(image.samples[cut], delayed.samples[cut], phase)
    nodes = np.concatenate(([x0], np.arange(k0 + 1, k1), [x1]))
    values = np.interp(nodes, np.arange(k0, k1 + 1), np.abs(port) ** 2)
    if metric == "peak":
        return float(values.max())
    return float(np.trapezoid(values, nodes) * grid.dt)


#: The rule :func:`visibility_experiment` enforces on its delay, and the
#: metrics it computes.
VISIBILITY_RULES = {"bin_separation": POSITIVE}
METRICS = ("energy", "peak")


def visibility_experiment(
    image: SampledEnvelope,
    bin_separation: float,
    relative_phase: float = 0.0,
    metric: str = "energy",
) -> InterferenceResult:
    """Two-setting interference measurement on a two-bin image.

    Recombines the image with delay = ``bin_separation`` at analyzer phases
    ``relative_phase`` (constructive) and ``relative_phase + pi``
    (destructive), and integrates each port's intensity over the central
    window (c, c + ``bin_separation``), where c is the centroid of the
    image's intensity.  The window is thus centered on the centroid of the
    two ports' summed intensity (the interference terms cancel in the sum),
    which for a two-bin image is midway between the outer peaks.  Each
    port's intensity is taken as the linear interpolant of its samples and
    integrated over the window exactly, the end cells cut at its edges.
    Visibility is (E_max - E_min)/(E_max + E_min) of the two central-window
    energies (or, with ``metric='peak'``, of the interpolant's maxima over
    the window, ends included), so it is insensitive to which setting
    actually interferes constructively; it is 0 when both vanish.

    ``relative_phase`` must be the phase between the image's early and late
    bins as they appear at the output (for a prepared phase psi this is psi
    when the magnification is positive and -psi when the image is
    time-reversed; the two coincide for the usual psi = 0).

    Raises:
        ValueError: ``bin_separation`` is not positive, or ``metric`` is
            not one of :data:`METRICS`.
        DegenerateInputError: the image has zero energy.
        WindowOverflowError: the analyzer delay shifts the image out of the
            window; the message names the delay.
    """
    require(ValueError, VISIBILITY_RULES, bin_separation=bin_separation)
    if metric not in METRICS:
        raise ValueError(f"metric must be one of {', '.join(METRICS)}, got {metric!r}")
    start = _centroid(image)
    try:
        delayed = shifted(image, bin_separation)
    except WindowOverflowError as exc:
        raise WindowOverflowError(f"analyzer delay {bin_separation} ps: {exc}") from exc
    window = (start, start + bin_separation)
    e_con = _window_energy(image, delayed, relative_phase, window, metric)
    e_des = _window_energy(image, delayed, relative_phase + np.pi, window, metric)
    e_max, e_min = max(e_con, e_des), min(e_con, e_des)
    visibility = 0.0 if e_max == 0.0 else (e_max - e_min) / (e_max + e_min)
    return InterferenceResult(
        delayed=delayed,
        window=window,
        visibility=float(visibility),
        constructive_energy=e_con,
        destructive_energy=e_des,
        metric=metric,
    )
