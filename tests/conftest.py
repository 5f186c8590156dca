"""Shared fixtures, hypothesis profile, and acceptance-line reporting.

The acceptance tests register one human-readable PASS/FAIL line per
criterion; the lines are echoed in a dedicated terminal section after the
run so the verdicts are visible regardless of pytest's capture settings.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from timelens import TimeGrid
from timelens.grid import _chirp

settings.register_profile(
    "ci",
    max_examples=30,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.filter_too_much],
)
settings.load_profile("ci")


ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    """Collect a criterion verdict for the end-of-run summary."""
    ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def small_grid() -> TimeGrid:
    """A fast grid fine enough for 5 ps features and ~30 ps² of dispersion."""
    return TimeGrid(2**12, 400.0 / 2**12)


@pytest.fixture
def fine_grid() -> TimeGrid:
    """A longer window for spectral-width measurements (fine dω)."""
    return TimeGrid(2**14, 2000.0 / 2**14)


def _full_kernel(
    grid: TimeGrid, *, a=0.0, b=0.0, c=0.0, scale=1.0, extra=None, mirror=None
) -> np.ndarray:
    """A ``timelens.envelope._multiply_blocks`` kernel over the whole axis as
    one array: the same chirp helper over the same index range, the same
    ``extra`` factor and, where the kernel is mirrored, the same mirror."""
    n, half = grid.n_samples, grid.n_samples // 2
    whole = mirror is None
    stop = n if whole else half + 1
    values = np.concatenate([v.copy() for v in _chirp(a, b, c, -half, stop - half, scale)])
    if extra is not None:
        values *= extra(-half, stop - half)
    if whole:
        return values
    return np.concatenate([values, mirror(values[1:half][::-1])])


@pytest.fixture
def full_kernel():
    """:func:`_full_kernel`, the full-axis reference of a blocked kernel."""
    return _full_kernel


@pytest.fixture
def centered_grid():
    """``TimeGrid(n_samples, window / n_samples)``, or None after checking that a
    size below 16 is refused: the n = 2 and 4 cases of the kernel tests stand
    for grids that can no longer be built."""

    def build(window: float, n_samples: int) -> TimeGrid | None:
        if n_samples >= 16:
            return TimeGrid(n_samples, window / n_samples)
        with pytest.raises(ValueError, match="power of two >= 16"):
            TimeGrid(n_samples, window / n_samples)
        return None

    return build


@pytest.fixture
def within_rounding():
    """Check a kernel against its plain per-sample formula: they may differ by
    8*eps*(1 + max|phase|), the rounding of a phase as large as the
    formula's."""

    def check(kernel: np.ndarray, plain: np.ndarray, phase: np.ndarray) -> None:
        bound = 8.0 * np.finfo(float).eps * (1.0 + float(np.max(np.abs(phase))))
        assert float(np.max(np.abs(kernel - plain))) <= bound

    return check
