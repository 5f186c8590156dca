"""The ``propagate_large`` op: one in-process library call chain.

plan_grid -> time_bin_pulse -> run_system -> magnified_copy + overlap ->
visibility_experiment, on a pumped system whose largest element is 1000 ps^2.
Run as a script, it performs the workload's set-up (import and warm-up) and
exits; the benchmark times that to get ``setup_s``.
"""

from __future__ import annotations

import timelens as tl
from timelens.envelope import LN2
from timelens.runner import sizing_divisor

TOPOLOGIES = ("single-lens", "field-lens", "telescope")
N_SAMPLES = 2**20
WARMUP_N_SAMPLES = 2**14
LARGEST_GDD = 1000.0  # ps^2
PUMP_SEED_FWHM = 2.5  # ps
BIN_FWHM = 5.0  # ps
BIN_SEPARATION = 15.0  # ps
INPUT_CARRIER_NM = 710.0


def setup_system(topology: str, magnitude: float, n_samples: int):
    """(system, input pulse, signed M, analyzer delay) for one op.

    Single-lens and field-lens systems image at -|M| (time-reversed), the
    telescope at +|M|, as in the shipped scenarios.
    """
    kind = tl.TopologyKind(topology)
    m = magnitude if kind is tl.TopologyKind.TELESCOPE else -magnitude
    build = {
        tl.TopologyKind.SINGLE_LENS: tl.single_lens_system,
        tl.TopologyKind.FIELD_LENS: tl.field_lens_system,
        tl.TopologyKind.TELESCOPE: tl.telescope_system,
    }[kind]
    system = build(m, LARGEST_GDD / sizing_divisor(kind, m), pump_seed_fwhm=PUMP_SEED_FWHM)
    delay = magnitude * BIN_SEPARATION
    grid = tl.plan_grid(
        system,
        input_extent=BIN_SEPARATION + 4.0 * BIN_FWHM,
        input_bandwidth=4.0 * LN2 / BIN_FWHM,
        analyzer_delay=delay,
        n_samples=n_samples,
    )
    pulse = tl.time_bin_pulse(
        grid, BIN_FWHM, BIN_SEPARATION, carrier_wavelength_nm=INPUT_CARRIER_NM
    )
    return system, pulse, m, delay


def propagate(topology: str, magnitude: float, n_samples: int = N_SAMPLES) -> dict:
    """Run one op; returns the figures its correctness check needs."""
    system, pulse, m, delay = setup_system(topology, magnitude, n_samples)
    image = tl.run_system(pulse, system).final
    fidelity = abs(tl.overlap(image, tl.magnified_copy(pulse, m))) ** 2
    result = tl.visibility_experiment(image, bin_separation=delay)
    return {"fidelity": fidelity, "visibility": result.visibility}


def warm_up() -> None:
    """Exercise every code path once on a small grid."""
    for topology in TOPOLOGIES:
        propagate(topology, 20.0, WARMUP_N_SAMPLES)


if __name__ == "__main__":
    warm_up()
