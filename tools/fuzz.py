"""Differential fuzz of the visibility scenarios.

Each draw takes one of the three shipped visibility scenarios and overrides
its magnification (|M| in [2, 40], either sign), bin FWHM, bin separation,
pump seed FWHM, largest GDD and sample count (2^11, 2^12 or 2^13); half the
draws also set a TOD ratio in [-0.5, 0.5] ps, which puts third-order
dispersion on the largest dispersive stage.  A draw
that runs is run again on its twin grid, four times the samples over twice
the window, and each reported metric is compared between the two.

The JSON report counts every draw's outcome by error type, and lists the
worst offenders per metric and how many draws moved by more than 1e-4 and
1e-2.  An exception that is not a ``TimeLensError`` is an escape: it is
listed in the report, and the tool exits 1.  Needs only the stdlib, numpy
and timelens::

    PYTHONPATH=src python tools/fuzz.py --seed 5 --draws 150 --out fuzz.json
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from collections import Counter
from pathlib import Path

import numpy as np

from timelens import TimeLensError, parse_scenario, run_simulate

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
SCENARIOS = ("visibility_field_lens", "visibility_telescope", "visibility_single_lens")
THRESHOLDS = (1e-4, 1e-2)
WORST = 5


def draw(rng: np.random.Generator) -> tuple[str, dict[str, float]]:
    """One scenario name and its ``section.key`` overrides."""
    name = SCENARIOS[rng.integers(len(SCENARIOS))]
    sign = 1.0 if rng.random() < 0.5 else -1.0
    overrides = {
        "system.magnification": sign * rng.uniform(2.0, 40.0),
        "input.bin_fwhm": rng.uniform(2.0, 10.0),
        "input.bin_separation": rng.uniform(5.0, 30.0),
        "system.pump_seed_fwhm": rng.uniform(1.0, 5.0),
        "system.largest_gdd": rng.uniform(200.0, 2000.0),
        "grid.n_samples": int(2 ** rng.integers(11, 14)),
    }
    if rng.random() < 0.5:
        overrides["system.tod_ratio"] = rng.uniform(-0.5, 0.5)
    return name, {key: round(value, 3) for key, value in overrides.items()}


def simulate(name: str, overrides: dict[str, float]) -> dict:
    text = (SCENARIO_DIR / f"{name}.scn").read_text(encoding="utf-8")
    return run_simulate(parse_scenario(text, overrides=overrides))[0]


def moves(report: dict, twin: dict) -> dict[str, float]:
    """How far each metric moved from ``report`` to ``twin``: the visibility
    absolutely, the width and energy relatively, and the fidelity relatively
    above 0.5 and absolutely below."""
    image, fine = report["image"], twin["image"]
    fidelity = image["fidelity_to_ideal"]
    return {
        "visibility": abs(
            twin["interference"]["visibility"] - report["interference"]["visibility"]
        ),
        "fwhm_ps": abs(fine["fwhm_ps"] / image["fwhm_ps"] - 1.0),
        "energy": abs(fine["energy"] / image["energy"] - 1.0),
        "fidelity_to_ideal": abs(fine["fidelity_to_ideal"] - fidelity)
        / (fidelity if fidelity > 0.5 else 1.0),
    }


def fuzz(seed: int, draws: int) -> dict:
    rng = np.random.default_rng(seed)
    outcomes: Counter[str] = Counter()
    escapes: list[dict] = []
    offenders: dict[str, list[dict]] = {}
    for _ in range(draws):
        name, overrides = draw(rng)
        stage = "draw"
        try:
            report = simulate(name, overrides)
            stage = "twin"
            n_samples = 4 * overrides["grid.n_samples"]
            twin = simulate(name, {**overrides, "grid.n_samples": n_samples,
                                   "grid.window": 2.0 * report["grid"]["window_ps"]})
        except TimeLensError as exc:
            outcomes[f"{stage}: {type(exc).__name__}"] += 1
            continue
        except Exception as exc:  # an escape is what this tool looks for
            outcomes[f"{stage}: escape {type(exc).__name__}"] += 1
            escapes.append({"scenario": name, "overrides": overrides, "stage": stage,
                            "traceback": traceback.format_exc()})
            continue
        outcomes["ran"] += 1
        for metric, move in moves(report, twin).items():
            offenders.setdefault(metric, []).append(
                {"move": move, "scenario": name, "overrides": overrides}
            )
    return {
        "seed": seed,
        "draws": draws,
        "outcomes": dict(sorted(outcomes.items())),
        "moved": {
            metric: {f"above {t:g}": sum(o["move"] > t for o in runs) for t in THRESHOLDS}
            for metric, runs in offenders.items()
        },
        "worst": {
            metric: sorted(runs, key=lambda o: o["move"], reverse=True)[:WORST]
            for metric, runs in offenders.items()
        },
        "escapes": escapes,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--draws", type=int, default=100)
    parser.add_argument("--out", type=Path, default=Path("fuzz.json"))
    args = parser.parse_args(argv)
    result = fuzz(args.seed, args.draws)
    args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"outcomes": result["outcomes"], "moved": result["moved"]}))
    return 1 if result["escapes"] else 0


if __name__ == "__main__":
    sys.exit(main())
