"""Differential fuzz of the visibility scenarios.

Each draw takes one of the three shipped visibility scenarios and overrides
its magnification (|M| in [2, 40], either sign), bin FWHM, bin separation,
pump seed FWHM, largest GDD and sample count (2^11, 2^12 or 2^13); half the
draws also set a TOD ratio in [-0.5, 0.5] ps, which puts third-order
dispersion on the largest dispersive stage.  A draw
that runs is run again on its twin grid, four times the samples over twice
the window, and each reported metric is compared between the two.

Every draw also runs its exact twin at the same sample count: every time
of the scenario times s = 2 (each ps**p value times s**p,
:func:`time_scaled`).  A power-of-two s scales every dt, GDD and width
exactly and leaves every phase and amplitude bit for bit, so the twin must
end the same way (it runs, or raises the same error type), write the same
``.npy`` bits, and report each value times s**p, p its power of ps
(:func:`ps_power`).  Anything else is a mismatch.

The JSON report counts every draw's outcome by error type, and lists the
worst offenders per metric and how many draws moved by more than 1e-4 and
1e-2, and every exact-twin mismatch.  An exception that is not a
``TimeLensError`` is an escape: it is listed in the report.  An escape or
a mismatch makes the tool exit 1.  Needs only the stdlib, numpy and
timelens::

    PYTHONPATH=src python tools/fuzz.py --seed 5 --draws 150 --out fuzz.json
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from collections import Counter
from dataclasses import fields
from pathlib import Path

import numpy as np

from timelens import TimeLensError, parse_scenario, run_simulate
from timelens.scenario import key_spec

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
SCENARIOS = ("visibility_field_lens", "visibility_telescope", "visibility_single_lens")
THRESHOLDS = (1e-4, 1e-2)
WORST = 5
#: The exact twin's time scale.
SCALE = 2.0
#: The power of ps of each scenario unit that carries it.
_UNIT_POWERS = {"ps": 1, "ps2": 2}


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


def simulate(text: str, overrides: dict[str, float]) -> tuple[dict, dict]:
    """``run_simulate``'s report and files for the scenario ``text``."""
    return run_simulate(parse_scenario(text, overrides=overrides))


def time_scaled(text: str, overrides: dict[str, float], s: float) -> dict[str, float]:
    """``overrides`` plus every nonzero time value of the scenario ``text``
    (with them) times s**p, p its unit's power of ps: widths, separations,
    centers, delays, windows and TOD ratios times s, GDDs times s**2.  The
    sample count is kept; the planned window scales with the rest."""
    scenario = parse_scenario(text, overrides=overrides)
    scaled = dict(overrides)
    for section in ("input", "system", "grid", "analysis"):
        spec = getattr(scenario, section)
        for field in fields(spec):
            path = f"{section}.{field.name}"
            key = key_spec(path)
            power = _UNIT_POWERS.get(key.unit, 0) if key is not None else 0
            value = getattr(spec, field.name)
            if power and value:
                scaled[path] = value * s**power
    return scaled


def ps_power(path: tuple) -> int:
    """The power of ps of the report value at ``path``, its keys and list
    indices: energies and ``*_ps`` keys 1, ``*_ps2`` 2, ``*_ps3`` 3,
    ``*_rad_per_ps2`` -2, and each lens's stretched pump FWHM 1; the rest
    (ratios, phases, amplitudes, counts, carriers in nm) 0."""
    keys = [key for key in path if isinstance(key, str)]
    if keys[:2] == ["pump", "stretched_fwhm_ps"] or keys[-1].endswith("energy"):
        return 1
    for suffix, power in (("_rad_per_ps2", -2), ("_ps3", 3), ("_ps2", 2), ("_ps", 1)):
        if keys[-1].endswith(suffix):
            return power
    return 0


def _leaves(value, path: tuple = ()):
    """Every ``(path, value)`` of a JSON-like tree below its dicts and its
    lists: each list entry is a leaf of its own."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        yield path, value
        return
    for key, item in items:
        yield from _leaves(item, (*path, key))


def scale_mismatches(
    run: tuple[dict, dict], twin: tuple[dict, dict], s: float,
    rel: float = 0.0, small: float = 0.0,
) -> list[str]:
    """Where the simulate result ``twin`` of the time-scaled scenario is not
    ``run`` scaled by ``s``: each report value that is not its value in
    ``run`` times s**p, and, when both tolerances are 0, each ``.npy`` array
    whose bits differ.  A value may be off by ``rel`` of its size, or by
    ``small`` when its size is below 1e-4.  Paths are written
    ``key/index/key``."""
    (report, files), (twin_report, twin_files) = run, twin
    leaves, twin_leaves = list(_leaves(report)), list(_leaves(twin_report))
    if [path for path, _ in leaves] != [path for path, _ in twin_leaves]:
        return ["report keys"]
    found = []
    for (path, value), (_, twin_value) in zip(leaves, twin_leaves):
        if type(value) is float and type(twin_value) is float:
            want = value * s ** ps_power(path)
            tolerance = max(rel * abs(want), small if abs(want) < 1e-4 else 0.0)
            same = abs(twin_value - want) <= tolerance
        else:
            same = twin_value == value
        if not same:
            found.append("/".join(map(str, path)))
    if rel == 0.0 and small == 0.0:
        found += [
            name for name, samples in files.items()
            if not isinstance(samples, str)
            and samples.tobytes() != twin_files[name].tobytes()
        ]
    return found


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


def _attempt(call, escapes: list[dict], **context) -> tuple[str, tuple | None]:
    """``("ran", call())``, or the name of the error type ``call`` raised and
    None.  An escape is added to ``escapes`` with ``context``."""
    try:
        return "ran", call()
    except TimeLensError as exc:
        return type(exc).__name__, None
    except Exception as exc:  # an escape is what this tool looks for
        escapes.append({**context, "traceback": traceback.format_exc()})
        return f"escape {type(exc).__name__}", None


def fuzz(seed: int, draws: int) -> dict:
    rng = np.random.default_rng(seed)
    outcomes: Counter[str] = Counter()
    escapes: list[dict] = []
    offenders: dict[str, list[dict]] = {}
    mismatches: list[dict] = []
    matching = exact = 0
    for _ in range(draws):
        name, overrides = draw(rng)
        context = {"scenario": name, "overrides": overrides}
        text = (SCENARIO_DIR / f"{name}.scn").read_text(encoding="utf-8")
        outcome, run = _attempt(
            lambda: simulate(text, overrides), escapes, **context, stage="draw"
        )
        scaled, twin = _attempt(
            lambda: simulate(text, time_scaled(text, overrides, SCALE)),
            escapes, **context, stage="scaled",
        )
        if scaled != outcome:
            found = [f"outcome {outcome} became {scaled}"]
        else:
            matching += 1
            found = [] if run is None else scale_mismatches(run, twin, SCALE)
            exact += run is not None and not found
        if found:
            mismatches.append({**context, "mismatches": found})
        if run is None:
            outcomes[f"draw: {outcome}"] += 1
            continue
        report = run[0]
        del run, twin  # the refined twin holds four times the samples
        refined = {**overrides, "grid.n_samples": 4 * overrides["grid.n_samples"],
                   "grid.window": 2.0 * report["grid"]["window_ps"]}
        outcome, fine = _attempt(
            lambda: simulate(text, refined), escapes, **context, stage="twin"
        )
        if fine is None:
            outcomes[f"twin: {outcome}"] += 1
            continue
        outcomes["ran"] += 1
        for metric, move in moves(report, fine[0]).items():
            offenders.setdefault(metric, []).append({"move": move, **context})
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
        "time_scale": {
            "scale": SCALE,
            "matching_outcomes": matching,
            "exact_runs": exact,
            "mismatches": mismatches,
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
    scale = {k: v for k, v in result["time_scale"].items() if k != "mismatches"}
    scale["mismatches"] = len(result["time_scale"]["mismatches"])
    print(json.dumps({"outcomes": result["outcomes"], "moved": result["moved"],
                      "time_scale": scale}))
    return 1 if result["escapes"] or result["time_scale"]["mismatches"] else 0


if __name__ == "__main__":
    sys.exit(main())
