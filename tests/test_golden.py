"""Drift gate: every number the shipped scenarios produce, against a stored copy.

``tests/data/golden.json`` holds the ``report.json`` of each shipped
simulation, the ``report.json`` and ``design.csv`` of each shipped design,
and the 25-point ``fringe_scan`` analyzer-phase ``sweep.csv``.  The test
recomputes them in process and compares floats at rel 1e-12 / abs 1e-15;
strings, integers, booleans and nulls must match exactly.

A change that moves the numbers on purpose regenerates the file with::

    PYTHONPATH=src python tests/test_golden.py

which prints every path that moves beyond the tolerances and writes the new
value only there: every float within the tolerances keeps its stored value
(:func:`_merge`), so the file's diff shows just the drift it accepts.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import pytest

from timelens import parse_scenario, run_design, run_simulate, run_sweep
from timelens.runner import sweep_values

ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = ROOT / "scenarios"
GOLDEN = Path(__file__).resolve().parent / "data" / "golden.json"

REL_TOL = 1e-12
ABS_TOL = 1e-15

SWEEP = ("fringe_scan", "analysis.analyzer_phase", (0.0, 6.2832, 25))


def _shipped(design: bool) -> list[Path]:
    """The shipped design scenarios, or the shipped simulation scenarios."""
    return [
        p for p in sorted(SCENARIO_DIR.glob("*.scn")) if p.stem.startswith("design_") == design
    ]


def compute() -> dict:
    """Every golden number, computed by this checkout."""
    simulate = {
        p.stem: run_simulate(parse_scenario(p.read_text()))[0] for p in _shipped(False)
    }
    design = {}
    for p in _shipped(True):
        report, files = run_design(parse_scenario(p.read_text()))
        design[p.stem] = {"report": report, "design.csv": files["design.csv"]}
    name, param, (start, stop, count) = SWEEP
    _, files = run_sweep((SCENARIO_DIR / f"{name}.scn").read_text(), param,
                         sweep_values(start, stop, count))
    header, *rows = csv.reader(io.StringIO(files["sweep.csv"]))
    sweep = {"scenario": name, "param": param, "columns": header,
             "rows": [[float(v) for v in row] for row in rows]}
    return {"simulate": simulate, "design": design, "sweep": sweep}


def _mismatches(got, want, path: str = "$") -> list[str]:
    """Paths where ``got`` differs from ``want`` beyond the tolerances."""
    if type(got) is not type(want):
        return [f"{path}: {got!r} is not a {type(want).__name__} like {want!r}"]
    if isinstance(want, dict):
        keys = [] if got.keys() == want.keys() else [
            f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return keys + [m for k in want if k in got
                       for m in _mismatches(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in _mismatches(g, w, f"{path}[{i}]")]
    if isinstance(want, float):
        if math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            return []
        return [f"{path}: {got!r} != {want!r}"]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


def _merge(got, want):
    """``got``, with every float within the tolerances of ``want``'s value at
    the same path replaced by ``want``'s, which is thereby kept as stored."""
    if type(got) is not type(want):
        return got
    if isinstance(want, dict):
        return {k: _merge(v, want[k]) if k in want else v for k, v in got.items()}
    if isinstance(want, list) and len(got) == len(want):
        return [_merge(g, w) for g, w in zip(got, want)]
    return want if not _mismatches(got, want) else got


@pytest.fixture(scope="module")
def computed() -> dict:
    # a JSON round trip gives both sides the same types (tuples become lists)
    return json.loads(json.dumps(compute()))


@pytest.mark.parametrize("section", ["simulate", "design", "sweep"])
def test_numbers_match_golden(computed, section):
    want = json.loads(GOLDEN.read_text())[section]
    assert _mismatches(computed[section], want) == []


def test_golden_covers_every_shipped_scenario():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden["simulate"]) == [p.stem for p in _shipped(False)]
    assert sorted(golden["design"]) == [p.stem for p in _shipped(True)]
    assert len(golden["sweep"]["rows"]) == SWEEP[2][2]


def test_mismatches_apply_the_tolerances():
    assert _mismatches({"a": [1.0, "x", 3]}, {"a": [1.0 + 5e-13, "x", 3]}) == []
    assert _mismatches(1e-16, 5e-16) == []
    assert _mismatches(1.0 + 3e-12, 1.0) != []
    assert _mismatches(3, 3.0) != []
    assert _mismatches(True, 1) != []
    assert _mismatches("x", "y") != []
    # a key set change still reports the drift under the shared keys
    assert _mismatches({"a": 1.0, "b": 1}, {"a": 2.0}) == [
        "$: keys ['a', 'b'] != ['a']", "$.a: 1.0 != 2.0"]


def test_merge_keeps_stored_values_within_the_tolerances():
    stored = {"x": [1.0, 2.0, "s"], "y": {"z": 1e-16, "w": 3.0}, "gone": 1.0}
    new = {"x": [1.0 + 5e-13, 2.0 + 1e-9, "t"], "y": {"z": 4e-16, "w": 3}, "v": [5.0]}
    merged = _merge(new, stored)
    assert merged == {"x": [1.0, 2.0 + 1e-9, "t"], "y": {"z": 1e-16, "w": 3}, "v": [5.0]}
    assert type(merged["y"]["w"]) is int
    assert _mismatches(merged, new) == []
    # lists whose length changed are taken whole
    assert _merge([1.0, 2.0], [1.0]) == [1.0, 2.0]


if __name__ == "__main__":
    new = json.loads(json.dumps(compute()))
    if GOLDEN.exists():
        stored = json.loads(GOLDEN.read_text())
        for line in _mismatches(new, stored):
            print(line)
        new = _merge(new, stored)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(new, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
