"""The differential fuzz tool, on a few seeded draws."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "fuzz.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("fuzz", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_seeded_draws_raise_typed_errors_or_hold_the_visibility(tmp_path):
    fuzz = _load_tool()
    out = tmp_path / "fuzz.json"
    assert fuzz.main(["--seed", "5", "--draws", "20", "--out", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["escapes"] == []
    assert sum(report["outcomes"].values()) == 20
    assert report["outcomes"]["ran"] > 0
    # the visibility window is continuous in the grid, so the twin agrees
    assert report["worst"]["visibility"][0]["move"] < 1e-3
    # the ideal image is the input's closed form on either grid, so the
    # fidelity moves only by rounding
    assert report["worst"]["fidelity_to_ideal"][0]["move"] < 1e-10
    # every draw's exact twin, all times doubled, ends the same way and
    # reports each value times 2**p bit for bit
    assert report["time_scale"]["mismatches"] == []
    assert report["time_scale"]["matching_outcomes"] == 20
