"""The CI workflow names only files that exist: every script it runs and every
shipped scenario it simulates.  Read as text, so PyYAML is not needed."""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")


def test_every_script_the_workflow_runs_exists():
    scripts = set(re.findall(r"\bpython\s+([\w./-]+\.py)\b", WORKFLOW))
    assert {"tools/fuzz.py", ".github/large_grids.py", "perfbench/propagate.py"} <= scripts
    missing = sorted(path for path in scripts if not (ROOT / path).is_file())
    assert not missing, missing


def test_every_scenario_the_workflow_names_exists():
    named = set(re.findall(r"\bscenarios/[\w.-]+\.scn\b", WORKFLOW))
    assert "scenarios/fringe_scan.scn" in named
    missing = sorted(path for path in named if not (ROOT / path).is_file())
    assert not missing, missing
    # the shipped-scenario loop globs the directory, which must not be empty
    assert "scenarios/*.scn" in WORKFLOW
    assert list((ROOT / "scenarios").glob("*.scn"))
