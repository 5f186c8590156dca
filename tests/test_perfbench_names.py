"""Every ``timelens`` name the benchmark under ``perfbench/`` reaches exists.

The tier-1 suite does not collect ``perfbench/``, so a deleted or renamed
function would otherwise pass here and only fail the benchmark's traced run.
The benchmark's sources are read as syntax trees, never imported or run.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tree(name: str) -> ast.Module:
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


def _resolves(dotted: str) -> bool:
    """Whether ``timelens.a.b`` names an importable module or one of its
    attributes, walking the longest importable module prefix."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def _used_names(tree: ast.Module) -> set[str]:
    """Dotted ``timelens`` names a source reaches through its imports."""
    aliases: dict[str, str] = {}
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] != "timelens":
                    continue
                if alias.asname:
                    aliases[alias.asname] = alias.name
                else:  # `import timelens.cli` binds the name `timelens`
                    aliases["timelens"] = "timelens"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith(
            "timelens"
        ):
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in aliases:
            names.add(".".join([aliases[node.id], *reversed(chain)]))
    return names


def test_every_traced_function_exists():
    (targets,) = (
        ast.literal_eval(node.value)
        for node in _tree("tracer.py").body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "TARGETS" for t in node.targets)
    )
    missing = [
        f"{module}.{function}"
        for module, function, _ in targets
        if not hasattr(importlib.import_module(module), function)
    ]
    assert targets
    assert not missing, missing


def test_every_timelens_name_the_benchmark_uses_exists():
    used = set().union(*(_used_names(_tree(path.name)) for path in PERFBENCH.glob("*.py")))
    assert {
        "timelens.runner.sizing_divisor",
        "timelens.single_lens_system",
        "timelens.field_lens_system",
        "timelens.telescope_system",
    } <= used
    missing = sorted(name for name in used if not _resolves(name))
    assert not missing, missing
