"""Command-line interface.

Subcommands::

    timelens simulate SCENARIO [--out DIR]
    timelens design   SCENARIO [--out DIR]
    timelens sweep    SCENARIO --param SECTION.KEY --range START:STOP:COUNT
                      [--out DIR]

Output directory precedence: ``--out`` flag, then the scenario's
``[output] dir``, then the ``TIMELENS_OUT`` environment variable, then
``./timelens-out``.

Exit codes: 0 success, 2 usage or scenario syntax error (a scenario that
is not UTF-8 text included; a leading byte-order mark is skipped), 3
scenario semantic error, 4 physics/domain failure, 5 I/O failure, 1
unexpected error.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .errors import (
    ScenarioSemanticError,
    ScenarioSyntaxError,
    TimeLensError,
)
from .runner import (
    run_design,
    run_simulate,
    run_sweep,
    sweep_values,
    write_artifacts,
)
from .scenario import parse_scenario

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_SYNTAX = 2
EXIT_SEMANTIC = 3
EXIT_PHYSICS = 4
EXIT_IO = 5

OUTPUT_ENV_VAR = "TIMELENS_OUT"
DEFAULT_OUTPUT_DIR = "timelens-out"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="timelens",
        description=(
            "Simulate aberration-corrected temporal imaging systems, compute "
            "element requirements, and sweep scenario parameters."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = (
        ("simulate", "run a scenario through its imaging system"),
        ("design", "compute per-element dispersion/bandwidth requirements"),
        ("sweep", "re-run a scenario over a one-parameter grid"),
    )
    for name, help_text in specs:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("scenario", help="path to a scenario file")
        p.add_argument(
            "--out",
            help=(
                "output directory (overrides the scenario [output] dir and "
                f"${OUTPUT_ENV_VAR})"
            ),
        )
        if name == "sweep":
            p.add_argument(
                "--param",
                required=True,
                help="numeric scenario key to sweep, as section.key",
            )
            p.add_argument(
                "--range",
                required=True,
                dest="sweep_range",
                help="inclusive sweep grid as START:STOP:COUNT",
            )
    return parser


def _parse_range(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"expected START:STOP:COUNT, got {text!r}")
    return sweep_values(float(parts[0]), float(parts[1]), int(parts[2]))


def _resolve_out(flag: str | None, scenario_dir: str | None) -> Path:
    if flag:
        return Path(flag)
    if scenario_dir:
        return Path(scenario_dir)
    env = os.environ.get(OUTPUT_ENV_VAR)
    if env:
        return Path(env)
    return Path(DEFAULT_OUTPUT_DIR)


def _print_simulate_summary(report: dict, out_dir: Path) -> None:
    image = report["image"]
    width = image["fwhm_ps"]
    width_text = "n/a" if width is None else f"{width:.6g} ps"
    print(
        f"{report['topology']} system, magnification {report['magnification']:g}: "
        f"image fwhm {width_text}, energy {image['energy']:.6g}"
    )
    interference = report.get("interference")
    if interference is not None:
        print(
            f"visibility {interference['visibility']:.6f} "
            f"(analyzer delay {interference['analyzer_delay_ps']:g} ps, "
            f"metric {interference['metric']})"
        )
    print(f"wrote {len(report['artifacts'])} artifact(s) to {out_dir}")


def _print_design_summary(report: dict, out_dir: Path) -> None:
    print(
        f"{report['configuration']} design for input fwhm "
        f"{report['input_fwhm_ps']:g} ps, bandwidth "
        f"{report['bandwidth_rad_per_ps']:g} rad/ps, magnification "
        f"{report['magnification']:g}:"
    )
    for e in report["entries"]:
        line = (
            f"  {e['element']:>3} {e['bound_kind']} "
            f"{e['dispersion_bound_ps2']:.6g} ps^2"
        )
        if e["recommended_ps2"] != e["dispersion_bound_ps2"]:
            line += f" (recommended {e['recommended_ps2']:.6g} ps^2)"
        line += (
            f", bandwidth {e['bandwidth_kind']} "
            f"{e['bandwidth_rad_per_ps']:.6g} rad/ps"
        )
        print(line)
    for note in report["footnotes"]:
        print(f"  note: {note}")
    print(f"wrote {len(report['artifacts'])} artifact(s) to {out_dir}")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    for i, arg in enumerate(argv[:-1]):
        # attach the value to --range (or its abbreviation), so that a
        # negative START is not read as an option
        if len(arg) > 2 and "--range".startswith(arg):
            argv[i : i + 2] = [f"{arg}={argv[i + 1]}"]
            break
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_SYNTAX if exc.code else EXIT_OK

    try:
        text = Path(args.scenario).read_text(encoding="utf-8-sig")
    except OSError as exc:
        print(f"error: cannot read scenario: {exc}", file=sys.stderr)
        return EXIT_IO
    except UnicodeDecodeError as exc:
        print(f"error: scenario is not UTF-8 text: {exc}", file=sys.stderr)
        return EXIT_SYNTAX

    try:
        scenario = parse_scenario(text)
        if args.command == "simulate":
            report, files = run_simulate(scenario)
        elif args.command == "design":
            report, files = run_design(scenario)
        else:
            try:
                values = _parse_range(args.sweep_range)
            except ValueError as exc:
                print(f"error: bad --range: {exc}", file=sys.stderr)
                return EXIT_SYNTAX
            report, files = run_sweep(text, args.param, values)
    except ScenarioSyntaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SYNTAX
    except ScenarioSemanticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC
    except TimeLensError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_PHYSICS
    except Exception as exc:  # pragma: no cover - defensive
        print(f"unexpected error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_UNEXPECTED

    out_dir = _resolve_out(args.out, scenario.output_dir)
    try:
        write_artifacts(out_dir, files)
    except OSError as exc:
        print(f"error: cannot write artifacts: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:  # a failed .npy save; write_artifacts removed its files
        print(f"unexpected error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_UNEXPECTED

    if args.command == "simulate":
        _print_simulate_summary(report, out_dir)
    elif args.command == "design":
        _print_design_summary(report, out_dir)
    else:
        print(
            f"swept {report['param']} over {report['n_points']} point(s); "
            f"wrote {out_dir / 'sweep.csv'}"
        )
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
