"""Command-line entry point.

Exit codes: 0 success, 2 configuration/usage error, 3 numeric failure.
Report bytes go to stdout (and to ``--out`` when given); diagnostics and the
wall-clock duration go to stderr so the report bytes stay reproducible.
"""
from __future__ import annotations

import argparse
import sys

from .scenarios import ConfigError, list_scenarios, load_config, run_scenario, sweep

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icolab",
        description="Indefinite-causal-order simulations: switches, CHSH, process matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # no --seed: no stage reads the config's seed, the report only echoes it.
    # The config key stays because perfbench's run-builtins workload sets it.
    run_p = sub.add_parser("run", help="run one scenario and print its JSON report")
    run_p.add_argument("--config", required=True, help="path to a JSON scenario config")
    run_p.add_argument("--out", default=None, help="also write the report to this path")

    sweep_p = sub.add_parser("sweep", help="sweep one parameter over a grid, print CSV")
    sweep_p.add_argument("--config", required=True, help="path to a JSON scenario config")
    sweep_p.add_argument(
        "--param", required=True, choices=("eta", "q"), help="parameter to sweep"
    )
    sweep_p.add_argument(
        "--grid", required=True, help="comma-separated grid values, e.g. 0.0,0.5,1.0"
    )
    sweep_p.add_argument("--out", default=None, help="also write the CSV to this path")

    sub.add_parser("list", help="list built-in scenarios")
    return parser


def _emit(payload: bytes, out_path: str | None) -> None:
    sys.stdout.buffer.write(payload)
    sys.stdout.buffer.flush()
    if out_path is not None:
        with open(out_path, "wb") as fh:
            fh.write(payload)


def _cmd_run(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    try:
        result = run_scenario(config)
    except Exception as exc:  # numeric/runtime failure inside the pipeline
        print(f"error: scenario run failed: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    _emit(result.to_json_bytes(), args.out if args.out is not None else config.out)
    print(f"duration_s={result.duration_s:.6f}", file=sys.stderr)
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    try:
        grid = [float(x) for x in args.grid.split(",") if x.strip()]
    except ValueError:
        raise ConfigError(f"grid values must be numbers, got {args.grid!r}") from None
    try:
        csv_text = sweep(config, args.param, grid)
    except ConfigError:
        raise
    except Exception as exc:
        print(f"error: sweep failed: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    _emit(csv_text.encode(), args.out)
    return EXIT_OK


def _cmd_list() -> int:
    for name, description in list_scenarios():
        print(f"{name}: {description}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_list()
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
