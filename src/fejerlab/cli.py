"""Command-line interface.

Usage:
    fejerlab list
    fejerlab run <scenario> [--steps N] [--seed S] [--tol T] [--out DIR]
    fejerlab run --config FILE [...]
    fejerlab run --all [...]
    fejerlab export <scenario> [--out DIR] [...]

Exactly one of a scenario name, --config and --all selects what runs.
Exit codes: 0 when every expected verdict matched, 1 on any mismatch,
2 on configuration errors.  The default output directory comes from the
FEJERLAB_OUT environment variable; --out overrides it.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import load_scenario
from .errors import ConfigError
from .scenarios import get_scenario, list_scenarios, run_scenario

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_CONFIG = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fejerlab",
        description="Sequence diagnostics and nonexpansive fixed-point iteration lab",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list built-in scenarios")

    for cmd, help_text in (
        ("run", "run a scenario and compare against its expected verdicts"),
        ("export", "run a scenario and write its trajectories and reports"),
    ):
        p = sub.add_parser(cmd, help=help_text)
        p.add_argument("scenario", nargs="?", help="built-in scenario name")
        p.add_argument("--config", help="YAML scenario file instead of a name")
        p.add_argument("--all", action="store_true", help="every built-in scenario")
        p.add_argument("--steps", type=int, default=None, help="override n_steps")
        p.add_argument("--seed", type=int, default=None, help="override the seed")
        p.add_argument("--tol", type=float, default=None, help="override the tolerance")
        p.add_argument(
            "--out",
            default=None,
            help="output directory (default: $FEJERLAB_OUT)",
        )
    return parser


def _resolve_specs(args):
    if sum(map(bool, (args.scenario, args.config, args.all))) > 1:
        raise ConfigError("pass only one of a scenario name, --config FILE, or --all")
    if args.all:
        return [get_scenario(name) for name, _, _ in list_scenarios()]
    if args.config:
        return [load_scenario(args.config)]
    if args.scenario:
        return [get_scenario(args.scenario)]
    raise ConfigError("pass a scenario name, --config FILE, or --all")


def _out_dir(args, required: bool):
    out = args.out if args.out is not None else os.environ.get("FEJERLAB_OUT")
    if required and not out:
        raise ConfigError("export needs --out DIR or FEJERLAB_OUT set")
    return out


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        for name, description, topic in list_scenarios():
            print(f"{name:24s} [{topic}]")
            print(f"    {description}")
        return EXIT_OK
    try:
        specs = _resolve_specs(args)
        out = _out_dir(args, required=args.command == "export")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    exit_code = EXIT_OK
    for spec in specs:
        try:
            artifacts = run_scenario(
                spec, n_steps=args.steps, seed=args.seed, tol=args.tol, out_dir=out
            )
        except ConfigError as exc:
            print(f"error: {spec.name}: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        for outcome in artifacts.summary:
            if not outcome.matched:
                status = "MISS"
            elif outcome.expected is None:
                status = "evid"
            else:
                status = " ok "
            expected = outcome.expected if outcome.expected is not None else "-"
            print(
                f"[{status}] {spec.name}/{outcome.name}: "
                f"expected={expected} actual={outcome.actual}"
            )
        if args.command == "run" and not artifacts.all_matched:
            exit_code = EXIT_MISMATCH
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
