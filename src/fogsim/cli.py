"""Command line entry point.

    fogsim run <scenario> [--seed N] [--out DIR] [--policy NAME] [--no-scaling]

``<scenario>`` is a JSON file path or a built-in preset name. Exit codes:
0 on success, 2 for configuration errors, 3 when users are still
unfinished at the time limit.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .errors import ConfigError, DeadlockDetected
from .ga_policies import POLICIES
from .report import emit_report
from .runner import run_scenario
from .scenario import load_scenario, preset_names

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fogsim", description="Simulated fog orchestration runner")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run a scenario and write its report")
    run.add_argument("scenario", help=f"JSON file or preset: {', '.join(preset_names())}")
    run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    run.add_argument("--out", default="out", help="report directory (default: out)")
    run.add_argument("--policy", choices=sorted(POLICIES), default=None, help="override the placement policy")
    run.add_argument("--no-scaling", action="store_true", help="disable master scaling")
    return parser


def _summarize(report, paths: dict[str, str]) -> str:
    lines = [f"scenario {report.name} ({report.kind}) policy={report.policy} seed={report.seed}"]
    for key, value in sorted(report.summary.items()):
        lines.append(f"  {key}: {value}")
    lines.append("wrote " + ", ".join(paths[name] for name in sorted(paths)))
    return "\n".join(lines)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        overrides = {}
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.policy is not None:
            overrides["policy"] = args.policy
        if args.no_scaling:
            overrides["scaling_enabled"] = False
        report = run_scenario(replace(load_scenario(args.scenario), **overrides))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DeadlockDetected as exc:
        print(f"run wedged: {exc}", file=sys.stderr)
        if exc.dump:
            print(exc.dump, file=sys.stderr)
        return 3
    paths = emit_report(report, args.out)
    print(_summarize(report, paths))
    return 0


if __name__ == "__main__":
    sys.exit(main())
