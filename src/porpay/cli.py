"""Command-line scenario driver.

``porpay run <spec.json>`` executes a scenario and prints a short summary;
``porpay verify-report <report.json>`` re-checks a report's conservation
and payout arithmetic. Both exit 0 only for a VALID result.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .scenario import ScenarioSpec, SpecInvalid, report_to_json, run, verify_report


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        raw = json.loads(Path(args.spec).read_text(encoding="utf-8"))
        spec = ScenarioSpec.from_dict(raw)
        if args.seed is not None:
            spec = dataclasses.replace(spec, seed=args.seed)
        if args.variant is not None:
            config = dataclasses.replace(spec.config, variant=args.variant)
            spec = dataclasses.replace(spec, config=config)
        report = run(spec)
    except (SpecInvalid, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.report is not None:
        Path(args.report).write_text(report_to_json(report), encoding="utf-8")

    status = "VALID" if report["valid"] else "INVALID"
    print(f"{status} variant={report['spec']['session']['variant']} seed={report['seed']}")
    print(f"  a={report['a']} refund_path={report['refund_path']}")
    print(f"  counters={report['counters']}")
    print(f"  payout actual={report['payout']['actual']}")
    print(f"  payout expected={report['payout']['expected']}")
    print(
        "  conservation "
        f"{report['conservation']['genesis_supply']} -> "
        f"{report['conservation']['final_supply']} "
        f"exact={report['conservation']['exact']}"
    )
    return 0 if report["valid"] else 1


def _cmd_verify_report(args: argparse.Namespace) -> int:
    try:
        report = json.loads(Path(args.report).read_text(encoding="utf-8"))
        ok, problems = verify_report(report)
    except (OSError, AttributeError, LookupError, TypeError, ValueError) as exc:
        # a field of another JSON type than the emitted one is a malformed
        # report, not an INVALID one
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if ok:
        print("report VALID")
        return 0
    for problem in problems:
        print(f"problem: {problem}")
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="porpay",
        description="Run retrievability-payment scenarios on a simulated ledger.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario file")
    p_run.add_argument("spec", help="path to the scenario JSON file")
    p_run.add_argument("--seed", type=int, default=None, help="override the seed")
    p_run.add_argument(
        "--variant",
        choices=("arbiter", "arbiterless"),
        default=None,
        help="override the dispute-resolution variant",
    )
    p_run.add_argument("--report", default=None, help="write the JSON report here")
    p_run.set_defaults(func=_cmd_run)

    p_ver = sub.add_parser("verify-report", help="re-check an emitted report")
    p_ver.add_argument("report", help="path to the report JSON file")
    p_ver.set_defaults(func=_cmd_verify_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
