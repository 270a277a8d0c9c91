"""Command line front end: run named verification checks and report.

Text mode streams one block per check as it completes; JSON mode emits a
single array of report objects.  Exit status is 0 only when every
requested check passed, 1 when any failed or errored, 2 for usage or
catalog problems.
"""

from __future__ import annotations

import argparse
import json
import sys

from .checks import describe_checks, resolve_ids, run_check
from .errors import CatalogParseError, UnknownCheckId
from .exprparse import parse_scalar
from .jordanian import build_catalog
from .scalars import PARAMS


def _parse_set(settings):
    bindings = {}
    for text in settings:
        name, sep, value = text.partition("=")
        name = name.strip()
        if not sep or not name:
            raise CatalogParseError(f"--set wants param=value, got {text!r}", "<--set>", 1, 1)
        if name not in PARAMS:
            raise CatalogParseError(
                f"unknown parameter {name!r} (have: {', '.join(PARAMS)})", "<--set>", 1, 1
            )
        bindings[name] = parse_scalar(value.strip(), path="<--set>")
    return bindings


def _format_text(report):
    lines = [f"{report.check_id}: {report.status} ({report.elapsed_ms} ms)"]
    if report.parameters:
        shown = ", ".join(f"{n}={v}" for n, v in report.parameters.items())
        lines.append(f"  parameters: {shown}")
    for label, value in report.residuals:
        lines.append(f"  residual {label}: {value}")
    return "\n".join(lines)


def build_arg_parser():
    parser = argparse.ArgumentParser(
        prog="jqsphere",
        description="verify the deformed SL(2) pair and its quantum spheres",
    )
    parser.add_argument(
        "checks",
        nargs="*",
        metavar="CHECK",
        help="check ids to run (default: all; see --list)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--max-degree",
        type=int,
        default=6,
        metavar="N",
        help="degree bound for rewrite completion, at least 1 (default: 6)",
    )
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="PARAM=VALUE",
        dest="settings",
        help="bind a parameter; value may be rational or a parameter expression",
    )
    parser.add_argument(
        "--catalog",
        metavar="PATH",
        action="append",
        default=[],
        help="catalog file or directory (repeatable; default: packaged data)",
    )
    parser.add_argument("--list", action="store_true", help="list check ids and exit")
    parser.add_argument(
        "--out", metavar="FILE", help="write the report to FILE instead of stdout"
    )
    return parser


def main(argv=None):
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    if args.max_degree < 1:
        parser.error(f"argument --max-degree: must be at least 1, got {args.max_degree}")

    if args.list:
        width = max(len(name) for name, _ in describe_checks())
        for name, summary in describe_checks():
            print(f"{name:<{width}}  {summary}")
        return 0

    try:
        plan = resolve_ids(args.checks or "all")
        bindings = _parse_set(args.settings)
        catalog = build_catalog(bindings, args.max_degree, args.catalog or None)
        sink = open(args.out, "w") if args.out else sys.stdout
    except (UnknownCheckId, CatalogParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    reports = []
    try:
        for check_id in plan:
            report = run_check(catalog, check_id)
            reports.append(report)
            if args.format == "text":
                print(_format_text(report), file=sink, flush=True)
        if args.format == "json":
            json.dump([r.to_dict() for r in reports], sink, indent=2)
            sink.write("\n")
    finally:
        if args.out:
            sink.close()

    return 0 if all(r.status == "pass" for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
