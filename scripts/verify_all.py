#!/usr/bin/env python3
"""Run the full check registry at several parameter points.

The generic column keeps every parameter symbolic, which is the
strongest statement the engine can make; the other columns specialize
the deformation and radius parameters to interesting rational points and
re-derive everything from scratch there.  The classical point h = 0 is
where all the noncommutativity degenerates.

Usage:
    python3 scripts/verify_all.py [--max-degree N]
"""

import argparse
import sys
import time

from jqsphere.checks import check_ids, run_check
from jqsphere.jordanian import build_catalog

POINTS = (
    ("generic", {}),
    ("classical", {"h": 0}),
    ("rational", {"h": 1, "k": 2, "rho": 3, "kprime": 1, "rhoprime": 2}),
)

MARK = {"pass": "ok", "fail": "FAIL", "error": "ERR"}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-degree", type=int, default=6)
    args = parser.parse_args(argv)

    ids = check_ids()
    catalogs = [
        (label, build_catalog(bindings=bindings, max_degree=args.max_degree))
        for label, bindings in POINTS
    ]

    width = max(len(cid) for cid in ids)
    header = f"{'check':<{width}}  " + "  ".join(
        f"{label:>9}" for label, _ in catalogs
    )
    print(header)
    print("-" * len(header))

    worst = "pass"
    started = time.monotonic()
    for cid in ids:
        cells = []
        for _, cat in catalogs:
            report = run_check(cat, cid)
            cells.append(f"{MARK[report.status]:>9}")
            if report.status != "pass" and worst == "pass":
                worst = report.status
            if report.status != "pass":
                for label, value in report.residuals[:3]:
                    print(f"    {cid}: {label} = {value}")
        print(f"{cid:<{width}}  " + "  ".join(cells))
    elapsed = time.monotonic() - started

    total = len(ids) * len(catalogs)
    print("-" * len(header))
    print(f"{total} runs in {elapsed:.1f}s, overall: {MARK[worst]}")
    return 0 if worst == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
