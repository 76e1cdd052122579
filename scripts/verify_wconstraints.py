#!/usr/bin/env python3
"""Run the constraint checks over a range of orders and exit nonzero on any FAIL."""

import argparse
import sys
import time
from pathlib import Path

try:
    from gdtau.wconstraints import verify_constraints
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from gdtau.wconstraints import verify_constraints


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Constraint verification sweep for the tau series"
    )
    parser.add_argument("--orders", default="2,3,4",
                        help="comma separated hierarchy orders (default 2,3,4)")
    parser.add_argument("--weight", type=int, default=8,
                        help="weight cap for each sweep (default 8)")
    parser.add_argument("--qextra", type=int, default=2,
                        help="columns past the eigenvalue row (default 2)")
    args = parser.parse_args()

    try:
        orders = [int(x) for x in args.orders.split(",")]
    except ValueError:
        parser.error(f"bad --orders {args.orders!r}")
    if any(r < 2 for r in orders):
        parser.error("orders must be >= 2")
    if args.qextra > args.weight:
        parser.error("--qextra must be <= --weight: the columns past it have empty windows")

    failures = 0
    for r in orders:
        started = time.perf_counter()
        report = verify_constraints(r, args.weight, qextra=args.qextra)
        elapsed = time.perf_counter() - started
        print(report.text())
        status = "all passed" if report.ok else "FAILURES"
        print(f"# r={r} weight={args.weight}: {status} in {elapsed:.2f}s")
        if not report.ok:
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
