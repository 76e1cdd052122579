#!/usr/bin/env python3
"""Run the constraint checks over a range of orders and exit nonzero on any FAIL.

Each order goes through `gdtau verify`, so the checks, their report lines and
the refusals of bad values are the command line front end's own.
"""

import argparse
import sys
import time
from pathlib import Path

try:
    from gdtau.cli import main as gdtau_main
except ImportError:  # running from a checkout without an install
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from gdtau.cli import main as gdtau_main


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

    failures = 0
    for r in orders:
        started = time.perf_counter()
        code = gdtau_main(["verify", "--r", str(r), "--weight", str(args.weight),
                           "--qextra", str(args.qextra)])
        elapsed = time.perf_counter() - started
        if code not in (0, 1):  # refused or failed to run: stop here
            return code
        status = "all passed" if code == 0 else "FAILURES"
        print(f"# r={r} weight={args.weight}: {status} in {elapsed:.2f}s")
        failures += code
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
