#!/usr/bin/env python3
"""Run the full cross-validation checklist once and print its wall time.

Equivalent to `z2z4 reproduce` with the elapsed time on the last line.

Example:
    python3 scripts/run_full_checks.py --jobs 2
"""

import argparse
import time

from z2z4.reproduce import run_checks


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--jobs", type=int, default=1)
    args = ap.parse_args()

    t0 = time.time()
    checks = run_checks(jobs=args.jobs)
    elapsed = time.time() - t0
    width = max(len(c.name) for c in checks)
    for c in checks:
        print(f"[{'ok' if c.passed else 'FAIL'}] {c.name.ljust(width)}  {c.details}")
    print(f"checklist: {elapsed:.1f}s")
    raise SystemExit(0 if all(c.passed for c in checks) else 1)


if __name__ == "__main__":
    main()
