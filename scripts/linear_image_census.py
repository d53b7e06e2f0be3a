#!/usr/bin/env python3
"""Census of cyclic codes by type: how many exist, how many have linear
Gray images, and which types admit none.

Every valid canonical tuple is counted, with the criterion report that
``search_by_type`` gives it.  The criterion decides linearity from the
polynomials alone and no code is enumerated, so the Z2Z4_CAPACITY bound
does not apply.

Example:
    python3 scripts/linear_image_census.py --alphas 1 2 3 4 --betas 1 3 5 7
"""

import argparse
from collections import defaultdict

from z2z4.cycliccode import code_type
from z2z4.linimage import search_by_type


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--alphas", type=int, nargs="+", default=[1, 2, 3, 4])
    ap.add_argument("--betas", type=int, nargs="+", default=[1, 3, 5, 7])
    args = ap.parse_args()

    rows = defaultdict(lambda: [0, 0])  # type -> [total, linear]
    for alpha in args.alphas:
        for beta in args.betas:
            for gens, report in search_by_type(alpha, beta):
                ct = code_type(gens)
                key = (alpha, beta, ct.gamma, ct.delta, ct.kappa)
                rows[key][0] += 1
                if report.verdict:
                    rows[key][1] += 1

    print(f"{'type':>22}  {'codes':>6}  {'linear':>6}")
    blocked = []
    for key in sorted(rows):
        total, linear = rows[key]
        a, b, g, d, k = key
        print(f"({a},{b}; {g},{d}; {k})".rjust(22), f"{total:>6}  {linear:>6}")
        if linear == 0:
            blocked.append(key)
    print()
    if blocked:
        print("types with no linear Gray image:")
        for a, b, g, d, k in blocked:
            print(f"  ({a},{b}; {g},{d}; {k})")
    else:
        print("every listed type admits a code with a linear Gray image")


if __name__ == "__main__":
    main()
