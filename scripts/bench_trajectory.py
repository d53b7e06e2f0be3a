#!/usr/bin/env python3
"""Benchmark trajectory: the parent and change medians of ``codes_per_s``
for every workload summary in the ``BENCH_*.json`` files, and beside them
those of ``peak_rss_mb`` where the summary has them.

Each bench file records paired perfbench runs of one change against its
parent.  A workload entry with a ``summary`` gives the medians of each
metric in one of three shapes: ``parent_median`` and ``change_median``;
``parent_q1_median_q3`` and ``change_q1_median_q3``; or ``parent`` and
``change`` objects with a ``median``.  Files are listed by their number;
a file with no ``codes_per_s`` summary is named as skipped, and a summary
without ``peak_rss_mb`` leaves its two columns blank.  Medians of
different files do not compare with each other: each file's runs come
from one machine at one time, so only the ratios within a row mean
anything.

Example:
    python3 scripts/bench_trajectory.py
    python3 scripts/bench_trajectory.py --dir path/to/checkout
"""

import argparse
import json
import re
from pathlib import Path


def medians(stat: dict) -> tuple[float, float] | None:
    """(parent, change) medians of one summary metric, or None."""
    if "parent_median" in stat:
        return stat["parent_median"], stat["change_median"]
    if "parent_q1_median_q3" in stat:
        return stat["parent_q1_median_q3"][1], stat["change_q1_median_q3"][1]
    if isinstance(stat.get("parent"), dict):
        return stat["parent"]["median"], stat["change"]["median"]
    return None


def metric(summary: dict, name: str) -> tuple[float, float] | None:
    """(parent, change) medians of one metric of a summary, or None."""
    stat = summary.get(name)
    return medians(stat) if isinstance(stat, dict) else None


def rows(bench: dict) -> list[tuple[str, tuple[float, float], tuple[float, float] | None]]:
    """(workload, codes_per_s pair, peak_rss_mb pair or None) for each
    workload summary of a bench file that has codes_per_s."""
    out = []
    for name, entry in bench.items():
        if not isinstance(entry, dict) or not isinstance(entry.get("summary"), dict):
            continue
        rate = metric(entry["summary"], "codes_per_s")
        if rate is not None:
            out.append((name, rate, metric(entry["summary"], "peak_rss_mb")))
    return out


def main() -> None:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--dir", type=Path, default=Path(__file__).resolve().parent.parent,
                    help="directory holding the BENCH_*.json files (default: the checkout)")
    args = ap.parse_args()

    def number(path: Path) -> int:
        m = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
        return int(m.group(1)) if m else -1

    skipped = []
    print(f"{'file':<14} {'parent':<8} {'workload':<13} "
          f"{'parent /s':>11} {'change /s':>11} {'ratio':>7} "
          f"{'parent MB':>10} {'change MB':>10}")
    for path in sorted(args.dir.glob("BENCH_*.json"), key=lambda p: (number(p), p.name)):
        try:
            bench = json.loads(path.read_text())
        except (OSError, ValueError):
            bench = None
        found = rows(bench) if isinstance(bench, dict) else []
        if not found:
            skipped.append(path.name)
            continue
        commit = str(bench.get("parent_commit", ""))[:7]
        for name, (parent, change), rss in found:
            mb = f" {rss[0]:>10.2f} {rss[1]:>10.2f}" if rss else ""
            print(f"{path.name:<14} {commit:<8} {name:<13} {parent:>11.1f} {change:>11.1f} "
                  f"{change / parent:>7.2f}{mb}")
    print()
    print("skipped (no codes_per_s summary):", ", ".join(skipped) if skipped else "none")


if __name__ == "__main__":
    main()
