#!/usr/bin/env python
"""Check the last perfbench trajectory entries against the gate's bounds.

Each ``BENCH_<workload>.json`` at the repository root holds one entry
per change: the parent's and the change's medians of the end-to-end
metrics over alternating perfbench pairs and, where the entry was
recorded run by run, the parent's interquartile range.  For the last
entry of each file this prints, for every end-to-end metric that
``BENCHMARK.json`` declares, the parent and change medians, the
relative move ``(change - parent) / parent`` and the parent IQR.  A
move past the metric's ``bound`` in its worse direction (up for
``better: lower``, down for ``better: higher``) is flagged, and so is
an entry that records failed operations.

Exit status: 0 when nothing is flagged, 1 otherwise.

Usage: python tools/bench_diff.py [BENCH_x.json ...] [--benchmark PATH]

Without file arguments it reads every ``BENCH_*.json`` next to
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from typing import Dict, List, Optional, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: ``(metric, parent, change, move, parent_iqr, flag)``; absent values
#: are None, ``flag`` is the reason a row is flagged or "".
Row = Tuple[str, Optional[float], Optional[float], Optional[float],
            Optional[float], str]


def compare(
    entry: Dict[str, object], end_to_end: List[Dict[str, object]]
) -> List[Row]:
    """One row per end-to-end metric of *entry* (a trajectory entry)."""
    parent = entry.get("parent_median", {})
    change = entry.get("change_median", {})
    iqr = entry.get("parent_iqr", {})
    rows: List[Row] = []
    for metric in end_to_end:
        name = metric["name"]
        p, c = parent.get(name), change.get(name)
        move = None if p in (None, 0) or c is None else (c - p) / abs(p)
        worse = None
        if move is not None:
            worse = move if metric["better"] == "lower" else -move
        flag = ""
        if worse is not None and worse > metric["bound"]:
            flag = f"{worse:+.1%} worse, bound {metric['bound']:.0%}"
        rows.append((name, p, c, move, iqr.get(name), flag))
    return rows


def _fmt(value: Optional[float], spec: str) -> str:
    return "-" if value is None else format(value, spec)


def report(path: str, end_to_end: List[Dict[str, object]]) -> int:
    """Print the last entry of trajectory *path*; return its flag count."""
    with open(path) as fh:
        trajectory = json.load(fh)
    entries = trajectory.get("entries") or []
    name = trajectory.get("workload", os.path.basename(path))
    if not entries:
        print(f"{name}: no entries")
        return 0
    entry = entries[-1]
    print(
        f"{name}: {entry.get('change', '?')} "
        f"({entry.get('pairs', '?')} pairs, parent {entry.get('parent', '?')})"
    )
    print(
        f"  {'metric':<22} {'parent':>10} {'change':>10} {'move':>8}"
        f" {'parent IQR':>11}"
    )
    flags = 0
    for metric, p, c, move, iqr, flag in compare(entry, end_to_end):
        print(
            f"  {metric:<22} {_fmt(p, '10.4g')} {_fmt(c, '10.4g')}"
            f" {_fmt(move, '+8.1%')} {_fmt(iqr, '11.4g')}"
            + (f"  FLAG {flag}" if flag else "")
        )
        flags += bool(flag)
    failed = entry.get("failed")
    if failed:
        print(f"  FLAG {failed} failed operations")
        flags += 1
    return flags


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("paths", nargs="*", help="trajectory files")
    parser.add_argument(
        "--benchmark",
        default=os.path.join(REPO_ROOT, "BENCHMARK.json"),
        help="gate configuration with the end-to-end metrics and bounds",
    )
    args = parser.parse_args(argv)
    with open(args.benchmark) as fh:
        end_to_end = json.load(fh)["end_to_end"]
    paths = args.paths or sorted(
        glob.glob(os.path.join(os.path.dirname(args.benchmark), "BENCH_*.json"))
    )
    if not paths:
        print("no BENCH_*.json trajectories found", file=sys.stderr)
        return 1
    flags = sum(report(path, end_to_end) for path in paths)
    print(f"{flags} flagged" if flags else "OK: every move within its bound")
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
