#!/usr/bin/env python3
"""Compare saved benchmark results of two commits, metric by metric.

Usage:

    python3 perfbench/compare.py --base base1.txt base2.txt ... --new new1.txt ...

Each file holds the stdout of one ``perfbench/run.py`` run: the metadata line
and the result line.  For every metric the script prints each side's median
and quartiles and the change of the median as a share of the base median.
It refuses (exit 2) to compare results whose counting kernel
(``valleyforge._kernels.KERNEL``), workload, trace mode or size differ, since
those numbers measure different programs or different work.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

SAME = ("kernel", "workload", "trace", "smoke")


def load(path: str) -> tuple[dict, dict]:
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines() if line.startswith("{")]
    return json.loads(lines[-2])["meta"], json.loads(lines[-1])


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args()

    sides = {side: [load(p) for p in getattr(args, side)] for side in ("base", "new")}
    every = sides["base"] + sides["new"]
    for key in SAME:
        seen = {json.dumps(meta.get(key)) for meta, _ in every}
        if len(seen) > 1:
            print(f"refusing to compare: {key} differs ({', '.join(sorted(seen))})",
                  file=sys.stderr)
            return 2
    for side, results in sides.items():
        bad = sum(not r["correct"] for _, r in results)
        if bad:
            print(f"warning: {bad} {side} result(s) failed their checks", file=sys.stderr)

    def cell(q):
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]".ljust(34)

    print(f"{'metric':44} {'base median [q1, q3]':34} {'new median [q1, q3]':34} change")
    for name, first in sides["base"][0][1]["metrics"].items():
        base = _quartiles([r["metrics"][name]["value"] for _, r in sides["base"]])
        new = _quartiles([r["metrics"][name]["value"] for _, r in sides["new"]])
        change = f"{(new[1] - base[1]) / base[1]:+.1%}" if base[1] else "n/a"
        print(f"{name:44} {cell(base)} {cell(new)} {change} ({first['unit']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
