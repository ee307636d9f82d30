#!/usr/bin/env python3
"""Runs one workload over several seeds and prints each metric's spread.

    python3 perfbench/spread.py --workload svc-tcp --seeds 1-10 --seconds 15

For every metric of the runs' detail lines it prints the median and the
distance between the first and third quartile (statistics.quantiles,
n=4) as a share of the median -- the figure the benchmark's bounds are
judged against.  With --trace 1 it reports the per-layer metrics.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            return 1
        detail, result = json.loads(lines[-2]), json.loads(lines[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", file=sys.stderr)
        for name, metric in detail["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]

    print(f"{'metric':36} {'unit':8} {'median':>14} {'iqr/median':>10}")
    for name, series in values.items():
        median = statistics.median(series)
        spread = float("nan")
        if len(series) >= 2 and median != 0:
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / abs(median)
        print(f"{name:36} {units[name]:8} {median:14.6g} {spread:10.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
