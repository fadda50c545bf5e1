#!/usr/bin/env python3
"""Compare two checkouts with the OWL benchmark in alternating pairs.

  python3 owlbench/compare.py --base ../parent --head . \\
      --workload pi-flagship --pairs 10 --seconds 55 [--trace 0|1]

Pair i runs both checkouts with seed i; the base goes first in even
pairs and the head in odd ones, so a slow period of the host falls on
both sides. For every metric it prints each side's median and
quartiles and the share of pairs the head won (ties count for
neither), using the direction BENCHMARK.json gives the metric.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run(checkout, workload, seed, seconds, trace):
    cmd = [sys.executable, "owlbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if p.returncode != 0:
        sys.exit(f"{checkout}: run failed ({p.returncode})\n{p.stderr[-2000:]}")
    return json.loads(p.stdout.strip().splitlines()[-1])["metrics"]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True)
    ap.add_argument("--head", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=55)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = json.loads((Path(args.head) / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    base, head = {}, {}
    for i in range(args.pairs):
        seed = i + 1
        order = [(args.base, base), (args.head, head)]
        if i % 2:
            order.reverse()
        for checkout, sink in order:
            for name, m in run(checkout, args.workload, seed, args.seconds,
                               args.trace).items():
                sink.setdefault(name, []).append(m["value"])
        print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)

    print(f"{'metric':32s} {'base median [q1, q3]':>34s} "
          f"{'head median [q1, q3]':>34s}  head wins")
    for name in base:
        b, h = base[name], head.get(name, [])
        wins = sum((y < x) if better.get(name) == "lower" else (y > x)
                   for x, y in zip(b, h))
        bq, hq = quartiles(b), quartiles(h)
        print(f"{name:32s} {statistics.median(b):12.6g} "
              f"[{bq[0]:.6g}, {bq[1]:.6g}] {statistics.median(h):12.6g} "
              f"[{hq[0]:.6g}, {hq[1]:.6g}]  {wins}/{len(h)}")


if __name__ == "__main__":
    main()
