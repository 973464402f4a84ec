#!/usr/bin/env python3
"""Compares two e2ebench result sets per (workload, metric).

    python3 e2ebench/bench_diff.py parent.jsonl change.jsonl

Each file holds the JSON lines `run.py --record FILE` appends, ideally ten
runs per workload on each side, made alternately. Runs pair up by order
within a workload. For every metric the verdict follows the rule the
benchmark is judged by:

  better / worse  the change wins (loses) at least 9/10 of all pairs, ties
                  counting for neither, and the medians differ by more than
                  the parent's interquartile range;
  regressed       the change's median is worse than the parent's by more
                  than the metric's bound in BENCHMARK.json;
  unresolved      the parent's spread (IQR / median) exceeds the bound, and
                  not every change run beats every parent run;
  same            none of the above.

Per-layer metrics have no bound, so they get only better / worse / same.
Exits 1 when any end-to-end metric is worse or regressed. Stdlib only.
"""
import argparse
import collections
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path):
    runs = collections.defaultdict(lambda: collections.defaultdict(list))
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            record = json.loads(line)
            for name, m in record["result"]["metrics"].items():
                runs[record["workload"]][name].append(m["value"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(base, change, higher_better, bound):
    """Returns (verdict, win rate) for one (workload, metric) pair."""
    def beats(x, y):
        return x > y if higher_better else x < y

    pairs = list(zip(base, change))
    wins = sum(beats(c, b) for b, c in pairs)
    losses = sum(beats(b, c) for b, c in pairs)
    mb, mc = statistics.median(base), statistics.median(change)
    q1, q3 = quartiles(base)
    iqr = q3 - q1
    win_rate = wins / len(pairs)
    if wins >= 0.9 * len(pairs) and abs(mc - mb) > iqr and beats(mc, mb):
        return "better", win_rate
    if losses >= 0.9 * len(pairs) and abs(mc - mb) > iqr and beats(mb, mc):
        return "worse", win_rate
    if bound is None:
        return "same", win_rate
    worse_by = (mb - mc if higher_better else mc - mb) / abs(mb) if mb else 0
    if worse_by > bound:
        return "regressed", win_rate
    spread = iqr / abs(mb) if mb else 0.0
    if spread > bound and not all(beats(c, b) for c in change for b in base):
        return "unresolved", win_rate
    return "same", win_rate


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--spec", default=os.path.join(os.path.dirname(HERE),
                                                       "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.spec) as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, change = load(args.parent), load(args.change)

    bad = False
    print(f"{'workload':18s} {'metric':26s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'wins':>5s}  verdict")
    for workload in sorted(set(base) & set(change)):
        for name in sorted(set(base[workload]) & set(change[workload])):
            m = metrics.get(name)
            if m is None:
                continue
            b, c = base[workload][name], change[workload][name]
            result, win_rate = verdict(b, c, m["better"] == "higher",
                                       m.get("bound"))
            bad = bad or ("bound" in m and result in ("worse", "regressed"))
            bq, cq = quartiles(b), quartiles(c)
            print(f"{workload:18s} {name:26s} "
                  f"{statistics.median(b):12.5g} [{bq[0]:9.4g}, {bq[1]:9.4g}]"
                  f" {statistics.median(c):12.5g} [{cq[0]:9.4g}, "
                  f"{cq[1]:9.4g}] {win_rate:5.2f}  {result} "
                  f"(n={len(b)}/{len(c)})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
