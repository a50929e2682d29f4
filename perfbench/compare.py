"""Compare two sets of benchmark results, parent against change.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the lines that ``run.py --save FILE`` appended, one per
run.  Prints one row per (metric, workload) with each side's median and
quartiles, the pair win count and a verdict:

* improved: the change wins at least nine tenths of the pairs (ties count
  for neither), at least ten pairs were run, and the medians differ by more
  than the parent's quartile spread;
* regressed: the change's median is worse than the parent's by more than
  the metric's bound from BENCHMARK.json (per-layer metrics have no bound:
  the mirror image of the improved rule);
* unresolved: not regressed, but the run-to-run spread on either side, as
  a share of its median, is wider than the bound, and not every change run
  beats every parent run;
* unchanged: none of the above.

Runs are paired by seed when both sides ran it, otherwise in file order.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path) -> dict:
    """{(workload, metric): [(seed, value), ...]} in file order."""
    out = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            for metric, entry in record["metrics"].items():
                out.setdefault((record["workload"], metric), []).append((record["seed"], entry["value"]))
    return out


def quartiles(values: list):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(parent: list, change: list) -> list:
    parent_by_seed = dict(parent)
    change_by_seed = dict(change)
    common = [seed for seed, _ in parent if seed in change_by_seed]
    if len(common) == len(parent_by_seed) == len(change_by_seed):
        return [(parent_by_seed[s], change_by_seed[s]) for s in common]
    return list(zip((v for _, v in parent), (v for _, v in change)))


def verdict(parent: list, change: list, better: str, bound) -> tuple:
    """(verdict, wins, pair count) for one metric on one workload."""
    sign = 1 if better == "higher" else -1
    p_vals = [v for _, v in parent]
    c_vals = [v for _, v in change]
    p1, pm, p3 = quartiles(p_vals)
    c1, cm, c3 = quartiles(c_vals)
    matched = pairs(parent, change)
    wins = sum(1 for p, c in matched if sign * (c - p) > 0)
    losses = sum(1 for p, c in matched if sign * (c - p) < 0)
    gain = sign * (cm - pm)  # positive when the change is better
    enough = len(matched) >= MIN_PAIRS
    if enough and wins >= WIN_SHARE * len(matched) and gain > p3 - p1:
        return "improved", wins, len(matched)
    if bound is None:
        if enough and losses >= WIN_SHARE * len(matched) and -gain > p3 - p1:
            return "regressed", wins, len(matched)
        return "unchanged", wins, len(matched)
    if _share(-gain, pm) > bound:
        return "regressed", wins, len(matched)
    spread = max(_share(p3 - p1, pm), _share(c3 - c1, cm))
    all_better = all(sign * (c - p) > 0 for c in c_vals for p in p_vals)
    if spread > bound and not all_better:
        return "unresolved", wins, len(matched)
    return "unchanged", wins, len(matched)


def _share(part: float, base: float) -> float:
    if base == 0:
        return 0.0 if part == 0 else float("inf")
    return part / abs(base)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="parent-vs-change comparison of benchmark results")
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    with open(BENCHMARK, encoding="utf-8") as handle:
        spec = json.load(handle)
    metrics = [(m, m.get("bound")) for m in spec["end_to_end"]] + [(m, None) for m in spec["per_layer"]]
    parent, change = load(args.parent), load(args.change)
    header = f"{'metric':40} {'workload':8} {'parent median [q1, q3]':34} {'change median [q1, q3]':34} wins    verdict"
    print(header)
    counts = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric, bound in metrics:
            key = (workload, metric["name"])
            if key not in parent or key not in change:
                continue
            result, wins, n = verdict(parent[key], change[key], metric["better"], bound)
            counts[result] = counts.get(result, 0) + 1
            p1, pm, p3 = quartiles([v for _, v in parent[key]])
            c1, cm, c3 = quartiles([v for _, v in change[key]])
            print(
                f"{metric['name']:40} {workload:8} "
                f"{pm:.6g} [{p1:.6g}, {p3:.6g}]".ljust(84)
                + f" {cm:.6g} [{c1:.6g}, {c3:.6g}]".ljust(35)
                + f" {wins:>2}/{n:<4} {result}"
            )
    print("summary " + " ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
