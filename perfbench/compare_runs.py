#!/usr/bin/env python3
"""Compares two sets of bench_e2e runs against the benchmark's bounds.

    python3 perfbench/compare_runs.py BENCHMARK.json DIR_A DIR_B

DIR_A holds the reference runs (the parent commit, or a first set) and
DIR_B the runs to judge; each holds the report files bench_e2e writes
with --out (run.py puts them in .bench_build/results/). For every
workload and end-to-end metric it prints each set's median and
interquartile range (IQR), the change of B against A as a share of A's
median, the metric's bound, and a verdict:

  worse       B's median is worse than A's by more than the bound;
  unresolved  A's own IQR is wider than the bound, and not every run of
              B beats every run of A;
  better      every run of B beats every run of A although A's IQR is
              wider than the bound; or, over at least ten run pairs
              (runs paired by seed), B is better by more than A's own
              spread and wins at least nine tenths of the pairs;
  same        otherwise.

Traced reports of the same workload and seed must carry identical
counts; each mismatch is printed. Untraced reports of the same workload
and seed are also compared on what the simulation alone decides (courses
attempted, virtual_h_to_target, final_accuracy): same code gives
identical values, a change to the arithmetic may not. Those differences
are printed, not judged. Exits 1 on any "worse" verdict or count
mismatch, 0 otherwise.
"""

import glob
import json
import os
import statistics
import sys

COUNT_UNITS = ("count", "bytes")
# Untraced metrics that depend on the seed and the arithmetic only.
SIMULATED = ("virtual_h_to_target", "final_accuracy")
# Pairs a gain needs before it can be called "better".
MIN_PAIRS = 10


def load(directory):
    """Reports of a directory, by (workload, traced): {seed: report}."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            try:
                report = json.load(f)
            except json.JSONDecodeError:
                continue
        if not isinstance(report, dict) or report.get("schema") != 1:
            continue
        key = (report["workload"], report["traced"])
        runs.setdefault(key, {})[report["seed"]] = report
    return runs


def spread(values):
    """(median, IQR) of values; IQR is 0 for fewer than two values."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, 0.0
    q = statistics.quantiles(values, n=4)
    return median, q[2] - q[0]


def verdict(metric, a, b):
    """Verdict and signed change (positive = worse) of B against A; `a`
    and `b` map seed -> value."""
    lower = metric["better"] == "lower"
    a_median, a_iqr = spread(list(a.values()))
    b_median, _ = spread(list(b.values()))
    worse = (b_median - a_median) / a_median
    if not lower:
        worse = -worse

    def better(x, y):
        return x < y if lower else x > y

    if a_iqr / a_median > metric["bound"]:
        if all(better(x, y) for x in b.values() for y in a.values()):
            return "better", worse
        return "unresolved", worse
    if worse > metric["bound"]:
        return "worse", worse
    seeds = set(a) & set(b)
    wins = sum(better(b[s], a[s]) for s in seeds)
    if (len(seeds) >= MIN_PAIRS and -worse > a_iqr / a_median and
            wins >= 0.9 * len(seeds)):
        return "better", worse
    return "same", worse


def main(argv):
    if len(argv) != 4:
        sys.stderr.write(__doc__)
        return 2
    with open(argv[1]) as f:
        bench = json.load(f)
    set_a, set_b = load(argv[2]), load(argv[3])
    status = 0

    print("%-15s %-15s %24s %24s %8s %6s  %s" %
          ("workload", "metric", "A median [IQR]", "B median [IQR]",
           "change", "bound", "verdict"))
    for workload in (w["name"] for w in bench["workloads"]):
        a_runs = set_a.get((workload, False), {})
        b_runs = set_b.get((workload, False), {})
        if not a_runs or not b_runs:
            print("%-15s no untraced runs in %s" %
                  (workload, argv[2] if not a_runs else argv[3]))
            continue
        for metric in bench["end_to_end"]:
            name = metric["name"]
            a = {s: r["metrics"][name]["value"] for s, r in a_runs.items()}
            b = {s: r["metrics"][name]["value"] for s, r in b_runs.items()}
            result, worse = verdict(metric, a, b)
            if result == "worse":
                status = 1
            print("%-15s %-15s %13.6g [%8.3g] %13.6g [%8.3g] %+7.2f%% %5.1f%%"
                  "  %s (n=%d/%d)" %
                  ((workload, name) + spread(list(a.values())) +
                   spread(list(b.values())) +
                   (100 * worse, 100 * metric["bound"], result, len(a),
                    len(b))))
        seeds = sorted(set(a_runs) & set(b_runs))
        differ = [s for s in seeds
                  if a_runs[s]["attempted"] != b_runs[s]["attempted"] or
                  any(a_runs[s]["metrics"][name]["value"] !=
                      b_runs[s]["metrics"][name]["value"]
                      for name in SIMULATED)]
        print("%-15s simulated outcomes identical on %d of %d seeds%s" %
              (workload, len(seeds) - len(differ), len(seeds),
               "" if not differ else " (differ: %s)" %
               ", ".join(map(str, differ))))

    compared = 0
    for (workload, traced), a_runs in sorted(set_a.items()):
        b_runs = set_b.get((workload, traced), {})
        if not traced:
            continue
        for seed in sorted(set(a_runs) & set(b_runs)):
            b_metrics = b_runs[seed]["metrics"]
            for name, a_metric in a_runs[seed]["metrics"].items():
                if a_metric["unit"] not in COUNT_UNITS:
                    continue
                compared += 1
                b_value = b_metrics.get(name, {}).get("value")
                if b_value != a_metric["value"]:
                    status = 1
                    print("count mismatch: %s seed %d %s: %r vs %r" %
                          (workload, seed, name, a_metric["value"], b_value))
    print("traced counts compared: %d" % compared)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
