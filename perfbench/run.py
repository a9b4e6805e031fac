#!/usr/bin/env python3
"""Builds bench_e2e from source and runs one workload of the benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is a workload of BENCHMARK.json, or "all" to run each in turn. The
build goes to .bench_build/ at the root of the checkout (configured once,
then brought up to date on every run); reports go to
.bench_build/results/NAME-seedN-traceT.json and, traced, the spans to
NAME-seedN-spans.json beside them. The last line of stdout is the
workload's one-line JSON summary. Its metrics must be exactly the
end_to_end metrics of BENCHMARK.json (untraced) or its per_layer metrics
(traced), with the same units. Exits non-zero when the sources are
missing, the build fails, a check fails, or the metrics do not match.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: no fedscope sources under %s" %
                 os.path.join(ROOT, "src"))
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(len(os.sched_getaffinity(0)))
    steps.append(["cmake", "--build", BUILD, "--target", "bench_e2e",
                  "-j", jobs])
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log,
                              stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                sys.exit("run.py: build failed (%s)" % log_path)
    return os.path.join(BUILD, "bench_e2e")


def run(binary, workload, seed, seconds, trace, expected):
    results = os.path.join(BUILD, "results")
    stem = "%s-seed%d" % (workload, seed)
    cmd = [binary, "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%d" % seconds,
           "--out=" + os.path.join(results, "%s-trace%d.json" % (stem, trace)),
           "--tmp=" + os.path.join(BUILD, "tmp")]
    if trace:
        cmd.append("--trace=" + os.path.join(results, stem + "-spans.json"))
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    lines = proc.stdout.splitlines()
    try:
        metrics = json.loads(lines[-1])["metrics"]
        reported = {name: m["unit"] for name, m in metrics.items()}
    except (IndexError, ValueError, KeyError, TypeError):
        reported = None
    if reported != expected:
        sys.stderr.write("run.py: %s reported metrics %r, BENCHMARK.json "
                         "names %r\n" % (workload, reported, expected))
        return proc.returncode or 1
    return proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {m["name"]: m["unit"]
                for m in bench["per_layer" if args.trace else "end_to_end"]}
    workloads = [args.workload]
    if args.workload == "all":
        workloads = [w["name"] for w in bench["workloads"]]
    status = 0
    for workload in workloads:
        sys.stdout.flush()
        status = run(binary, workload, args.seed, args.seconds, args.trace,
                     expected) or status
    return status


if __name__ == "__main__":
    sys.exit(main())
