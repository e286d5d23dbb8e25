#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 relbench/spread.py --workload serve-mixed --seeds 1-10 [--sets 2]

Runs relbench/run.py once per seed (untraced) and prints, for every
end-to-end metric, the median and quartiles across the runs and the
spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, next to
the metric's bound in BENCHMARK.json. setup_s is exempt from the spread
limit; it is compared by median only.

With --sets N it makes N sets of the same runs, interleaved seed by seed
(set 1, set 2, ... for each seed, so slow drift of the machine reaches
every set alike), prints each set, and checks that no later set's median
is worse than the first set's by more than the metric's bound.

Exits 1 when any run fails its output checks, any spread other than
setup_s's exceeds its bound, or two sets disagree by more than a bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]

    sets = [{} for _ in range(args.sets)]
    ok = True
    for seed in seeds_of(args.seeds):
        for k, values in enumerate(sets):
            started = time.time()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 args.workload, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", "0"], cwd=ROOT, stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {"correct": False}
            label = "set %d seed %d" % (k + 1, seed)
            if proc.returncode != 0 or not result.get("correct"):
                ok = False
                print("%s: run failed (exit %d)" % (label, proc.returncode))
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print("%s (%.0f s): %s" % (label, time.time() - started, " ".join(
                "%s=%.4g" % (n, m["value"])
                for n, m in result["metrics"].items())))
            sys.stdout.flush()

    medians = []
    for k, values in enumerate(sets):
        print("set %d" % (k + 1))
        print("%-22s %12s %12s %12s %8s %6s" % ("metric", "q1", "median", "q3",
                                                "spread", "bound"))
        medians.append({})
        for metric in bench["end_to_end"]:
            name = metric["name"]
            vals = values.get(name, [])
            if len(vals) < 2:
                continue
            q1, median, q3 = statistics.quantiles(vals, n=4)
            medians[k][name] = median
            spread = (q3 - q1) / median if median else float("inf")
            flag = ""
            if name != "setup_s" and spread > metric["bound"]:
                flag = "  OVER BOUND"
                ok = False
            elif name != "setup_s" and spread > metric["bound"] / 3:
                flag = "  over bound/3"
            print("%-22s %12.5g %12.5g %12.5g %8.4f %6.3f%s" % (
                name, q1, median, q3, spread, metric["bound"], flag))
    for k in range(1, len(sets)):
        print("set %d against set 1 (share worse; bound)" % (k + 1))
        for metric in bench["end_to_end"]:
            name = metric["name"]
            first, later = medians[0].get(name), medians[k].get(name)
            if not first or later is None:
                continue
            worse = (later - first if metric["better"] == "lower"
                     else first - later) / first
            flag = ""
            if worse > metric["bound"]:
                flag = "  OVER BOUND"
                ok = False
            print("%-22s %8.4f %6.3f%s" % (name, worse, metric["bound"], flag))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
