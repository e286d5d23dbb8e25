#!/usr/bin/env python3
"""Benchmark entry point for relacc.

    python3 relbench/run.py --workload pipeline-heuristic --seed 7 \\
        --seconds 6 --trace 0

Run from the root of a relacc source tree. The script builds the CLI and
the harness (relbench/CMakeLists.txt) into .bench_build, generates the
workload's inputs from --seed with `relacc gen`, builds the snapshot and
the reference report with the CLI, runs the harness, and prints one JSON
line as the last line of standard output:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
the per-layer ones. The line before it is the result stamp (core count,
build, compiler, commit, seed, input sizes). The exit code is 0 only
when every output check passed. README.md describes the workloads.
"""

import argparse
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Every workload: the generator profile and size that feed it, the
# completion policy, the number of in-process pipeline passes, the serve
# phase's base rate (deduce requests per second; 0 skips the serve
# phase) and whether setup_s times the daemon's start (else the
# pipeline's spec load + Create).
#
# The base-rate step lasts --seconds, and at least 1100 requests so that
# deduce_p99_ms has ten samples beyond it. The deployment and the ladder
# that climbs from the base rate are constants of the harness
# (harness/serve_phase.cc).
WORKLOADS = {
    "pipeline-heuristic": dict(
        profile="cfp", entities=800, tuples=3600, completion="heuristic",
        passes=3, base_rate=150, serve_setup=False),
    "serve-mixed": dict(
        profile="med", entities=400, tuples=1400, completion="heuristic",
        passes=9, base_rate=300, serve_setup=True),
    # Not in BENCHMARK.json (see README.md, "Known defects"): one pass
    # takes 50-60 s at 4 threads and its time is set by one or two
    # budget-exhausting top-k searches, so it is run by hand, without
    # the serve phase.
    "pipeline-best": dict(
        profile="med", entities=400, completion="best",
        passes=1, base_rate=0, serve_setup=False),
}
THREADS = 4  # pipeline budget, as `relacc pipeline --threads 4`


def fail(message):
    print("relbench: " + message, file=sys.stderr)
    sys.exit(1)


def run(cmd, **kwargs):
    """Runs a command to completion; its output goes to stderr."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=kwargs.pop("stdout", sys.stderr),
                          stderr=sys.stderr, **kwargs)
    if proc.returncode != 0:
        fail("command failed (%d): %s" % (proc.returncode, " ".join(cmd)))
    return proc


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no relacc source tree at " + ROOT)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run(["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    run(["cmake", "--build", build_dir, "-j", jobs, "--target", "relacc",
         "relbench_harness"])
    return (os.path.join(build_dir, "relacc", "relacc"),
            os.path.join(build_dir, "relbench_harness"))


def generate(relacc, spec, seed, work):
    """Writes the workload's inputs under `work`; all derive from seed.

    The flat relation is held near the workload's tuple count: entity
    resolution is quadratic in it, and the generator's tuples-per-entity
    draw alone moves a pass's cost by a quarter from seed to seed. The
    entity counts N, N-d, N+d, N-2d, ... (d = N/80) are tried in that
    order and the first whose tuple count is within 1% of the target is
    taken, else the closest of nine; each try is a pure function of the
    seed and the count.
    """
    flat = os.path.join(work, "flat.json")
    entity0 = os.path.join(work, "entity0.json")
    snapshot = os.path.join(work, "replica.snap")
    reference = os.path.join(work, "reference.json")
    target = spec.get("tuples")
    step = max(1, spec["entities"] // 80)
    counts = [spec["entities"]]
    if target is not None:
        for k in range(1, 5):
            counts += [spec["entities"] - k * step, spec["entities"] + k * step]

    def gen_flat(entities):
        wrote = run([relacc, "gen", "--profile", spec["profile"], "--flat",
                     "--entities", str(entities), "--seed", str(seed),
                     "--out", flat], stdout=subprocess.PIPE, text=True).stdout
        return int(re.search(r"(\d+) tuples", wrote).group(1))

    best = None
    for entities in counts:
        tuples = gen_flat(entities)
        miss = abs(tuples - target) if target else 0
        if best is None or miss < best[0]:
            best = (miss, entities)
        if target is None or miss <= target * 0.01:
            break
    if best[1] != entities:  # flat.json holds the last count tried
        entities = best[1]
        gen_flat(entities)
    run([relacc, "gen", "--profile", spec["profile"], "--entities",
         str(entities), "--seed", str(seed), "--entity", "0", "--out",
         entity0])
    run([relacc, "snapshot", "build", entity0, "--out", snapshot])
    with open(reference, "wb") as out:
        run([relacc, "pipeline", flat, "--key", "key", "--threads",
             str(THREADS), "--completion", spec["completion"],
             "--json"],
            stdout=out)
    return flat, snapshot, reference


def cpu_ticks():
    """(steal, total) jiffies of all CPUs so far, from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = [int(v) for v in f.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def compiler_of(build_dir):
    cache = os.path.join(build_dir, "CMakeCache.txt")
    compiler = "unknown"
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_CXX_COMPILER:"):
                compiler = line.split("=", 1)[1].strip()
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    return version


def git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if proc.returncode == 0:
            return proc.stdout.strip()
    except OSError:
        pass
    return "unknown (not a git checkout)"


def harness_args(spec, seconds):
    """The harness flags of one workload for a run of `seconds`."""
    base = max(seconds, 1100.0 / spec["base_rate"]) if spec["base_rate"] else 0
    return ["--completion", spec["completion"],
            "--threads", str(THREADS),
            "--passes", str(spec["passes"]),
            "--base-rate", str(spec["base_rate"]),
            "--base-seconds", "%.3f" % base,
            "--serve-setup", "1" if spec["serve_setup"] else "0"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--entities", type=int, default=None,
                        help="override the workload's entity count "
                             "(self-test only; figures are not comparable)")
    args = parser.parse_args()
    spec = dict(WORKLOADS[args.workload])
    if args.entities is not None:
        spec["entities"] = args.entities
        spec["tuples"] = None

    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(bench_path):
        fail("BENCHMARK.json not found at " + ROOT)
    with open(bench_path) as f:
        bench = json.load(f)
    listed = args.workload in [w["name"] for w in bench["workloads"]]
    wanted = [m["name"] for m in
              bench["per_layer" if args.trace else "end_to_end"]]

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    relacc, harness = build(build_dir)

    work = os.path.join(build_dir, "work", "%s-s%d-t%d-p%d" % (
        args.workload, args.seed, args.trace, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        flat, snapshot, reference = generate(relacc, spec, args.seed, work)
        cmd = [harness, "--flat", flat, "--snapshot", snapshot,
               "--reference", reference, "--relacc", relacc,
               "--work-dir", work, "--seed", str(args.seed),
               "--trace", str(args.trace),
               "--trace-out", os.path.join(work, "spans.jsonl")]
        cmd += harness_args(spec, args.seconds)
        started = time.time()
        ticks_before = cpu_ticks()
        # Own process group: if this script is stopped, the harness and
        # the relacc serve daemon it spawned are stopped with it.
        harness_proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                        stderr=sys.stderr, text=True,
                                        start_new_session=True)
        try:
            out, _ = harness_proc.communicate()
        finally:
            if harness_proc.poll() is None:
                os.killpg(harness_proc.pid, signal.SIGKILL)
                harness_proc.wait()
        ticks_after = cpu_ticks()
        lines = out.strip().splitlines()
        if not lines:
            fail("harness printed nothing (exit %d)" % harness_proc.returncode)
        result = json.loads(lines[-1])
        if args.trace:
            spans = os.path.join(build_dir, "results", "spans-%s-s%d.jsonl" % (
                args.workload, args.seed))
            os.makedirs(os.path.dirname(spans), exist_ok=True)
            if os.path.isfile(os.path.join(work, "spans.jsonl")):
                shutil.copyfile(os.path.join(work, "spans.jsonl"), spans)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    notes = result["notes"]
    stamp = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "threads": THREADS,
        "serve": notes.get("serve"),
        "build_type": "Release", "compiler": compiler_of(build_dir),
        "commit": git_commit(),
        "inputs": notes.get("inputs", {}),
        "harness_seconds": round(time.time() - started, 3),
        # Share of all CPU time the hypervisor gave to other guests while
        # the harness ran: the machine's noise, for reading the figures.
        "steal_frac": round((ticks_after[0] - ticks_before[0]) /
                            max(1, ticks_after[1] - ticks_before[1]), 4),
    }
    # ok_frac is 1 - failed_frac: the share of checked operations
    # (pipeline passes, deduce requests, batch passes, output checks)
    # that succeeded with the expected output.
    measured = dict(result["metrics"])
    attempted = max(1, result["attempted"])
    measured["ok_frac"] = {"value": (attempted - result["failed"]) / attempted,
                           "unit": "ratio"}
    names = wanted if listed else sorted(measured)
    missing = [n for n in names if n not in measured]
    errors = result["errors"] + ["metric %s was not measured" % n
                                 for n in missing]
    metrics = {n: measured[n] for n in names if n in measured}
    failed = result["failed"] + len(missing)
    correct = harness_proc.returncode == 0 and failed == 0

    os.makedirs(os.path.join(build_dir, "results"), exist_ok=True)
    with open(os.path.join(build_dir, "results", "%s-s%d-t%d.json" % (
            args.workload, args.seed, args.trace)), "w") as f:
        json.dump({"stamp": stamp, "errors": errors, "notes": notes,
                   "metrics": metrics}, f, indent=2)
    for e in errors:
        print("relbench: check failed: " + e, file=sys.stderr)
    print(json.dumps({"stamp": stamp}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    # SIGTERM unwinds like Ctrl-C, so the cleanup above still runs.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    main()
