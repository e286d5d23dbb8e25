#!/usr/bin/env python3
"""Self-test of the benchmark at tiny scale.

    python3 relbench/selftest.py

Checks, for every workload of BENCHMARK.json:
  * the same seed generates byte-identical inputs (flat spec, entity-0
    spec, snapshot artifact, reference report);
  * a run prints a stamp line and then a last line with exactly the keys
    correct/attempted/failed/metrics, passes its output checks, and
    reports exactly the end-to-end (--trace 0) or per-layer (--trace 1)
    metrics BENCHMARK.json names, with the units it names;
and that BENCHMARK.json keeps the limits run.py relies on. Runs take
about two minutes in all; exit code 0 when everything holds.
"""

import filecmp
import importlib.util
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY_ENTITIES = 30
SEED = 3

spec = importlib.util.spec_from_file_location("relbench_run",
                                              os.path.join(HERE, "run.py"))
run = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run)

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def check_benchmark_json(bench):
    check(set(bench) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    check(len(names) == len(set(names)), "every name is used once")
    check(all(m["bound"] <= 0.25 for m in bench["end_to_end"]),
          "every bound is at most 0.25")
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    check(len(setup) == 1 and setup[0]["unit"] == "s" and
          setup[0]["better"] == "lower" and
          setup[0]["bound"] == max(m["bound"] for m in bench["end_to_end"]),
          "setup_s is present, in s, lower-is-better, with the largest bound")
    check(all(w["name"] in run.WORKLOADS for w in bench["workloads"]),
          "every workload is defined in run.py")


def check_inputs_repeat(relacc, workload):
    tiny = dict(run.WORKLOADS[workload], entities=TINY_ENTITIES, tuples=None)
    dirs = []
    for copy in ("a", "b"):
        work = os.path.join(ROOT, ".bench_build", "selftest", workload, copy)
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        run.generate(relacc, tiny, SEED, work)
        dirs.append(work)
    files = sorted(os.listdir(dirs[0]))
    same = files == sorted(os.listdir(dirs[1])) and all(
        filecmp.cmp(os.path.join(dirs[0], f), os.path.join(dirs[1], f),
                    shallow=False) for f in files)
    check(same and len(files) == 4,
          "%s: seed %d gives byte-identical inputs (%s)" % (
              workload, SEED, ", ".join(files)))
    shutil.rmtree(os.path.dirname(dirs[0]), ignore_errors=True)


def check_run(bench, workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
         "--entities", str(TINY_ENTITIES)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    label = "%s --trace %d" % (workload, trace)
    if len(lines) < 2:
        check(False, label + ": prints a stamp and a result line")
        return
    stamp = json.loads(lines[-2]).get("stamp", {})
    check(all(k in stamp for k in ("nproc", "build_type", "compiler", "commit",
                                   "seed", "inputs")),
          label + ": stamp carries nproc, build, compiler, commit, seed, inputs")
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          label + ": result line has exactly the keys correct/attempted/failed/metrics")
    check(proc.returncode == 0 and result["correct"] and result["failed"] == 0
          and result["attempted"] >= 1, label + ": output checks pass")
    wanted = {m["name"]: m["unit"] for m in
              bench["per_layer" if trace else "end_to_end"]}
    got = {n: m["unit"] for n, m in result["metrics"].items()}
    check(got == wanted, label + ": metric names and units match BENCHMARK.json")
    check(all(isinstance(m["value"], (int, float))
              for m in result["metrics"].values()),
          label + ": every value is a number")
    if not trace:
        # setup_s is the daemon's start on serve workloads, else the
        # pipeline's spec load + Create, whichever phase ran last.
        with open(os.path.join(ROOT, ".bench_build", "results",
                               "%s-s%d-t0.json" % (workload, SEED))) as f:
            notes = json.load(f)["notes"]
        source = ("daemon_start_ms" if run.WORKLOADS[workload]["serve_setup"]
                  else "pipeline_setup_s")
        scale = 1000.0 if source == "daemon_start_ms" else 1.0
        check(abs(result["metrics"]["setup_s"]["value"] * scale -
                  notes[source]["median"]) < 1e-9,
              label + ": setup_s is the median of " + source)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    check_benchmark_json(bench)
    relacc, _ = run.build(os.path.join(ROOT, ".bench_build"))
    for workload in [w["name"] for w in bench["workloads"]]:
        check_inputs_repeat(relacc, workload)
        for trace in (0, 1):
            check_run(bench, workload, trace)
    print("%d check(s) failed" % len(failures) if failures else "all checks passed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
