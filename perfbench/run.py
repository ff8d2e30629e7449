#!/usr/bin/env python3
"""Run one benchmark workload from the root of a checkout.

    python3 perfbench/run.py --workload design --seed 1 --seconds 20 --trace 0

Builds perfbench/bench.exe and bin/dstool.exe from source with dune,
runs the benchmark, and passes its output through. The benchmark's last
line names each metric the workload measured with its value; this script
completes it against BENCHMARK.json: every metric declared for this kind
of run, in declared order, with its unit, and per-layer metrics the
workload does not exercise as 0. Exits nonzero without printing a result
when the checkout cannot be built, an end-to-end metric is missing, or a
metric is not declared. See perfbench/README.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

BENCH = os.path.join("_build", "default", "perfbench", "bench.exe")
DSTOOL = os.path.join("_build", "default", "bin", "dstool.exe")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a checkout (no dune-project or lib/ here)")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)

    # The build stays inside the checkout: _build/, no shared dune cache.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./" + BENCH, "./" + DSTOOL],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        fail("build failed")

    nproc = len(os.sched_getaffinity(0))
    # Its own process group, so a run that overstays can be stopped
    # together with the dstool daemon serve-mix starts.
    proc = subprocess.Popen(
        ["./" + BENCH, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--nproc", str(nproc), "--dstool", "./" + DSTOOL],
        stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=170)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("benchmark overran 170 s")
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines:
        sys.stdout.write(out)
        fail("benchmark exited with code %d" % proc.returncode)
    result = json.loads(lines[-1])
    measured = result["metrics"]
    table = spec["per_layer" if args.trace else "end_to_end"]
    declared = [m["name"] for m in table]
    unknown = sorted(set(measured) - set(declared))
    missing = [] if args.trace else [n for n in declared if n not in measured]
    if unknown or missing:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("metrics not declared in BENCHMARK.json: %s; end-to-end metrics "
             "not measured: %s" % (unknown, missing))
    result["metrics"] = {
        m["name"]: {"value": measured.get(m["name"], 0), "unit": m["unit"]}
        for m in table}
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
