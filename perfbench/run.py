#!/usr/bin/env python3
"""Builds the benchmark binary from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The benchmark binary (perfbench/main.cc) is built with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) and runs the
workload in a child process of its own, so the peak RSS read from that
child is the workload's own. The last line printed is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics
are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer list.
Per-layer metrics of a layer the workload does not exercise read 0.
"""

import argparse
import json
import os
import subprocess
import sys
import threading

RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(root):
    build_dir = os.path.join(
        os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")),
        "perfbench")
    source_dir = os.path.join(root, "perfbench")
    configure = ["cmake", "-S", source_dir, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
        fail("configure failed")
    command = ["cmake", "--build", build_dir, "--target", "perfbench",
               "-j", "3"]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return build_dir


def run_binary(command):
    """Runs the binary; returns (exit code, stdout lines, its peak RSS in MB).

    The child is reaped with wait4 so the RSS is the binary's own, not the
    maximum over every child this script has waited for (the compiler runs
    of the build among them).
    """
    proc = subprocess.Popen(command, stdout=subprocess.PIPE)
    timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux.
    return proc.returncode, out.decode().splitlines(), usage.ru_maxrss / 1024.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="show that every output check fires on a "
                             "corrupted output")
    args = parser.parse_args()

    root = os.getcwd()
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    binary = os.path.join(build(root), "perfbench")

    if args.selftest:
        sys.exit(subprocess.run([binary, "--selftest"]).returncode)

    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; expected one of {names}")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(os.path.dirname(binary),
                             f"spans-{args.workload}-{args.seed}.json")
        command += ["--spans", spans]

    code, lines, peak_rss_mb = run_binary(command)
    for line in lines[:-1]:
        print(line)
    if code != 0 or not lines:
        fail(f"benchmark binary exited with {code}")
    result = json.loads(lines[-1])

    measured = result["metrics"]
    if not args.trace:
        measured["peak_rss_mb"] = peak_rss_mb
    known = {m["name"] for m in wanted}
    unknown = sorted(set(measured) - known)
    if unknown:
        fail(f"binary reported metrics BENCHMARK.json does not list: {unknown}")
    metrics = {}
    for m in wanted:
        if m["name"] not in measured and not args.trace:
            fail(f"binary did not report {m['name']}")
        metrics[m["name"]] = {"value": measured.get(m["name"], 0.0),
                              "unit": m["unit"]}
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
