#!/usr/bin/env python3
"""Host-speed benchmark of the catdb simulator.

Builds the C++ benchmark program of this directory (which compiles the library from
src/) and runs one workload, printing the result as the last stdout line:

    python3 hostbench/run.py --workload pair_oltp_scan --seed 0 --seconds 40 --trace 0

The build goes to a subdirectory of $CARGO_TARGET_DIR when set, else of
.bench_build, taken relative to the repository root; build output goes to
stderr. The program reports metric values by name; this script checks the
names against BENCHMARK.json and attaches the units given there. Workloads,
metrics and the traced run are described in src/main.cc and
src/workloads.h; the tests build with the same CMake package (see
CMakeLists.txt).
"""

import argparse
import fcntl
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("pair_oltp_scan", "serve_sweep")
SCENARIO = os.path.join(ROOT, "scenarios", "ext_serving_tail.json")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg, code=2):
    print(f"hostbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run_to_stderr(cmd):
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build step failed: " + " ".join(cmd))


def build_dir():
    """One build directory per checkout: CMake caches the source path, so two
    checkouts sharing a directory would both time whichever configured it."""
    base = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR")
                        or ".bench_build")
    key = hashlib.sha256(ROOT.encode()).hexdigest()[:12]
    return os.path.join(base, "hostbench-" + key)


def build(out_dir):
    for need in (os.path.join(ROOT, "src", "CMakeLists.txt"), SCENARIO):
        if not os.path.isfile(need):
            fail(f"{os.path.relpath(need, ROOT)} is missing; "
                 "run from a full checkout of the repository")
    os.makedirs(out_dir, exist_ok=True)
    jobs = str(len(os.sched_getaffinity(0)))
    with open(os.path.join(out_dir, "hostbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per directory
        if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
            run_to_stderr(["cmake", "-S", HERE, "-B", out_dir,
                           "-DCMAKE_BUILD_TYPE=Release"])
        run_to_stderr(["cmake", "--build", out_dir, "--target", "hostbench",
                       "-j", jobs])
    return os.path.join(out_dir, "hostbench")


def with_units(line, trace):
    """The program's result line with BENCHMARK.json's units attached.

    Raises ValueError when the line is not a valid result. A per-layer
    metric the program leaves out belongs to a layer that does no work in
    the workload and reads 0.
    """
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if trace else "end_to_end"]}
    result = json.loads(line)
    if (not isinstance(result, dict) or set(result) != RESULT_KEYS
            or not isinstance(result["metrics"], dict)):
        raise ValueError(f"result keys must be {sorted(RESULT_KEYS)}")
    values = result["metrics"]
    unknown = sorted(set(values) - set(units))
    missing = sorted(set(units) - set(values))
    if unknown or (missing and not trace):
        raise ValueError(f"metrics {unknown} are not in BENCHMARK.json, "
                         f"{missing} are missing")
    result["metrics"] = {name: {"value": values.get(name, 0), "unit": unit}
                         for name, unit in units.items()}
    return json.dumps(result)


def main():
    # SIGTERM unwinds through subprocess.run, which kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    out_dir = build_dir()
    cmd = [build(out_dir),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", repr(args.seconds),
           "--trace", str(args.trace),
           "--goldens", os.path.join(HERE, "goldens.json"),
           "--scenario", SCENARIO]
    if args.trace:
        cmd += ["--spans-out",
                os.path.join(out_dir, f"spans-{args.workload}.json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        fail(f"hostbench exited with {proc.returncode}", proc.returncode or 1)
    sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
    try:
        result = with_units(lines[-1], args.trace)
    except ValueError as e:
        fail(f"invalid result line: {e}", 1)
    print(result)


if __name__ == "__main__":
    main()
