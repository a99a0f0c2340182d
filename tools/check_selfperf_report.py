#!/usr/bin/env python3
"""CI validator for the selfperf_sim artifacts.

Checks three files:
  1. the catdb.report/v1 run report (--report-out): must carry the
     per-component host-cycle breakdown scalars for every workload;
  2. the selfperf summary JSON (first positional output): every workload
     entry must embed a host_cycle_breakdown object with the full component
     set and self-consistent counters;
  3. the parallel-scaling JSON (second positional output): must carry
     `host_cores` and the top-level `conclusive` flag plus the
     `sweep_harness` section (--jobs scaling) with its own `conclusive`
     flag and an explicit `skipped_oversubscribed` annotation. Single-core
     hosts produce inconclusive scaling data; that is reported as a
     WARNING, never a silent pass.

Every `host_cycle_breakdown` must additionally be self-consistent: all
buckets non-negative, and their sum no larger than the emitted
`attributed_total` (a bucket overflowing past the total means a timer
wrapped or a component was double-counted).

With --baseline=<BENCH_selfperf.json> the checker also acts as a
throughput-regression gate: each workload's fast-leg
`accesses_per_second` must be at least --min-ratio (default 0.5) times
the baseline file's value for the same workload. CI runs this against
the checked-in BENCH_selfperf.json with a loose ratio — CI hosts are
slower and noisier than the bench host, so the gate is sized to catch a
broken fast path (order-of-magnitude regressions), not small drift.

Usage: check_selfperf_report.py <report.json> <selfperf.json> <parallel.json>
           [--baseline=<bench.json>] [--min-ratio=<x>]
"""

import json
import sys

BREAKDOWN_COMPONENTS = [
    "l1_lookup",
    "l2_lookup",
    "llc_lookup",
    "victim_fill",
    "prefetcher",
    "dram",
    "pending_table",
    "shadow_profiler",
    "monitor_flush",
    "translate",
    "scalar_access",
    "run_setup",
    "run_other",
]

WORKLOADS = ["fig01_oltp_olap", "fig11_tpch_q1"]


def fail(msg):
    print(f"FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_report(path):
    with open(path) as f:
        report = json.load(f)
    if report.get("schema") != "catdb.report/v1":
        fail(f"{path}: schema is {report.get('schema')!r}")
    results = report.get("results", [])
    names = {r.get("name") for r in results}
    for w in WORKLOADS:
        for metric in ("accesses_per_second", "speedup_vs_scalar_access_path"):
            if f"{w}/{metric}" not in names:
                fail(f"{path}: missing scalar {w}/{metric}")
        for comp in BREAKDOWN_COMPONENTS:
            if f"{w}/host_cycles/{comp}" not in names:
                fail(f"{path}: missing scalar {w}/host_cycles/{comp}")
    print(f"ok: {path} carries breakdown scalars for {len(WORKLOADS)} workloads")


def check_selfperf(path):
    with open(path) as f:
        doc = json.load(f)
    workloads = doc.get("workloads")
    if not isinstance(workloads, list):
        fail(f"{path}: no workloads array")
    by_name = {e.get("name"): e for e in workloads}
    for w in WORKLOADS:
        entry = by_name.get(w)
        if entry is None:
            fail(f"{path}: missing workload {w}")
        b = entry.get("host_cycle_breakdown")
        if not isinstance(b, dict):
            fail(f"{path}: {w} missing host_cycle_breakdown")
        bucket_sum = 0
        for comp in BREAKDOWN_COMPONENTS:
            v = b.get(comp)
            if not isinstance(v, int):
                fail(f"{path}: {w} breakdown missing component {comp}")
            if v < 0:
                fail(f"{path}: {w} breakdown bucket {comp} is negative ({v})")
            bucket_sum += v
        total = b.get("attributed_total")
        if not isinstance(total, int) or total < 0:
            fail(f"{path}: {w} breakdown missing `attributed_total`")
        if bucket_sum > total:
            fail(f"{path}: {w} breakdown buckets sum to {bucket_sum} > "
                 f"attributed_total {total} (timer wrap or double count)")
        for counter in ("runs", "run_lines", "scalar_accesses"):
            if not isinstance(b.get(counter), int) or b[counter] <= 0:
                fail(f"{path}: {w} breakdown counter {counter} not positive")
    print(f"ok: {path} embeds complete host_cycle_breakdown objects")


def check_baseline(path, baseline_path, min_ratio):
    """Fast-leg accesses_per_second must hold at least min_ratio x the
    checked-in baseline's, per workload."""
    with open(path) as f:
        doc = json.load(f)
    with open(baseline_path) as f:
        base = json.load(f)
    by_name = {e.get("name"): e for e in doc.get("workloads", [])}
    base_by_name = {e.get("name"): e for e in base.get("workloads", [])}
    for w in WORKLOADS:
        entry = by_name.get(w)
        base_entry = base_by_name.get(w)
        if entry is None or base_entry is None:
            fail(f"baseline gate: workload {w} missing from "
                 f"{path if entry is None else baseline_path}")
        cur = entry.get("fast_event_executor", {}).get("accesses_per_second")
        ref = base_entry.get("fast_event_executor", {}).get(
            "accesses_per_second")
        if not isinstance(cur, (int, float)) or cur <= 0:
            fail(f"{path}: {w} has no positive fast-leg accesses_per_second")
        if not isinstance(ref, (int, float)) or ref <= 0:
            fail(f"{baseline_path}: {w} has no positive fast-leg "
                 "accesses_per_second")
        ratio = cur / ref
        if ratio < min_ratio:
            fail(f"{path}: {w} fast-leg accesses_per_second {cur:.0f} is "
                 f"{ratio:.3f}x the baseline {ref:.0f} "
                 f"(gate: >= {min_ratio}x of {baseline_path})")
        print(f"ok: {w} fast leg {cur:.0f} acc/s = {ratio:.2f}x baseline "
              f"(gate {min_ratio}x)")


def check_parallel(path):
    """The scaling section must say whether it is conclusive and which
    points it skipped as oversubscribed — a single-row section with neither
    flag reads like a measured 1.0x ceiling."""
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc.get("host_cores"), int):
        fail(f"{path}: missing integer `host_cores`")
    if not isinstance(doc.get("conclusive"), bool):
        fail(f"{path}: missing boolean `conclusive` flag")
    harness = doc.get("sweep_harness")
    if not isinstance(harness, dict):
        fail(f"{path}: missing `sweep_harness` section")
    if not isinstance(harness.get("conclusive"), bool):
        fail(f"{path}: sweep_harness missing boolean `conclusive` flag")
    if not isinstance(harness.get("skipped_oversubscribed"), list):
        fail(f"{path}: sweep_harness missing `skipped_oversubscribed` list")
    if harness.get("reports_byte_identical") is not True:
        fail(f"{path}: sweep_harness reports not byte-identical")
    if not isinstance(harness.get("runs"), list) or not harness["runs"]:
        fail(f"{path}: sweep_harness has no runs")
    if not harness["conclusive"]:
        print(f"WARNING: {path}: `sweep_harness` scaling is inconclusive "
              f"(host_cores={doc['host_cores']}; oversubscribed points "
              "skipped) — numbers are not a scaling measurement")
    print(f"ok: {path} host_cores={doc['host_cores']} "
          f"conclusive={doc['conclusive']}")


def main(argv):
    baseline = None
    min_ratio = 0.5
    positional = []
    for arg in argv[1:]:
        if arg.startswith("--baseline="):
            baseline = arg[len("--baseline="):]
        elif arg.startswith("--min-ratio="):
            try:
                min_ratio = float(arg[len("--min-ratio="):])
            except ValueError:
                fail(f"--min-ratio expects a number, got {arg!r}")
            if min_ratio <= 0:
                fail("--min-ratio must be positive")
        else:
            positional.append(arg)
    if len(positional) != 3:
        fail(f"usage: {argv[0]} <report.json> <selfperf.json> <parallel.json>"
             " [--baseline=<bench.json>] [--min-ratio=<x>]")
    check_report(positional[0])
    check_selfperf(positional[1])
    check_parallel(positional[2])
    if baseline is not None:
        check_baseline(positional[1], baseline, min_ratio)
    print("selfperf artifacts OK")


if __name__ == "__main__":
    main(sys.argv)
