// Extension bench: CAT way partitioning vs OS page coloring.
//
// Page coloring is the software cache-partitioning technique the paper
// contrasts CAT against (Section V-A; Lee et al.'s MCC-DB on PostgreSQL):
// the OS backs each party's data with physical pages whose set-index bits
// fall in a disjoint region, so they can never evict each other. The paper
// argues CAT is preferable in an in-memory DBMS because (re)partitioning by
// page coloring requires copying data; this bench reproduces the
// *effectiveness* comparison on the Fig. 9b sensitive point and quantifies
// the repartitioning cost asymmetry.

#include <cstdio>
#include <string>

#include "bench_util.h"
#include "engine/operators/aggregation.h"
#include "engine/operators/column_scan.h"
#include "workloads/micro.h"

using namespace catdb;

int main(int argc, char** argv) {
  const bench::BenchOptions opts = bench::ParseBenchArgs(argc, argv);
  const uint64_t horizon = bench::HorizonFor(opts);
  // --trace-out traces this machine: the colored data and its runs.
  sim::Machine machine{sim::MachineConfig{}};
  bench::ApplyTraceOption(&machine, opts);
  const uint32_t colors = machine.num_page_colors();
  // 10 % of the colors for the scan — the coloring analogue of mask 0x3.
  const uint32_t scan_colors = colors >= 10 ? colors / 10 : 1;
  const uint64_t scan_mask = (uint64_t{1} << scan_colors) - 1;
  const uint64_t agg_mask =
      ((colors >= 64 ? ~uint64_t{0} : (uint64_t{1} << colors) - 1) &
       ~scan_mask);

  std::printf("page colors: %u (scan gets %u, aggregation %u)\n\n", colors,
              scan_colors, colors - scan_colors);

  // Scan data in the scan's colors; aggregation data + tables in the rest.
  workloads::ScanDataset scan_data = [&] {
    sim::ScopedPageColors guard(&machine, scan_mask);
    return workloads::MakeScanDataset(
        &machine, workloads::kDefaultScanRows,
        workloads::DictEntriesForRatio(machine, workloads::kDictRatioSmall),
        1);
  }();
  engine::ColumnScanQuery scan(&scan_data.column, 2);
  scan.AttachSim(&machine);

  sim::ScopedPageColors agg_guard(&machine, agg_mask);
  auto agg_data = workloads::MakeAggDataset(
      &machine, workloads::kDefaultAggRows,
      workloads::DictEntriesForRatio(machine, workloads::kDictRatioMedium),
      workloads::ScaledGroupCount(100000), 3);
  engine::AggregationQuery agg(&agg_data.v, &agg_data.g);
  agg.AttachSim(&machine);
  // The worker-local hash tables must be placed under the coloring regime
  // too; force their creation now.
  agg.PrepareWorkers(static_cast<uint32_t>(bench::kCoresA.size()));

  engine::PolicyConfig off;
  engine::PolicyConfig cat_on;
  cat_on.enabled = true;

  // Baselines: isolated (coloring does not matter when alone — each party
  // still owns its colors, so isolated numbers are the colored ones).
  const double iso_agg =
      engine::RunWorkload(&machine, {{&agg, bench::kCoresA}}, horizon, off)
          .streams[0]
          .iterations;
  const double iso_scan =
      engine::RunWorkload(&machine, {{&scan, bench::kCoresB}}, horizon, off)
          .streams[0]
          .iterations;

  // With data colored apart, running them concurrently WITHOUT CAT is the
  // page-coloring scheme.
  auto coloring = engine::RunWorkload(
      &machine, {{&agg, bench::kCoresA}, {&scan, bench::kCoresB}},
      horizon, off);
  // Adding CAT on top would double-partition; instead compare against CAT
  // alone on uncolored data, which needs a second, uncolored copy.
  sim::Machine machine2{sim::MachineConfig{}};
  auto scan_data2 = workloads::MakeScanDataset(
      &machine2, workloads::kDefaultScanRows,
      workloads::DictEntriesForRatio(machine2, workloads::kDictRatioSmall),
      1);
  auto agg_data2 = workloads::MakeAggDataset(
      &machine2, workloads::kDefaultAggRows,
      workloads::DictEntriesForRatio(machine2, workloads::kDictRatioMedium),
      workloads::ScaledGroupCount(100000), 3);
  engine::ColumnScanQuery scan2(&scan_data2.column, 2);
  engine::AggregationQuery agg2(&agg_data2.v, &agg_data2.g);
  scan2.AttachSim(&machine2);
  agg2.AttachSim(&machine2);
  const double iso_agg2 =
      engine::RunWorkload(&machine2, {{&agg2, bench::kCoresA}}, horizon, off)
          .streams[0]
          .iterations;
  const double iso_scan2 =
      engine::RunWorkload(&machine2, {{&scan2, bench::kCoresB}}, horizon, off)
          .streams[0]
          .iterations;
  auto shared = engine::RunWorkload(
      &machine2, {{&agg2, bench::kCoresA}, {&scan2, bench::kCoresB}},
      horizon, off);
  auto cat = engine::RunWorkload(
      &machine2, {{&agg2, bench::kCoresA}, {&scan2, bench::kCoresB}},
      horizon, cat_on);

  struct Scheme {
    const char* label;
    std::string key;
    const engine::RunReport* run;
    double iso_agg;
    double iso_scan;
  };
  const Scheme schemes[] = {
      {"shared cache", "shared", &shared, iso_agg2, iso_scan2},
      {"CAT (scan -> 2 ways)", "cat", &cat, iso_agg2, iso_scan2},
      {"page coloring (10% colors)", "coloring", &coloring, iso_agg,
       iso_scan},
  };
  obs::RunReportWriter report("ext_page_coloring");
  report.AddParam("horizon_cycles", horizon);
  std::printf("%-26s %12s %12s\n", "scheme", "agg (norm.)", "scan (norm.)");
  bench::PrintRule(54);
  for (const Scheme& s : schemes) {
    const double agg_norm = s.run->streams[0].iterations / s.iso_agg;
    const double scan_norm = s.run->streams[1].iterations / s.iso_scan;
    std::printf("%-26s %12.2f %12.2f\n", s.label, agg_norm, scan_norm);
    report.AddRun(s.key, *s.run);
    report.AddScalar(s.key + "/norm_agg", agg_norm);
    report.AddScalar(s.key + "/norm_scan", scan_norm);
  }
  bench::PrintRule(54);

  // Repartitioning cost asymmetry: CAT repartitions with one register/
  // schemata write; page coloring must copy every page into new colors.
  const uint64_t scan_bytes = scan_data.column.codes().SizeBytes() +
                              scan_data.column.dict().SizeBytes();
  const double copy_ms =
      static_cast<double>(scan_bytes) / (64.0 / 24.0) /* B per cycle */ /
      2.2e9 * 1e3;
  std::printf(
      "\nrepartitioning cost: CAT = 1 schemata write (~%.0f cycles);\n"
      "page coloring = copy %.1f MiB of scan data ~= %.1f ms of DRAM "
      "bandwidth\n",
      static_cast<double>(machine.config().reassociation_cycles),
      scan_bytes / 1048576.0, copy_ms);
  std::printf(
      "\nBoth schemes eliminate pollution; coloring also fences the scan's\n"
      "*sets* (data-side) while CAT fences ways (core-side). The paper\n"
      "prefers CAT for in-memory engines because repartitioning is free.\n");
  bench::FinishBench(&machine, opts, &report);
  return 0;
}
