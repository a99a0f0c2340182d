// Extension bench: dynamic cache partitioning from hardware monitoring.
//
// The paper's outlook (Sections VII/VIII) suggests classifying operators
// online instead of annotating them statically. This bench runs the Fig. 9b
// sensitive point with *no annotations in effect* and lets the dynamic
// controller discover the polluter from CMT/MBM + per-class LLC counters,
// comparing three schemes:
//   1. shared cache (no partitioning),
//   2. static annotations (the paper's approach),
//   3. dynamic controller (no annotations, monitoring-driven).

#include <cstdio>

#include "bench_util.h"
#include "engine/operators/aggregation.h"
#include "engine/operators/column_scan.h"
#include "policy/policy_engine.h"
#include "workloads/micro.h"

using namespace catdb;

int main(int argc, char** argv) {
  const bench::BenchOptions opts = bench::ParseBenchArgs(argc, argv);
  // --smoke: the same three schemes at the short horizon.
  const uint64_t horizon = bench::HorizonFor(opts);
  sim::Machine machine{sim::MachineConfig{}};
  bench::ApplyTraceOption(&machine, opts);
  auto scan_data = workloads::MakeScanDataset(
      &machine, workloads::kDefaultScanRows,
      workloads::DictEntriesForRatio(machine, workloads::kDictRatioSmall),
      51);
  auto agg_data = workloads::MakeAggDataset(
      &machine, workloads::kDefaultAggRows,
      workloads::DictEntriesForRatio(machine, workloads::kDictRatioMedium),
      workloads::ScaledGroupCount(100000), 52);
  engine::ColumnScanQuery scan(&scan_data.column, 53);
  engine::AggregationQuery agg(&agg_data.v, &agg_data.g);
  scan.AttachSim(&machine);
  agg.AttachSim(&machine);

  engine::PolicyConfig off;
  engine::PolicyConfig annotated;
  annotated.enabled = true;

  const double iso_agg =
      engine::RunWorkload(&machine, {{&agg, bench::kCoresA}}, horizon, off)
          .streams[0]
          .iterations;
  const double iso_scan =
      engine::RunWorkload(&machine, {{&scan, bench::kCoresB}}, horizon, off)
          .streams[0]
          .iterations;

  const std::vector<engine::StreamSpec> specs = {
      {&agg, bench::kCoresA}, {&scan, bench::kCoresB}};
  auto shared = engine::RunWorkload(&machine, specs, horizon, off);
  auto static_part =
      engine::RunWorkload(&machine, specs, horizon, annotated);
  auto dynamic = policy::RunWorkloadDynamic(&machine, specs, horizon,
                                            policy::DynamicPolicyConfig{});

  std::printf("Dynamic partitioning vs static annotations (Fig. 9b point)\n");
  bench::PrintRule(64);
  std::printf("%-26s %12s %12s\n", "scheme", "agg (norm.)", "scan (norm.)");
  bench::PrintRule(64);
  std::printf("%-26s %12.2f %12.2f\n", "shared cache",
              shared.streams[0].iterations / iso_agg,
              shared.streams[1].iterations / iso_scan);
  std::printf("%-26s %12.2f %12.2f\n", "static annotations",
              static_part.streams[0].iterations / iso_agg,
              static_part.streams[1].iterations / iso_scan);
  std::printf("%-26s %12.2f %12.2f\n", "dynamic (monitoring)",
              dynamic.report.streams[0].iterations / iso_agg,
              dynamic.report.streams[1].iterations / iso_scan);
  bench::PrintRule(64);

  std::printf("\ncontroller trace: %u intervals, %llu schemata writes\n",
              dynamic.intervals,
              static_cast<unsigned long long>(dynamic.schemata_writes));
  for (size_t i = 0; i < dynamic.report.streams.size(); ++i) {
    std::printf("  %-18s %s", dynamic.report.streams[i].query_name.c_str(),
                dynamic.restricted[i] ? "RESTRICTED" : "full cache");
    if (dynamic.restricted_at_interval[i] != 0) {
      std::printf(" (since interval %u)", dynamic.restricted_at_interval[i]);
    }
    std::printf("\n");
  }
  std::printf(
      "\nThe controller identifies the scan as a polluter (high memory\n"
      "bandwidth, near-zero LLC hit ratio) within the first intervals and\n"
      "confines it, approaching the statically annotated configuration\n"
      "without any operator annotations.\n");

  obs::RunReportWriter report("ext_dynamic_policy");
  report.AddParam("horizon_cycles", horizon);
  report.AddScalar("iso_agg_iterations", iso_agg);
  report.AddScalar("iso_scan_iterations", iso_scan);
  report.AddRun("shared", shared);
  report.AddRun("static_annotations", static_part);
  report.AddDynamicRun("dynamic", dynamic);
  bench::FinishBench(&machine, opts, &report);
  return 0;
}
