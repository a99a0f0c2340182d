// Reproduces Fig. 1: throughput of an OLTP query running (a) isolated,
// (b) concurrently to an OLAP query, and (c) concurrently to the OLAP query
// with cache partitioning restricting the OLAP scan to 10 % of the LLC.

#include <cstdio>

#include "bench_util.h"
#include "common/units.h"
#include "engine/operators/column_scan.h"
#include "workloads/micro.h"
#include "workloads/s4hana.h"

using namespace catdb;

int main(int argc, char** argv) {
  const bench::BenchOptions opts = bench::ParseBenchArgs(argc, argv);
  const uint64_t horizon = bench::HorizonFor(opts);
  sim::Machine machine{sim::MachineConfig{}};
  bench::ApplyTraceOption(&machine, opts);

  auto acdoca = workloads::MakeAcdocaData(&machine, {});
  auto scan_data = workloads::MakeScanDataset(
      &machine, workloads::kDefaultScanRows,
      workloads::DictEntriesForRatio(machine, workloads::kDictRatioSmall),
      /*seed=*/11);

  auto oltp = workloads::MakeOltpQuery(*acdoca, /*big_projection=*/true,
                                       /*num_columns=*/13, /*seed=*/12);
  engine::ColumnScanQuery olap(&scan_data.column, /*seed=*/13);
  oltp->AttachSim(&machine);
  olap.AttachSim(&machine);

  const auto r = bench::RunPair(&machine, oltp.get(), &olap,
                                engine::PolicyConfig{}, horizon);

  // One OLTP iteration = one point query per worker batch slot.
  const double sim_seconds = CyclesToSeconds(horizon);
  const double per_iter =
      static_cast<double>(oltp->batch_size()) * bench::kCoresA.size();
  auto qps = [&](double iterations) {
    return iterations * per_iter / sim_seconds;
  };

  std::printf("Fig. 1 — OLTP query throughput (simulated queries/s)\n");
  bench::PrintRule(64);
  std::printf("%-34s %12s %8s\n", "configuration", "queries/s", "norm.");
  bench::PrintRule(64);
  std::printf("%-34s %12.0f %8.2f\n", "isolated", qps(r.iso_a), 1.0);
  std::printf("%-34s %12.0f %8.2f\n", "concurrent to OLAP", qps(r.conc_a),
              r.norm_conc_a());
  std::printf("%-34s %12.0f %8.2f\n", "concurrent to OLAP + partitioning",
              qps(r.part_a), r.norm_part_a());
  bench::PrintRule(64);
  std::printf("OLAP scan normalized: concurrent %.2f -> partitioned %.2f\n",
              r.norm_conc_b(), r.norm_part_b());
  std::printf(
      "Paper: OLTP degrades sharply next to OLAP; partitioning recovers "
      "most of the isolated throughput without hurting the scan.\n");

  obs::RunReportWriter report("fig01_headline");
  report.AddParam("horizon_cycles", horizon);
  report.AddScalar("oltp_qps_isolated", qps(r.iso_a));
  report.AddScalar("oltp_qps_concurrent", qps(r.conc_a));
  report.AddScalar("oltp_qps_partitioned", qps(r.part_a));
  bench::AddPairResult(&report, "oltp_vs_olap", r);
  bench::FinishBench(&machine, opts, &report);
  return 0;
}
