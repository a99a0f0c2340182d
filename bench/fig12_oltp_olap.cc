// Reproduces Fig. 12 (a, b) and the Section VI-E projection-width sweep:
// normalized throughput of Query 1 (column scan) and the S/4HANA OLTP query
// running concurrently, with and without cache partitioning, for the
// 13-column (big dictionaries) and 6-column (small dictionaries)
// projections, plus the 2..13-column working-set sweep.

#include <cstdio>
#include <memory>

#include "bench_util.h"
#include "engine/operators/column_scan.h"
#include "workloads/micro.h"
#include "workloads/s4hana.h"

using namespace catdb;

namespace {

void RunCase(sim::Machine* machine, const workloads::AcdocaData& acdoca,
             const storage::DictColumn* scan_column, const char* label,
             const std::string& report_key, obs::RunReportWriter* report,
             uint64_t horizon, bool big, uint32_t columns, uint64_t seed) {
  auto oltp = workloads::MakeOltpQuery(acdoca, big, columns, seed);
  oltp->AttachSim(machine);
  engine::ColumnScanQuery scan(scan_column, seed + 1);

  const auto r = bench::RunPair(machine, oltp.get(), &scan,
                                engine::PolicyConfig{}, horizon);
  bench::AddPairResult(report, report_key, r);
  std::printf("%-28s | %8.2f %8.2f %6.0f%% | %8.2f %8.2f | ws %.2f MiB\n",
              label, r.norm_conc_a(), r.norm_part_a(),
              (r.norm_part_a() / r.norm_conc_a() - 1) * 100,
              r.norm_conc_b(), r.norm_part_b(),
              oltp->WorkingSetBytes() / (1024.0 * 1024.0));
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions opts = bench::ParseBenchArgs(argc, argv);
  // --smoke: case (a) only, at the short horizon, without the sweep.
  const uint64_t horizon = bench::HorizonFor(opts);
  sim::Machine machine{sim::MachineConfig{}};
  bench::ApplyTraceOption(&machine, opts);
  obs::RunReportWriter report("fig12_oltp_olap");

  auto acdoca = workloads::MakeAcdocaData(&machine, {});
  auto scan_data = workloads::MakeScanDataset(
      &machine, workloads::kDefaultScanRows,
      workloads::DictEntriesForRatio(machine, workloads::kDictRatioSmall),
      /*seed=*/1400);

  std::printf(
      "Fig. 12 — S/4HANA OLTP query co-running with Query 1 (column "
      "scan)\n");
  bench::PrintRule(96);
  std::printf("%-28s | %8s %8s %7s | %8s %8s |\n", "projection",
              "OLTP conc", "part", "gain", "scan conc", "part");
  bench::PrintRule(96);
  RunCase(&machine, *acdoca, &scan_data.column, "(a) 13 big-dict columns",
          "a_13big", &report, horizon, true, 13, 1410);
  if (!opts.smoke) {
    RunCase(&machine, *acdoca, &scan_data.column, "(b) 6 small-dict columns",
            "b_6small", &report, horizon, false, 6, 1420);
  }
  bench::PrintRule(96);

  if (!opts.smoke) {
    std::printf(
        "\nSection VI-E sweep — projected (big-dictionary) column count\n");
    bench::PrintRule(96);
    for (uint32_t k = 2; k <= 13; ++k) {
      char label[32];
      std::snprintf(label, sizeof(label), "%2u columns", k);
      RunCase(&machine, *acdoca, &scan_data.column, label,
              "sweep/columns" + std::to_string(k), &report, horizon, true, k,
              1430 + k);
    }
    bench::PrintRule(96);
  }
  std::printf(
      "Paper: OLTP drops to 66%%/68%% (13/6 columns); partitioning regains\n"
      "+13%%/+9%%, and the gain grows with the number of projected columns\n"
      "(+8%% to +13%% from 2 to 13 columns) as the working set grows.\n");
  bench::FinishBench(&machine, opts, &report);
  return 0;
}
