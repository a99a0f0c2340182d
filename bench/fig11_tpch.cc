// Reproduces Fig. 11: normalized throughput of Query 1 (column scan) and
// each TPC-H query when executed concurrently, with and without cache
// partitioning (scan restricted to 10 % of the LLC).

#include <cstdio>
#include <memory>

#include "bench_util.h"
#include "engine/operators/column_scan.h"
#include "workloads/micro.h"
#include "workloads/tpch_gen.h"
#include "workloads/tpch_queries.h"

using namespace catdb;

int main(int argc, char** argv) {
  const bench::BenchOptions opts = bench::ParseBenchArgs(argc, argv);
  sim::Machine machine{sim::MachineConfig{}};
  bench::ApplyTraceOption(&machine, opts);

  auto tpch = workloads::MakeTpchData(&machine, workloads::TpchConfig{});
  auto scan_data = workloads::MakeScanDataset(
      &machine, workloads::kDefaultScanRows,
      workloads::DictEntriesForRatio(machine, workloads::kDictRatioSmall),
      /*seed=*/1100);

  std::printf(
      "Fig. 11 — TPC-H queries co-running with Query 1 (column scan)\n");
  bench::PrintRule(86);
  std::printf("%6s | %9s %9s %7s | %9s %9s | %s\n", "query", "Q conc",
              "Q part", "gain", "scan conc", "scan part", "");
  bench::PrintRule(86);

  // Use a shorter horizon per query: 22 queries x 4 runs each. --smoke
  // runs Q1 only.
  const uint64_t horizon = bench::HorizonFor(opts) / 2;
  const int num_queries = opts.smoke ? 1 : workloads::kNumTpchQueries;

  obs::RunReportWriter report("fig11_tpch");
  report.AddParam("horizon_cycles", horizon);
  double sum_gain = 0;
  for (int q = 1; q <= num_queries; ++q) {
    auto query = workloads::MakeTpchQuery(q, *tpch, 1200 + q);
    query->AttachSim(&machine);
    engine::ColumnScanQuery scan(&scan_data.column, 1300 + q);
    scan.AttachSim(&machine);

    const auto r = bench::RunPair(&machine, query.get(), &scan,
                                  engine::PolicyConfig{}, horizon);
    const double gain = (r.norm_part_a() / r.norm_conc_a() - 1) * 100;
    sum_gain += gain;
    bench::AddPairResult(&report, "Q" + std::to_string(q), r);
    std::printf("%6s | %9.2f %9.2f %6.1f%% | %9.2f %9.2f | %s\n",
                ("Q" + std::to_string(q)).c_str(), r.norm_conc_a(),
                r.norm_part_a(), gain, r.norm_conc_b(), r.norm_part_b(),
                (q == 1 || q == 7 || q == 8 || q == 9)
                    ? "<- big-dictionary decode (paper: improves)"
                    : "");
  }
  bench::PrintRule(86);
  std::printf("mean partitioning gain across queries: %.1f%%\n",
              sum_gain / num_queries);
  std::printf(
      "Paper: TPC-H throughput degrades to 74-93%% next to the scan;\n"
      "partitioning improves queries 1, 7, 8, 9 (up to +5%%) because they\n"
      "decode the large L_EXTENDEDPRICE dictionary; other queries change\n"
      "little; the scan itself sometimes gains up to +5%%.\n");

  report.AddScalar("mean_gain_percent", sum_gain / num_queries);
  bench::FinishBench(&machine, opts, &report);
  return 0;
}
