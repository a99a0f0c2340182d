// Reproduces Fig. 9 (a, b, c): normalized throughput of Query 1 (column
// scan) and Query 2 (aggregation) running concurrently, with and without
// cache partitioning (scan restricted to 10 % of the LLC, aggregation gets
// 100 %), for the three dictionary scenarios and five group counts.
//
// The experiment itself is scenarios/fig09_scan_vs_agg.json: this main runs
// that file through the generic scenario executor — the same code path
// bench/scenario_runner takes — and keeps only the paper-style stdout
// tables. Every (scenario, group-count) pair experiment is one independent
// simulation cell, so the 15 four-run pair experiments fan out across
// --jobs host threads with byte-identical output.

#include <cstdio>

#include "bench_util.h"
#include "workloads/micro.h"

using namespace catdb;

namespace {

// The paper's labels of the three dictionary scenarios, whose cells the
// scenario file lists in this order, one per group count.
constexpr const char* kTitles[] = {
    "(a) '4 MiB' dictionary",
    "(b) '40 MiB' dictionary",
    "(c) '400 MiB' dictionary",
};

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions opts = bench::ParseBenchArgs(argc, argv);

  const plan::Scenario scenario =
      bench::LoadScenarioFile(CATDB_SCENARIO_DIR "/fig09_scan_vs_agg.json");
  plan::ScenarioRunResult result =
      bench::RunScenarioWithFlags(scenario, opts);
  // The aggregation dataset of cell `i`: a cell lists the shared scan
  // dataset first, then its own aggregation dataset.
  auto agg_of = [&](size_t i) -> const plan::DatasetSpec& {
    return *plan::FindDataset(scenario, scenario.pair.cells[i].datasets[1]);
  };
  // --smoke ran a single (scenario, group-count) cell at the short horizon.
  const size_t groups_per_dict =
      scenario.pair.cells.size() / std::size(kTitles);
  const size_t num_scenarios = opts.smoke ? 1 : std::size(kTitles);
  const size_t num_groups = opts.smoke ? 1 : groups_per_dict;
  const std::vector<bench::PairResult>& results = result.pair.results;

  sim::Machine meta{sim::MachineConfig{}};  // labels only
  for (size_t si = 0; si < num_scenarios; ++si) {
    const size_t first = si * groups_per_dict;
    const uint32_t dict_entries = workloads::DictEntriesForRatio(
        meta, agg_of(first).dict_ratio.value());
    std::printf("\nFig. 9 %s — dictionary %.2f MiB\n", kTitles[si],
                dict_entries * 4.0 / (1024 * 1024));
    bench::PrintRule(88);
    std::printf("%8s | %9s %9s %9s | %9s %9s %9s | %7s\n", "groups",
                "Q2 conc", "Q2 part", "gain", "Q1 conc", "Q1 part", "gain",
                "LLC hit");
    bench::PrintRule(88);
    for (size_t gi = 0; gi < num_groups; ++gi) {
      const uint64_t g = agg_of(first + gi).paper_groups;
      const bench::PairResult& r = results[first + gi];
      std::printf(
          "%8.0e | %9.2f %9.2f %8.0f%% | %9.2f %9.2f %8.0f%% | "
          "%.2f->%.2f\n",
          static_cast<double>(g), r.norm_conc_a(), r.norm_part_a(),
          (r.norm_part_a() / r.norm_conc_a() - 1) * 100, r.norm_conc_b(),
          r.norm_part_b(), (r.norm_part_b() / r.norm_conc_b() - 1) * 100,
          r.conc_report.llc_hit_ratio, r.part_report.llc_hit_ratio);
    }
    bench::PrintRule(88);
  }

  std::printf(
      "\nPaper: partitioning helps Q2 most when its hash tables are\n"
      "comparable to the LLC (up to +20/21%% for (a)/(b)) and only 3-9%%\n"
      "for (c); the scan improves slightly as well, and no configuration\n"
      "regresses.\n");
  bench::FinishSweepBench(&*result.runner, opts);
  return 0;
}
