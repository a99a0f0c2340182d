// Reproduces Fig. 5 (a, b, c): normalized throughput of Query 2
// (aggregation with grouping) at varying LLC sizes, for the paper's three
// dictionary scenarios (4 / 40 / 400 MiB on a 55 MiB LLC, preserved as
// LLC ratios here) and five group counts (10^2..10^6, mapped to simulation
// scale via ScaledGroupCount; see DESIGN.md).
//
// The experiment itself is scenarios/fig05_agg_cache_size.json: this main
// runs that file through the generic scenario executor — the same code path
// bench/scenario_runner takes — and keeps only the paper-style stdout
// tables. Every (scenario, group-count) column is one independent
// simulation cell, so the sweep fans out across --jobs host threads and the
// report is byte-identical for any job count.

#include <cstdio>

#include "bench_util.h"
#include "workloads/micro.h"

using namespace catdb;

namespace {

// The paper's labels of the three dictionary scenarios, whose columns the
// scenario file lists in this order, one per group count.
constexpr const char* kTitles[] = {
    "(a) '4 MiB' dictionary",
    "(b) '40 MiB' dictionary",
    "(c) '400 MiB' dictionary",
};

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions opts = bench::ParseBenchArgs(argc, argv);
  sim::Machine meta{sim::MachineConfig{}};  // labels only; cells own theirs

  const plan::Scenario scenario = bench::LoadScenarioFile(
      CATDB_SCENARIO_DIR "/fig05_agg_cache_size.json");
  plan::ScenarioRunResult result =
      bench::RunScenarioWithFlags(scenario, opts);
  const plan::LatencyOutcome& out = result.latency;
  // The aggregation dataset of column `i`.
  auto agg_of = [&](size_t i) -> const plan::DatasetSpec& {
    return *plan::FindDataset(scenario,
                              scenario.latency.cells[i].datasets[0]);
  };

  // --smoke ran one (scenario, group-count) cell over a two-point way axis.
  const size_t groups_per_dict =
      scenario.latency.cells.size() / std::size(kTitles);
  const size_t num_scenarios = opts.smoke ? 1 : std::size(kTitles);
  const size_t num_groups = opts.smoke ? 1 : groups_per_dict;
  for (size_t si = 0; si < num_scenarios; ++si) {
    const size_t first = si * groups_per_dict;
    const uint32_t dict_entries = workloads::DictEntriesForRatio(
        meta, agg_of(first).dict_ratio.value());
    std::printf("\nFig. 5 %s — dictionary %.2f MiB (%u entries)\n",
                kTitles[si], dict_entries * 4.0 / (1024 * 1024),
                dict_entries);
    bench::PrintRule(78);
    std::printf("%-22s", "cache \\ groups");
    for (size_t gi = 0; gi < num_groups; ++gi) {
      std::printf(" %9.0e", (double)agg_of(first + gi).paper_groups);
    }
    std::printf("\n");
    bench::PrintRule(78);
    for (size_t wi = 0; wi < out.ways.size(); ++wi) {
      std::printf("%-22s", bench::WaysLabel(meta, out.ways[wi]).c_str());
      for (size_t gi = 0; gi < num_groups; ++gi) {
        std::printf(" %9.3f", out.columns[first + gi].norm[wi]);
      }
      std::printf("\n");
    }
    bench::PrintRule(78);
  }

  std::printf(
      "\nPaper: (a) sensitive for mid group counts (strongest when the hash\n"
      "tables are comparable to the LLC), (b) sensitive for all group\n"
      "counts (the dictionary occupies most of the LLC), (c) weaker overall\n"
      "sensitivity (dictionary far exceeds the LLC), still strongest at the\n"
      "LLC-sized hash-table point.\n");
  bench::FinishSweepBench(&*result.runner, opts);
  return 0;
}
