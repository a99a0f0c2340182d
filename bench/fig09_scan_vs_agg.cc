// Reproduces Fig. 9 (a, b, c): normalized throughput of Query 1 (column
// scan) and Query 2 (aggregation) running concurrently, with and without
// cache partitioning (scan restricted to 10 % of the LLC, aggregation gets
// 100 %), for the three dictionary scenarios and five group counts.
//
// The experiment itself is the builtin fig09 scenario (src/plan/): this
// main executes it through the generic scenario executor — the same code
// path bench/scenario_runner takes with scenarios/fig09_scan_vs_agg.json —
// and keeps only the paper-style stdout tables. Every (scenario,
// group-count) pair experiment is one independent simulation cell, so the
// 15 four-run pair experiments fan out across --jobs host threads with
// byte-identical output.

#include <cstdio>

#include "bench_util.h"
#include "plan/builtin_scenarios.h"
#include "plan/scenario_exec.h"
#include "workloads/micro.h"

using namespace catdb;

namespace {

struct DictTitle {
  const char* title;
  double dict_ratio;
};

constexpr DictTitle kScenarios[] = {
    {"(a) '4 MiB' dictionary", workloads::kDictRatioSmall},
    {"(b) '40 MiB' dictionary", workloads::kDictRatioMedium},
    {"(c) '400 MiB' dictionary", workloads::kDictRatioLarge},
};

constexpr size_t kNumGroups = std::size(workloads::kGroupSizes);

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions opts = bench::ParseBenchArgs(argc, argv);

  plan::ExecOptions exec;
  exec.jobs = opts.jobs;
  exec.smoke = opts.smoke;
  exec.tracing = !opts.trace_out.empty();

  plan::ScenarioRunResult result;
  const Status st =
      plan::RunScenario(plan::Fig09Scenario(), exec, &result);
  CATDB_CHECK(st.ok());
  // --smoke ran a single (scenario, group-count) cell at the short horizon.
  const size_t num_scenarios = opts.smoke ? 1 : std::size(kScenarios);
  const size_t num_groups = opts.smoke ? 1 : kNumGroups;
  const std::vector<bench::PairResult>& results = result.pair.results;

  sim::Machine meta{sim::MachineConfig{}};  // labels only
  for (size_t si = 0; si < num_scenarios; ++si) {
    const DictTitle& sc = kScenarios[si];
    const uint32_t dict_entries =
        workloads::DictEntriesForRatio(meta, sc.dict_ratio);
    std::printf("\nFig. 9 %s — dictionary %.2f MiB\n", sc.title,
                dict_entries * 4.0 / (1024 * 1024));
    bench::PrintRule(88);
    std::printf("%8s | %9s %9s %9s | %9s %9s %9s | %7s\n", "groups",
                "Q2 conc", "Q2 part", "gain", "Q1 conc", "Q1 part", "gain",
                "LLC hit");
    bench::PrintRule(88);
    for (size_t gi = 0; gi < num_groups; ++gi) {
      const uint32_t g = workloads::kGroupSizes[gi];
      const bench::PairResult& r = results[si * num_groups + gi];
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
