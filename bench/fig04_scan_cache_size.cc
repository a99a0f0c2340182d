// Reproduces Fig. 4: normalized throughput of Query 1 (column scan) at
// varying LLC sizes, including the Section V-B note that mask 0x1 (one way)
// behaves worse than 0x3. Also prints the LLC hit ratio and misses per
// instruction the paper reports in the text (hit ratio < 0.08, MPI ~1.9e-2).
//
// The experiment itself is scenarios/fig04_scan_cache_size.json: this main
// runs that file through the generic scenario executor — the same code path
// bench/scenario_runner takes — and keeps only the paper-style stdout table.
// Every way restriction is one independent simulation cell, so the sweep
// fans out across --jobs host threads and the report is byte-identical for
// any job count.

#include <cstdio>

#include "bench_util.h"

using namespace catdb;

int main(int argc, char** argv) {
  const bench::BenchOptions opts = bench::ParseBenchArgs(argc, argv);
  // Config-only machine for the cache-size labels; the cells build their
  // own.
  sim::Machine meta{sim::MachineConfig{}};

  const plan::Scenario scenario = bench::LoadScenarioFile(
      CATDB_SCENARIO_DIR "/fig04_scan_cache_size.json");
  plan::ScenarioRunResult result =
      bench::RunScenarioWithFlags(scenario, opts);
  const plan::LatencyOutcome& out = result.latency;

  std::printf("Fig. 4 — Query 1 (column scan), isolated, varying LLC size\n");
  bench::PrintRule(72);
  std::printf("%-22s %10s %12s %14s\n", "cache", "norm.tput", "LLC hit",
              "LLC miss/instr");
  bench::PrintRule(72);
  for (size_t i = 0; i < out.ways.size(); ++i) {
    const plan::LatencyOutcome::Cell& r = out.cells[i];
    std::printf("%-22s %10.3f %12.3f %14.2e\n",
                bench::WaysLabel(meta, out.ways[i]).c_str(),
                out.baseline_cycles / r.cycles, r.rep.llc_hit_ratio,
                r.rep.llc_mpi);
  }
  bench::PrintRule(72);
  std::printf(
      "Paper: flat down to 10%% of the cache (bitmask 0x3); only the\n"
      "single-way mask 0x1 degrades the scan. LLC hit ratio stays low.\n");
  bench::FinishSweepBench(&*result.runner, opts);
  return 0;
}
