// Generic scenario runner: executes any `catdb.scenario/v1` file through
// the plan subsystem's executor (src/plan/scenario_exec.h), and hosts the
// differential plan fuzzer.
//
// Modes (in addition to the common bench flags from bench_util.h):
//   scenario_runner <file.json>           run a scenario file
//   scenario_runner --fuzz                differential plan fuzzing: execute
//                                         --plans=<n> seeded random plans
//                                         (--fuzz-seed=<s>) under all three
//                                         executor regimes and fail if any
//                                         report digest diverges
//
// A scenario run's JSON report (--report-out) is byte-identical to the
// figure bench that loads the same file from scenarios/ at any --jobs
// value; only the stdout tables differ (the figure benches keep their
// paper-style tables, this binary prints a generic summary).

#include <cstdio>
#include <cstring>
#include <string>

#include "bench_util.h"
#include "plan/fuzz.h"

using namespace catdb;

namespace {

struct RunnerArgs {
  std::string file;          // <file.json>
  bool fuzz = false;         // --fuzz
  uint64_t plans = 25;       // --plans=<n>
  uint64_t fuzz_seed = 0xC47DB;  // --fuzz-seed=<s>
};

[[noreturn]] void UsageError(const char* msg) {
  std::fprintf(stderr, "scenario_runner: %s\n", msg);
  std::fprintf(stderr,
               "usage: scenario_runner <file.json> | --fuzz [--plans=<n>] "
               "[--fuzz-seed=<s>]\n");
  std::exit(2);
}

/// Splits this binary's own flags and its scenario file from the common
/// bench flags; the remainder goes to ParseBenchArgs, which owns
/// --jobs/--smoke/--report-out/... and rejects anything it doesn't know.
RunnerArgs ExtractRunnerArgs(int* argc, char** argv) {
  RunnerArgs out;
  bool fuzz_flags = false;
  int kept = 1;
  for (int i = 1; i < *argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--fuzz") == 0) {
      out.fuzz = true;
    } else if (std::strncmp(arg, "--plans=", 8) == 0) {
      if (!bench::ParsePositiveU64(arg + 8, &out.plans)) {
        UsageError("--plans expects a positive integer");
      }
      fuzz_flags = true;
    } else if (std::strncmp(arg, "--fuzz-seed=", 12) == 0) {
      if (!bench::ParsePositiveU64(arg + 12, &out.fuzz_seed)) {
        UsageError("--fuzz-seed expects a positive integer");
      }
      fuzz_flags = true;
    } else if (std::strncmp(arg, "--", 2) != 0) {
      if (!out.file.empty()) UsageError("expected exactly one scenario file");
      out.file = arg;
    } else {
      argv[kept++] = argv[i];
    }
  }
  if (out.fuzz && !out.file.empty()) {
    UsageError("--fuzz does not take a scenario");
  }
  if (!out.fuzz && fuzz_flags) {
    UsageError("--plans and --fuzz-seed need --fuzz");
  }
  if (!out.fuzz && out.file.empty()) {
    UsageError("expected exactly one scenario file");
  }
  *argc = kept;
  return out;
}

int RunFuzz(const RunnerArgs& args, const bench::BenchOptions& opts) {
  plan::FuzzOptions fuzz;
  fuzz.seed = args.fuzz_seed;
  fuzz.plans = args.plans;
  fuzz.jobs = opts.jobs;
  plan::FuzzResult result;
  const Status st = plan::RunPlanFuzz(fuzz, &result);
  std::printf("differential fuzz: %zu plans x %zu regimes (",
              static_cast<size_t>(fuzz.plans), plan::kNumFuzzRegimes);
  for (size_t r = 0; r < plan::kNumFuzzRegimes; ++r) {
    std::printf("%s%s", r == 0 ? "" : ", ", plan::FuzzRegimeName(r));
  }
  std::printf("), seed %llu\n",
              static_cast<unsigned long long>(fuzz.seed));
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    // Still write the report: the per-plan digest params are the evidence.
    bench::FinishSweepBench(&*result.runner, opts);
    return 1;
  }
  std::printf("all regime digests agree\n");
  bench::FinishSweepBench(&*result.runner, opts);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const RunnerArgs args = ExtractRunnerArgs(&argc, argv);
  const bench::BenchOptions opts = bench::ParseBenchArgs(argc, argv);
  if (args.fuzz) return RunFuzz(args, opts);

  const plan::Scenario scenario = bench::LoadScenarioFile(args.file);
  plan::ScenarioRunResult result =
      bench::RunScenarioWithFlags(scenario, opts);
  std::printf("scenario %s (%s): %zu datasets, %zu plans, %zu cells\n",
              scenario.benchmark.c_str(),
              plan::SweepKindName(scenario.kind), scenario.datasets.size(),
              scenario.plans.size(),
              static_cast<size_t>(result.runner->num_cells()));
  bench::FinishSweepBench(&*result.runner, opts);
  return 0;
}
