// Generic scenario runner: executes any `catdb.scenario/v1` file — or a
// builtin scenario by name — through the plan subsystem's executor
// (src/plan/scenario_exec.h), and hosts the differential plan fuzzer.
//
// Modes (in addition to the common bench flags from bench_util.h):
//   scenario_runner <file.json>           run a scenario file
//   scenario_runner --builtin=<name>      run a builtin scenario
//   scenario_runner --dump-builtin=<name> print a builtin scenario's
//                                         canonical JSON to stdout and exit
//                                         (the scenarios/ files are checked
//                                         in as exactly this output)
//   scenario_runner --fuzz                differential plan fuzzing: execute
//                                         --plans=<n> seeded random plans
//                                         (--fuzz-seed=<s>) under all three
//                                         executor regimes and fail if any
//                                         report digest diverges
//
// A scenario run's JSON report (--report-out) is byte-identical to the
// hand-coded bench of the same figure at any --jobs value; only the stdout
// tables differ (the figure benches keep their paper-style tables, this
// binary prints a generic summary).

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "plan/builtin_scenarios.h"
#include "plan/fuzz.h"
#include "plan/scenario_exec.h"

using namespace catdb;

namespace {

struct RunnerArgs {
  std::string file;          // <file.json>
  std::string builtin;       // --builtin=<name>
  std::string dump_builtin;  // --dump-builtin=<name>
  bool fuzz = false;         // --fuzz
  uint64_t plans = 25;       // --plans=<n>
  uint64_t fuzz_seed = 0xC47DB;  // --fuzz-seed=<s>
};

[[noreturn]] void UsageError(const char* msg) {
  std::fprintf(stderr, "scenario_runner: %s\n", msg);
  std::fprintf(stderr,
               "usage: scenario_runner <file.json> | --builtin=<name> | "
               "--dump-builtin=<name> | --fuzz [--plans=<n>] "
               "[--fuzz-seed=<s>]\n");
  std::exit(2);
}

/// Splits this binary's own flags and its scenario file from the common
/// bench flags; the remainder goes to ParseBenchArgs, which owns
/// --jobs/--smoke/--report-out/... and rejects anything it doesn't know.
RunnerArgs ExtractRunnerArgs(int* argc, char** argv) {
  RunnerArgs out;
  int kept = 1;
  for (int i = 1; i < *argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--builtin=", 10) == 0) {
      out.builtin = arg + 10;
    } else if (std::strncmp(arg, "--dump-builtin=", 15) == 0) {
      out.dump_builtin = arg + 15;
    } else if (std::strcmp(arg, "--fuzz") == 0) {
      out.fuzz = true;
    } else if (std::strncmp(arg, "--plans=", 8) == 0) {
      if (!bench::ParsePositiveU64(arg + 8, &out.plans)) {
        UsageError("--plans expects a positive integer");
      }
    } else if (std::strncmp(arg, "--fuzz-seed=", 12) == 0) {
      if (!bench::ParsePositiveU64(arg + 12, &out.fuzz_seed)) {
        UsageError("--fuzz-seed expects a positive integer");
      }
    } else if (std::strncmp(arg, "--", 2) != 0) {
      if (!out.file.empty()) UsageError("expected exactly one scenario file");
      out.file = arg;
    } else {
      argv[kept++] = argv[i];
    }
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

int RunScenarioFile(const plan::Scenario& scenario,
                    const bench::BenchOptions& opts) {
  plan::ExecOptions exec;
  exec.jobs = opts.jobs;
  exec.smoke = opts.smoke;
  exec.tracing = !opts.trace_out.empty();

  plan::ScenarioRunResult result;
  const Status st = plan::RunScenario(scenario, exec, &result);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("scenario %s (%s): %zu datasets, %zu plans, %zu cells\n",
              scenario.benchmark.c_str(),
              plan::SweepKindName(scenario.kind), scenario.datasets.size(),
              scenario.plans.size(),
              static_cast<size_t>(result.runner->num_cells()));
  bench::FinishSweepBench(&*result.runner, opts);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  RunnerArgs args = ExtractRunnerArgs(&argc, argv);
  if (!args.dump_builtin.empty()) {
    plan::Scenario scenario;
    const Status st = plan::BuiltinScenario(args.dump_builtin, &scenario);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::fputs(plan::ScenarioToText(scenario).c_str(), stdout);
    return 0;
  }

  const bench::BenchOptions opts = bench::ParseBenchArgs(argc, argv);
  if (args.fuzz) {
    if (!args.builtin.empty() || !args.file.empty()) {
      UsageError("--fuzz does not take a scenario");
    }
    return RunFuzz(args, opts);
  }

  plan::Scenario scenario;
  if (!args.builtin.empty()) {
    if (!args.file.empty()) {
      UsageError("give either --builtin=<name> or a scenario file, not both");
    }
    const Status st = plan::BuiltinScenario(args.builtin, &scenario);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
  } else {
    if (args.file.empty()) UsageError("expected exactly one scenario file");
    std::string text;
    Status st = plan::ReadTextFile(args.file, &text);
    if (st.ok()) st = plan::ScenarioFromText(text, &scenario);
    if (!st.ok()) {
      std::fprintf(stderr, "%s: %s\n", args.file.c_str(),
                   st.ToString().c_str());
      return 1;
    }
  }
  return RunScenarioFile(scenario, opts);
}
