// hostbench: how fast the catdb simulator runs on the host.
//
//   hostbench --workload <pair_oltp_scan|serve_sweep> --seed <n>
//             --seconds <s> --trace <0|1> --goldens <goldens.json>
//             --scenario <scenarios/ext_serving_tail.json> [--spans-out <f>]
//   hostbench --record-goldens <out.json> --scenario <...>
//
// --trace 0 runs the workload once untimed, checking every golden output,
// then repeats it for --seconds and reports the end-to-end metrics as
// medians over the repetitions, with host times scaled to a reference host
// speed measured while they run (host_speed.h). --trace 1 is the separate
// traced run: an untraced reference pass, a pass with spans around the calls
// into each layer, and a pass with the simulator's host-cycle profiler attached;
// both instrumented passes must reproduce the reference exactly, and it
// reports the per-layer metrics. Every simulation is checked against the
// recorded goldens. The seed selects input variant seed % kVariants. The
// last stdout line is {"correct", "attempted", "failed", "metrics"}, with
// metric values by name.

#include <sched.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "goldens.h"
#include "host_speed.h"
#include "plan/scenario_exec.h"
#include "spans.h"
#include "timing.h"
#include "workloads.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define HOSTBENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define HOSTBENCH_SANITIZED 1
#endif
#endif

namespace hostbench {
namespace {

using namespace catdb;

/// Set-up is short, so it is sampled several times per repetition and
/// reported as a median. The samples are spread over the whole run — the
/// host's speed drifts on a scale of seconds, and a burst of samples would
/// land in one phase of it. A serving set-up (one scenario parse) takes tens
/// of microseconds, so each of its samples times a batch of set-ups.
struct SetupPlan {
  int samples_per_rep;
  int batch;
};
constexpr SetupPlan kPairSetup = {5, 1};
constexpr SetupPlan kServeSetup = {9, 64};

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string goldens;
  std::string scenario;
  std::string spans_out;
  std::string record;
};

[[noreturn]] void Usage(const std::string& msg) {
  std::fprintf(stderr,
               "hostbench: %s\n"
               "usage: hostbench --workload <pair_oltp_scan|serve_sweep> "
               "--seed <n> --seconds <s> --trace <0|1> --goldens <file> "
               "--scenario <file> [--spans-out <file>]\n"
               "       hostbench --record-goldens <file> --scenario <file>\n",
               msg.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(flag + " needs a value");
    const std::string value = argv[++i];
    char* end = nullptr;
    errno = 0;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || value[0] == '-' || *end != '\0' || errno != 0) {
        Usage("--seed expects a non-negative integer");
      }
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0) || !std::isfinite(a.seconds)) {
        Usage("--seconds expects a positive number");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace expects 0 or 1");
      a.trace = value == "1";
    } else if (flag == "--goldens") {
      a.goldens = value;
    } else if (flag == "--scenario") {
      a.scenario = value;
    } else if (flag == "--spans-out") {
      a.spans_out = value;
    } else if (flag == "--record-goldens") {
      a.record = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (a.scenario.empty()) Usage("--scenario is required");
  if (!a.record.empty()) return a;
  if (a.workload != kPairWorkload && a.workload != kServeWorkload) {
    Usage("--workload must be pair_oltp_scan or serve_sweep");
  }
  if (a.seconds <= 0) Usage("--seconds is required");
  if (a.trace < 0) Usage("--trace is required");
  if (a.goldens.empty()) Usage("--goldens is required");
  return a;
}

// ---------------------------------------------------------------------------
// Build and host provenance

unsigned HostThreads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0 && CPU_COUNT(&set) > 0) {
    return static_cast<unsigned>(CPU_COUNT(&set));
  }
  const unsigned n = std::thread::hardware_concurrency();
  return n > 0 ? n : 1;
}

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string brand(reinterpret_cast<const char*>(regs), sizeof(regs));
    brand = brand.c_str();  // drop the NUL padding
    const size_t first = brand.find_first_not_of(' ');
    const size_t last = brand.find_last_not_of(' ');
    if (first != std::string::npos) {
      return brand.substr(first, last - first + 1);
    }
  }
#endif
  return "unknown";
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("GCC ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// Why this build must not be timed, or nullptr when it may be.
const char* UntimeableBuild() {
#if defined(HOSTBENCH_SANITIZED)
  return "sanitizer";
#endif
#if !defined(__OPTIMIZE__)
  return "unoptimized";
#endif
#if !defined(NDEBUG)
  return "assertion-enabled (NDEBUG unset)";
#endif
  return nullptr;
}

void PrintProvenance(const Args& a, uint32_t variant, unsigned threads) {
  std::printf(
      "provenance: {\"nproc\": %u, \"cpu\": \"%s\", \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"host_threads\": %u, "
      "\"workload\": \"%s\", \"seed\": %llu, \"variant\": %u, "
      "\"trace\": %d}\n",
      HostThreads(), CpuModel().c_str(), Compiler().c_str(),
      HOSTBENCH_BUILD_TYPE, threads, a.workload.c_str(),
      static_cast<unsigned long long>(a.seed), variant, a.trace);
}

// ---------------------------------------------------------------------------
// Result line

/// Metric values by name, <module>.<metric> for the per-layer ones. Units
/// come from BENCHMARK.json, which run.py attaches; a layer that does no
/// work in a workload is left out and reads 0.
using Metrics = std::map<std::string, double>;

int PrintResult(const CheckResult& check, const Metrics& metrics) {
  for (size_t i = 0; i < check.mismatches.size() && i < 40; ++i) {
    std::fprintf(stderr, "golden mismatch: %s\n", check.mismatches[i].c_str());
  }
  std::string line = "{\"correct\": ";
  line += check.failed == 0 && check.attempted > 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(check.attempted);
  line += ", \"failed\": " + std::to_string(check.failed);
  line += ", \"metrics\": {";
  char buf[128];
  for (const auto& [name, value] : metrics) {
    CATDB_CHECK(std::isfinite(value));
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    line += (line.back() == '{' ? "\"" : ", \"") + name + "\": " + buf;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return 0;
}

void CheckOk(const Status& st, const std::string& what) {
  if (!st.ok()) {
    std::fprintf(stderr, "hostbench: %s: %s\n", what.c_str(),
                 st.ToString().c_str());
    std::exit(2);
  }
}

double Overhead(double instrumented, double reference) {
  return 100.0 * (instrumented / reference - 1.0);
}

double SumOf(const SimOutputs& outputs, const std::string& key) {
  double total = 0;
  for (const auto& [sim, values] : outputs) {
    const auto it = values.find(key);
    if (it != values.end()) total += it->second;
  }
  return total;
}

/// An instrumented pass must reproduce the untraced reference pass exactly:
/// the same outputs and the same serialized report. When it does not, all
/// of its simulations count as failed.
void CheckPass(const char* pass, const SimOutputs& golden,
               const SimOutputs& untraced, const SimOutputs& observed,
               bool same_report, CheckResult* total) {
  CheckResult r = CheckAllOutputs(golden, observed);
  const CheckResult repro = CheckOutputs(observed, untraced);
  const bool reproduces = repro.failed == 0 && same_report;
  if (!reproduces) {
    r.failed = r.attempted;
    r.mismatches.push_back(std::string(pass) +
                           " pass does not reproduce the untraced pass" +
                           (same_report ? "" : " (report bytes differ)"));
    r.mismatches.insert(r.mismatches.end(), repro.mismatches.begin(),
                        repro.mismatches.end());
  }
  std::printf("%s pass reproduces the untraced outputs and report: %s\n", pass,
              reproduces ? "yes" : "NO");
  Accumulate(r, total);
}

/// Simulator time and component split of a profiled pass, in seconds.
struct SimcacheProfile {
  double total_s = 0;  // point accesses + AccessRun + run translation
  double point = 0;    // point accesses observed
  double run_lines = 0;
  std::vector<std::pair<std::string, double>> components;  // name -> s
};

SimcacheProfile ToSeconds(
    const std::vector<const simcache::HostCycleBreakdown*>& profiles,
    double hz) {
  SimcacheProfile p;
  std::map<std::string, double> ticks;
  std::vector<std::string> order;
  double total = 0;
  for (const simcache::HostCycleBreakdown* b : profiles) {
    for (const auto& [name, cycles] : b->Components()) {
      if (ticks.emplace(name, 0).second) order.push_back(name);
      ticks[name] += static_cast<double>(cycles);
    }
    total +=
        static_cast<double>(b->scalar_access + b->run_total + b->translate);
    p.point += static_cast<double>(b->scalar_accesses);
    p.run_lines += static_cast<double>(b->run_lines);
  }
  p.total_s = total / hz;
  for (const std::string& name : order) {
    p.components.emplace_back(name, ticks[name] / hz);
  }
  return p;
}

double Component(const SimcacheProfile& p, const std::string& name) {
  for (const auto& [n, s] : p.components) {
    if (n == name) return s;
  }
  return 0;
}

/// Exact counts come from the traced pass's outputs; times come from the
/// profiled pass and include the profiler's own timer reads, so they compare
/// across commits but overstate the untraced cost.
void AddSimcacheMetrics(const SimOutputs& outputs, const SimcacheProfile& p,
                        Metrics* v) {
  const double accesses = TotalAccesses(outputs);
  (*v)["simcache.accesses"] = accesses;
  (*v)["simcache.llc_misses"] = SumOf(outputs, "llc_misses");
  (*v)["simcache.dram_accesses"] = SumOf(outputs, "dram_accesses");
  (*v)["simcache.back_invalidations"] =
      SumOf(outputs, "llc_back_invalidations");
  (*v)["simcache.point_share"] =
      p.point + p.run_lines > 0 ? p.point / (p.point + p.run_lines) : 0;
  (*v)["simcache.ns_per_access"] =
      accesses > 0 ? p.total_s / accesses * 1e9 : 0;
  (*v)["simcache.scalar_access_s"] = Component(p, "scalar_access");
  (*v)["simcache.victim_fill_s"] = Component(p, "victim_fill");
  (*v)["simcache.pending_table_s"] = Component(p, "pending_table");
  (*v)["simcache.run_other_s"] = Component(p, "run_other");
}

void PrintProfile(const SimcacheProfile& p, double pass_s) {
  std::printf("  simcache total %.3f s of %.3f s profiled (%.1f%%); "
              "point accesses %.0f, AccessRun lines %.0f\n",
              p.total_s, pass_s, 100.0 * p.total_s / pass_s, p.point,
              p.run_lines);
  for (const auto& [name, s] : p.components) {
    if (s <= 0) continue;
    std::printf("  %-20s %10.3f s %6.1f%%\n", name.c_str(), s,
                p.total_s > 0 ? 100.0 * s / p.total_s : 0.0);
  }
}

void WriteSpans(const Args& a, const SpanRecorder& rec) {
  if (a.spans_out.empty()) return;
  FILE* f = std::fopen(a.spans_out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "hostbench: cannot write %s\n", a.spans_out.c_str());
    return;
  }
  const std::string json = rec.ToJson();
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::printf("spans: %s\n", a.spans_out.c_str());
}

double RowSeconds(const std::vector<SelfTimeRow>& rows, const std::string& r) {
  for (const SelfTimeRow& row : rows) {
    if (row.row == r) return row.seconds;
  }
  return 0;
}

/// The measured (untraced) run. It starts with one untimed pass through the
/// traced run's re-execution, without spans: that pass reports every golden
/// output, which the measured entry points (RunPair, RunScenario) do not, so
/// every golden value is checked on every run and the access count comes
/// from the run itself. It also warms the process up. Then follow
/// repetitions of set-up samples and one timed execution, until the next
/// repetition would pass `seconds`. `setup()` returns the state `run(&state)`
/// and `observe(&state)` execute; every set-up sample starts from an empty
/// dataset cache. The host's speed is probed on `probe_cpus` while each
/// execution is timed, and every time is scaled to the reference host speed
/// (see host_speed.h); the raw times are printed with each repetition.
/// Prints the end-to-end result.
template <typename SetupFn, typename ObserveFn, typename RunFn>
int Measure(const Args& a, const GoldenVariant& g, SetupPlan plan,
            const std::vector<int>& probe_cpus, SetupFn setup,
            ObserveFn observe, RunFn run) {
  HostSpeedSampler sampler(probe_cpus);
  CheckResult check;
  double accesses = 0;
  {
    ClearDatasetCache();
    auto state = setup();
    const SimOutputs all = observe(&state);
    Accumulate(CheckAllOutputs(g.sims, all), &check);
    accesses = TotalAccesses(all);
  }
  std::vector<double> setup_s;
  std::vector<double> run_s;
  std::vector<double> per_cpu_s;
  const double start = WallNow();
  for (int rep = 0;; ++rep) {
    decltype(setup()) state;
    std::vector<double> setups;
    for (int i = 0; i < plan.samples_per_rep; ++i) {
      state = {};
      ClearDatasetCache();
      const double t0 = WallNow();
      for (int k = 0; k < plan.batch; ++k) state = setup();
      setups.push_back((WallNow() - t0) / plan.batch);
    }
    const double w0 = WallNow();
    const double c0 = CpuNow();
    sampler.Begin();
    const SimOutputs outputs = run(&state);
    const HostSpeedSection host = sampler.End();
    const double wall = WallNow() - w0;
    const double cpu = CpuNow() - c0;
    Accumulate(CheckOutputs(g.sims, outputs), &check);

    for (double s : setups) setup_s.push_back(s * host.speed);
    run_s.push_back(AtReferenceSpeed(
        wall, host.probe_cpu_s / static_cast<double>(host.cpus), host.speed));
    per_cpu_s.push_back(
        accesses / AtReferenceSpeed(cpu, host.probe_cpu_s, host.speed));
    std::printf("rep %d: %.3f s wall, %.3f s cpu, set-up %.6f s; %zu probe "
                "runs took %.3f s cpu, host speed %.3f; at reference speed "
                "%.3f s\n",
                rep, wall, cpu, setups.back(), host.runs, host.probe_cpu_s,
                host.speed, run_s.back());
    if (WallNow() - start + wall > a.seconds) break;
  }
  return PrintResult(check, {{"setup_s", Median(setup_s)},
                             {"run_s", Median(run_s)},
                             {"accesses_per_cpu_s", Median(per_cpu_s)},
                             {"peak_rss_mb", PeakRssMb()}});
}

// ---------------------------------------------------------------------------
// pair_oltp_scan

int MeasurePair(const Args& a, const GoldenVariant& g) {
  return Measure(
      a, g, kPairSetup, {PinToCurrentCpu()},
      [&g] { return BuildPairRig(g.inputs); },
      [](PairRig* rig) {
        EngineCounters ec;
        SimOutputs all;
        RunPairTraced(rig, {}, &ec, &all);
        return all;
      },
      [](PairRig* rig) { return PairOutputs(RunPairUntraced(rig)); });
}

int TracePair(const Args& a, const GoldenVariant& g) {
  CheckResult check;
  SpanRecorder rec;

  // Warm-up: a fresh process's first simulation pays page faults and
  // allocator growth that would otherwise bias the overhead figures.
  {
    ClearDatasetCache();
    PairRig rig = BuildPairRig(g.inputs);
    harness::RunPair(rig.machine.get(), rig.oltp.get(), rig.olap.get(),
                     engine::PolicyConfig{}, harness::kDefaultHorizon / 20);
  }

  // Reference: the measured code path, untraced.
  ClearDatasetCache();
  SimOutputs untraced;
  std::string untraced_report;
  double untraced_s = 0;
  {
    PairRig rig = BuildPairRig(g.inputs);
    const double t0 = WallNow();
    const harness::PairResult r = RunPairUntraced(&rig);
    untraced_s = WallNow() - t0;
    untraced = PairOutputs(r);
    untraced_report = PairReportJson(rig, r);
  }
  Accumulate(CheckOutputs(g.sims, untraced), &check);

  // Traced pass (run 1).
  ClearDatasetCache();
  EngineCounters ec;
  SimOutputs traced;
  std::string report;
  double sims_wall = 0;
  double sims_cpu = 0;
  double report_s = 0;
  int root = -1;
  PairRig rig;
  {
    ScopedSpan root_span({&rec, -1, 1}, kPairWorkload, "unattributed");
    root = root_span.id();
    {
      ScopedSpan setup(root_span.child(), "setup", "workloads");
      rig = BuildPairRig(g.inputs, setup.child());
    }
    const double w0 = WallNow();
    const double c0 = CpuNow();
    const harness::PairResult r =
        RunPairTraced(&rig, root_span.child(), &ec, &traced);
    sims_wall = WallNow() - w0;
    sims_cpu = CpuNow() - c0;
    ScopedSpan span(root_span.child(), "obs.report", "obs");
    const double t0 = WallNow();
    report = PairReportJson(rig, r);
    report_s = WallNow() - t0;
  }
  rig = PairRig{};
  CheckPass("traced", g.sims, untraced, traced, report == untraced_report,
            &check);

  // Profiled pass (run 2): the simulator's own host-cycle attribution.
  ClearDatasetCache();
  EngineCounters prof_ec;
  SimOutputs profiled;
  simcache::HostCycleBreakdown breakdown;
  double profiled_s = 0;
  double hz = 0;
  {
    PairRig prig = BuildPairRig(g.inputs);
    prig.machine->hierarchy().AttachHostProfiler(&breakdown);
    harness::PairResult r;
    {
      ScopedSpan root_span({&rec, -1, 2}, "pair_oltp_scan.profiled",
                           "unattributed");
      const TickCalibration calibration;
      const double t0 = WallNow();
      r = RunPairTraced(&prig, root_span.child(), &prof_ec, &profiled);
      profiled_s = WallNow() - t0;
      hz = calibration.TicksPerSecond();
    }
    prig.machine->hierarchy().AttachHostProfiler(nullptr);
    CheckPass("profiled", g.sims, untraced, profiled,
              PairReportJson(prig, r) == untraced_report, &check);
  }
  const SimcacheProfile profile = ToSeconds({&breakdown}, hz);

  const std::vector<SelfTimeRow> rows = SelfTimes(rec.Snapshot(), root);
  Metrics v;
  AddSimcacheMetrics(traced, profile, &v);
  v["engine.step_self_s"] = std::max(0.0, prof_ec.step_s - profile.total_s);
  v["engine.source_s"] = ec.source_s;
  v["engine.tasks"] = static_cast<double>(ec.tasks);
  v["sim.steps"] = static_cast<double>(ec.steps);
  v["sim.dispatch_s"] = ec.dispatch_s;
  v["cat.group_moves"] = static_cast<double>(ec.group_moves);
  v["cat.clos_reassociations"] = static_cast<double>(ec.clos_reassociations);
  v["cat.schemata_writes"] = static_cast<double>(ec.schemata_writes);
  // The four simulations are independent cells run serially on one thread.
  double sum_cell = 0;
  double max_cell = 0;
  for (double s : ec.sim_seconds) {
    sum_cell += s;
    max_cell = std::max(max_cell, s);
  }
  v["harness.utilization"] = sims_cpu / sims_wall;
  v["harness.max_cell_s"] = max_cell;
  v["harness.sum_cell_s"] = sum_cell;
  v["storage.build_s"] = RowSeconds(rows, "storage");
  v["obs.report_json_s"] = report_s;
  v["obs.report_bytes"] = static_cast<double>(report.size());

  std::printf("\ntraced pass: simulations %.3f s vs %.3f s untraced "
              "(overhead %+.1f%%)\n",
              sims_wall, untraced_s, Overhead(sims_wall, untraced_s));
  std::printf("profiled pass: simulations %.3f s (overhead %+.1f%%)\n",
              profiled_s, Overhead(profiled_s, untraced_s));
  std::printf("\nper-layer self time, traced pass (1 host thread):\n");
  PrintSelfTimes(rows, rec.Duration(root));
  std::printf("\nsimcache host-cycle split, profiled pass:\n");
  PrintProfile(profile, profiled_s);
  std::printf("  Step calls %.3f s = simcache %.3f s + operator logic %.3f s\n",
              prof_ec.step_s, profile.total_s, v["engine.step_self_s"]);
  WriteSpans(a, rec);
  return PrintResult(check, v);
}

// ---------------------------------------------------------------------------
// serve_sweep

int MeasureServe(const Args& a, const GoldenVariant& g, unsigned threads) {
  plan::ExecOptions exec;
  exec.jobs = threads;
  return Measure(
      a, g, kServeSetup, AllowedCpus(),
      [&a, &g] {
        plan::Scenario scenario;
        CheckOk(LoadServeScenario(a.scenario, g.inputs, &scenario),
                a.scenario);
        return scenario;
      },
      [threads](plan::Scenario* scenario) {
        ServeCells cells;
        RunServeCells(*scenario, threads, /*smoke=*/false, /*profile=*/false,
                      {}, &cells);
        return cells.outputs;
      },
      [&exec](plan::Scenario* scenario) {
        plan::ScenarioRunResult result;
        CheckOk(plan::RunScenario(*scenario, exec, &result), "RunScenario");
        const std::string report = result.runner->report().Json();
        CATDB_CHECK(!report.empty());
        return ServeOutputs(*scenario, result.serving);
      });
}

int TraceServe(const Args& a, const GoldenVariant& g, unsigned threads) {
  CheckResult check;
  SpanRecorder rec;
  plan::Scenario scenario;
  CheckOk(LoadServeScenario(a.scenario, g.inputs, &scenario), a.scenario);
  plan::ExecOptions exec;
  exec.jobs = threads;

  // Warm-up at the smoke configuration (see TracePair).
  {
    plan::ExecOptions smoke = exec;
    smoke.smoke = true;
    plan::ScenarioRunResult result;
    CheckOk(plan::RunScenario(scenario, smoke, &result), "RunScenario");
  }

  // Reference: the measured code path, untraced.
  SimOutputs untraced;
  std::string untraced_report;
  double untraced_s = 0;
  {
    plan::ScenarioRunResult result;
    const double t0 = WallNow();
    CheckOk(plan::RunScenario(scenario, exec, &result), "RunScenario");
    untraced_report = result.runner->report().Json();
    untraced_s = WallNow() - t0;
    untraced = ServeOutputs(scenario, result.serving);
  }
  Accumulate(CheckOutputs(g.sims, untraced), &check);

  // Traced pass (run 1). Serial phases hold every host thread.
  plan::Scenario parsed;  // outlives `cells`, whose runner refers to it
  ServeCells cells;
  std::string report;
  double parse_s = 0;
  double sweep_s = 0;
  double sweep_cpu = 0;
  double report_s = 0;
  int root = -1;
  {
    ScopedSpan root_span({&rec, -1, 1}, kServeWorkload, "unattributed",
                         threads);
    root = root_span.id();
    {
      ScopedSpan span(root_span.child(), "plan.parse", "plan", threads);
      const double t0 = WallNow();
      CheckOk(LoadServeScenario(a.scenario, g.inputs, &parsed), a.scenario);
      parse_s = WallNow() - t0;
    }
    {
      ScopedSpan span(root_span.child(), "harness.sweep",
                      "harness (pool, idle threads)", threads);
      const double w0 = WallNow();
      const double c0 = CpuNow();
      RunServeCells(parsed, threads, /*smoke=*/false, /*profile=*/false,
                    span.child(), &cells);
      sweep_s = WallNow() - w0;
      sweep_cpu = CpuNow() - c0;
    }
    ScopedSpan span(root_span.child(), "obs.report", "obs", threads);
    const double t0 = WallNow();
    report = cells.runner->report().Json();
    report_s = WallNow() - t0;
  }
  CheckPass("traced", g.sims, untraced, cells.outputs,
            report == untraced_report, &check);

  // Profiled pass (run 2).
  ServeCells prof;
  double profiled_s = 0;
  double hz = 0;
  {
    ScopedSpan root_span({&rec, -1, 2}, "serve_sweep.profiled",
                         "unattributed", threads);
    const TickCalibration calibration;
    const double t0 = WallNow();
    RunServeCells(scenario, threads, /*smoke=*/false, /*profile=*/true,
                  root_span.child(), &prof);
    profiled_s = WallNow() - t0;
    hz = calibration.TicksPerSecond();
  }
  CheckPass("profiled", g.sims, untraced, prof.outputs,
            prof.runner->report().Json() == untraced_report, &check);
  std::vector<const simcache::HostCycleBreakdown*> breakdowns;
  double profiled_cells_s = 0;
  for (const ServeCellTrace& c : prof.cells) {
    breakdowns.push_back(&c.profile);
    profiled_cells_s += c.seconds;
  }
  const SimcacheProfile profile = ToSeconds(breakdowns, hz);

  const std::vector<SelfTimeRow> rows = SelfTimes(rec.Snapshot(), root);
  Metrics v;
  AddSimcacheMetrics(cells.outputs, profile, &v);
  double sum_cell = 0;
  double max_cell = 0;
  double completed = 0;
  double intervals = 0;
  double moves = 0;
  double reassociations = 0;
  double schemata = 0;
  for (const ServeCellTrace& c : cells.cells) {
    v["serve.cell_s." + c.policy] += c.seconds;
    sum_cell += c.seconds;
    max_cell = std::max(max_cell, c.seconds);
    completed += static_cast<double>(c.completed);
    intervals += static_cast<double>(c.intervals);
    moves += static_cast<double>(c.group_moves);
    reassociations += static_cast<double>(c.clos_reassociations);
    schemata += static_cast<double>(c.schemata_writes);
  }
  v["serve.completed"] = completed;
  v["policy.intervals"] = intervals;
  v["cat.group_moves"] = moves;
  v["cat.clos_reassociations"] = reassociations;
  v["cat.schemata_writes"] = schemata;
  v["harness.utilization"] = sweep_cpu / (sweep_s * threads);
  v["harness.max_cell_s"] = max_cell;
  v["harness.sum_cell_s"] = sum_cell;
  v["plan.parse_s"] = parse_s;
  v["obs.report_json_s"] = report_s;
  v["obs.report_bytes"] = static_cast<double>(report.size());

  std::printf("\ntraced pass: sweep + report %.3f s vs %.3f s untraced "
              "(overhead %+.1f%%)\n",
              sweep_s + report_s, untraced_s,
              Overhead(sweep_s + report_s, untraced_s));
  std::printf("profiled pass: sweep %.3f s (overhead %+.1f%%)\n", profiled_s,
              Overhead(profiled_s, untraced_s));
  std::printf("\nper-layer self time, traced pass (%u host threads; serial "
              "phases hold all of them):\n",
              threads);
  PrintSelfTimes(rows, rec.Duration(root) * threads);
  std::printf("  engine/sim Step, callback and dispatch times are not "
              "observable here: serve::ServeWorkload owns its executor; "
              "their metrics read 0\n");
  std::printf("\nsimcache host-cycle split, profiled pass (summed over "
              "cells):\n");
  PrintProfile(profile, profiled_cells_s);
  WriteSpans(a, rec);
  return PrintResult(check, v);
}

// ---------------------------------------------------------------------------
// Golden recording

bool Agree(const char* what, const SimOutputs& full, const SimOutputs& other) {
  const CheckResult r = CheckOutputs(full, other);
  for (const std::string& m : r.mismatches) {
    std::fprintf(stderr, "%s: %s\n", what, m.c_str());
  }
  return r.failed == 0;
}

int RecordGoldens(const Args& a, unsigned threads) {
  Goldens goldens;
  for (uint32_t variant = 0; variant < kVariants; ++variant) {
    std::fprintf(stderr, "recording variant %u\n", variant);
    GoldenVariant pair;
    pair.inputs = PairInputs(variant);
    {
      ClearDatasetCache();
      PairRig rig = BuildPairRig(pair.inputs);
      EngineCounters ec;
      RunPairTraced(&rig, {}, &ec, &pair.sims);
    }
    {
      ClearDatasetCache();
      PairRig rig = BuildPairRig(pair.inputs);
      if (!Agree(kPairWorkload, pair.sims,
                 PairOutputs(RunPairUntraced(&rig)))) {
        return 1;
      }
    }
    goldens[kPairWorkload].push_back(std::move(pair));

    GoldenVariant serve;
    serve.inputs = ServeInputs(variant);
    plan::Scenario scenario;
    CheckOk(LoadServeScenario(a.scenario, serve.inputs, &scenario),
            a.scenario);
    ServeCells cells;
    RunServeCells(scenario, threads, /*smoke=*/false, /*profile=*/false, {},
                  &cells);
    serve.sims = cells.outputs;
    plan::ExecOptions exec;
    exec.jobs = threads;
    plan::ScenarioRunResult result;
    CheckOk(plan::RunScenario(scenario, exec, &result), "RunScenario");
    if (!Agree(kServeWorkload, serve.sims,
               ServeOutputs(scenario, result.serving)) ||
        result.runner->report().Json() != cells.runner->report().Json()) {
      std::fprintf(stderr, "serve_sweep: rebuilt cells disagree\n");
      return 1;
    }
    goldens[kServeWorkload].push_back(std::move(serve));
  }
  FILE* f = std::fopen(a.record.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "hostbench: cannot write %s\n", a.record.c_str());
    return 1;
  }
  const std::string json = GoldensToJson(goldens);
  const bool ok = std::fputs(json.c_str(), f) >= 0;
  return std::fclose(f) == 0 && ok ? 0 : 1;
}

int Main(int argc, char** argv) {
  const Args a = ParseArgs(argc, argv);
  const unsigned threads = HostThreads();
  if (const char* why = UntimeableBuild()) {
    std::fprintf(stderr, "hostbench: refusing to time a %s build\n", why);
    return 3;
  }
  if (!a.record.empty()) return RecordGoldens(a, threads);

  const uint32_t variant = static_cast<uint32_t>(a.seed % kVariants);
  const bool pair = a.workload == kPairWorkload;
  PrintProvenance(a, variant, pair ? 1 : threads);

  Goldens goldens;
  CheckOk(LoadGoldens(a.goldens, &goldens), a.goldens);
  const auto it = goldens.find(a.workload);
  if (it == goldens.end() || it->second.size() <= variant) {
    std::fprintf(stderr, "hostbench: no golden for %s variant %u\n",
                 a.workload.c_str(), variant);
    return 2;
  }
  const GoldenVariant& golden = it->second[variant];
  if (golden.inputs != (pair ? PairInputs(variant) : ServeInputs(variant))) {
    std::fprintf(stderr, "hostbench: golden inputs of %s variant %u do not "
                 "match the benchmark's seeds\n",
                 a.workload.c_str(), variant);
    return 2;
  }
  if (pair) return a.trace ? TracePair(a, golden) : MeasurePair(a, golden);
  return a.trace ? TraceServe(a, golden, threads)
                 : MeasureServe(a, golden, threads);
}

}  // namespace
}  // namespace hostbench

int main(int argc, char** argv) { return hostbench::Main(argc, argv); }
