#ifndef CATDB_BENCH_BENCH_UTIL_H_
#define CATDB_BENCH_BENCH_UTIL_H_

// Shared helpers for the figure-reproduction benchmarks. Each bench binary
// regenerates one figure/table of the paper (see DESIGN.md experiment index)
// and prints a paper-style table of normalized throughputs.

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/status.h"
#include "engine/runner.h"
#include "harness/experiments.h"
#include "harness/sweep_runner.h"
#include "harness/thread_pool.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "sim/machine.h"

namespace catdb::bench {

/// Command-line options every bench binary understands:
///   --report-out=<path>  write the JSON run report (catdb.report/v1)
///   --trace-out=<path>   enable event tracing; write Chrome trace JSON
///   --jobs=<n>           host threads for the parallel sweep harness
///                        (default: CATDB_JOBS env, else hardware
///                        concurrency; serial benches ignore it)
///   --smoke              CI mode: run one cell of each sweep at a short
///                        horizon — exercises the full pipeline in seconds
///                        (results are not meaningful as measurements)
/// Anything else, including an argument without a leading "--", is a usage
/// error: a forgotten "--report-out=" must not silently drop the report.
struct BenchOptions {
  std::string report_out;
  std::string trace_out;
  unsigned jobs = 0;  // resolved to >= 1 by ParseBenchArgs
  bool smoke = false;
};

/// Strict numeric flag parsers. Both require the full string to parse,
/// reject range errors (errno == ERANGE) instead of accepting the silently
/// clamped value — `--jobs=99999999999999999999` must fail, not run with
/// LONG_MAX — and enforce positivity. Exposed (rather than folded into
/// ParseBenchArgs) so tests can exercise them without exiting the process.
inline bool ParsePositiveUnsigned(const char* s, unsigned* out) {
  errno = 0;
  char* end = nullptr;
  const long long n = std::strtoll(s, &end, 10);
  if (end == s || *end != '\0' || errno == ERANGE || n <= 0 ||
      n > static_cast<long long>(std::numeric_limits<unsigned>::max())) {
    return false;
  }
  *out = static_cast<unsigned>(n);
  return true;
}

inline bool ParsePositiveU64(const char* s, uint64_t* out) {
  // strtoull parses a leading '-' by wrapping modulo 2^64; reject it first.
  if (s[0] == '-') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long n = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0' || errno == ERANGE || n == 0) return false;
  *out = n;
  return true;
}

/// Parses the shared flags; exits with usage on anything unrecognized.
inline BenchOptions ParseBenchArgs(int argc, char** argv) {
  BenchOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&](const char* flag) -> const char* {
      const size_t n = std::strlen(flag);
      if (arg.compare(0, n, flag) != 0) return nullptr;
      if (arg.size() > n && arg[n] == '=') return arg.c_str() + n + 1;
      return nullptr;
    };
    if (const char* v = value_of("--report-out")) {
      opts.report_out = v;
    } else if (const char* v = value_of("--trace-out")) {
      opts.trace_out = v;
    } else if (const char* v = value_of("--jobs")) {
      if (!ParsePositiveUnsigned(v, &opts.jobs)) {
        std::fprintf(stderr,
                     "--jobs expects a positive integer in range, got: %s\n",
                     v);
        std::exit(2);
      }
    } else if (arg == "--smoke") {
      opts.smoke = true;
    } else {
      std::fprintf(stderr,
                   "unknown argument: %s\n"
                   "usage: %s [--report-out=<path>] [--trace-out=<path>] "
                   "[--jobs=<n>] [--smoke]\n",
                   arg.c_str(), argv[0]);
      std::exit(2);
    }
  }
  if (opts.jobs == 0) opts.jobs = harness::ThreadPool::DefaultJobs();
  return opts;
}

/// Turns on machine tracing when --trace-out was given (before any runs).
inline void ApplyTraceOption(sim::Machine* machine,
                             const BenchOptions& opts) {
  if (!opts.trace_out.empty()) machine->EnableTracing();
}

/// Writes the report and/or the Chrome trace as requested. Call once at the
/// end of main; prints where the artifacts went. Records the job count the
/// binary ran with under the report's params.
inline void FinishBench(sim::Machine* machine, const BenchOptions& opts,
                        obs::RunReportWriter* report) {
  report->AddParam("jobs", static_cast<uint64_t>(opts.jobs));
  if (!opts.report_out.empty()) {
    const Status st = report->WriteFile(opts.report_out);
    if (!st.ok()) {
      std::fprintf(stderr, "report write failed: %s\n", st.message().c_str());
      std::exit(1);
    }
    std::printf("\nreport: %s\n", opts.report_out.c_str());
  }
  if (!opts.trace_out.empty()) {
    obs::EventTrace* trace = machine->trace();
    if (trace == nullptr) {
      std::fprintf(stderr, "trace requested but tracing was never enabled\n");
      std::exit(1);
    }
    const Status st = trace->WriteChromeTraceFile(opts.trace_out);
    if (!st.ok()) {
      std::fprintf(stderr, "trace write failed: %s\n", st.message().c_str());
      std::exit(1);
    }
    std::printf("trace:  %s (%zu events, %llu dropped)\n",
                opts.trace_out.c_str(), trace->size(),
                static_cast<unsigned long long>(trace->dropped()));
  }
}

/// Builds the parallel sweep runner for a bench binary: cells fan out
/// across --jobs host threads; per-cell tracing when --trace-out was given.
inline harness::SweepRunner MakeSweepRunner(const char* benchmark,
                                            const BenchOptions& opts) {
  harness::SweepRunner::Options o;
  o.jobs = opts.jobs;
  o.tracing = !opts.trace_out.empty();
  return harness::SweepRunner(benchmark, o);
}

/// FinishBench for SweepRunner-based benches: writes the merged report and
/// the cell-concatenated Chrome trace. Deliberately does NOT stamp the job
/// count into the report — a sweep bench's report (like its stdout) is
/// byte-identical for every --jobs value, which is the harness's
/// determinism contract (pinned by harness_test).
inline void FinishSweepBench(harness::SweepRunner* runner,
                             const BenchOptions& opts) {
  if (!opts.report_out.empty()) {
    const Status st = runner->report().WriteFile(opts.report_out);
    if (!st.ok()) {
      std::fprintf(stderr, "report write failed: %s\n", st.message().c_str());
      std::exit(1);
    }
    std::printf("\nreport: %s\n", opts.report_out.c_str());
  }
  if (!opts.trace_out.empty()) {
    const std::vector<obs::TraceEvent>& events = runner->trace_events();
    obs::EventTrace merged(events.empty() ? 1 : events.size());
    for (const obs::TraceEvent& ev : events) merged.Record(ev);
    const Status st = merged.WriteChromeTraceFile(opts.trace_out);
    if (!st.ok()) {
      std::fprintf(stderr, "trace write failed: %s\n", st.message().c_str());
      std::exit(1);
    }
    std::printf("trace:  %s (%zu events, cell-ordered)\n",
                opts.trace_out.c_str(), merged.size());
  }
}

// The experiment primitives (core split, horizons, way sweep, RunPair /
// AddPairResult, WarmIterationCycles) moved to src/harness/experiments.h so
// the scenario executor shares them; aliased here so bench code reads
// unchanged.
using harness::kCoresA;
using harness::kCoresB;
using harness::kDefaultHorizon;
using harness::kSmokeHorizon;
using harness::kWaySweep;
using harness::FullLlcWays;
using harness::PairResult;
using harness::RunPair;
using harness::AddPairResult;
using harness::WarmIterationCycles;

/// The throughput horizon a bench should use given its options.
inline uint64_t HorizonFor(const BenchOptions& opts) {
  return opts.smoke ? kSmokeHorizon : kDefaultHorizon;
}

/// Pretty-printing helpers.
inline void PrintRule(int width) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

inline std::string WaysLabel(const sim::Machine& machine, uint32_t ways) {
  const auto& llc = machine.config().hierarchy.llc;
  const double mib = static_cast<double>(llc.CapacityBytes()) * ways /
                     llc.num_ways / (1024.0 * 1024.0);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%2u ways (%.2f MiB)", ways, mib);
  return buf;
}

}  // namespace catdb::bench

#endif  // CATDB_BENCH_BENCH_UTIL_H_
