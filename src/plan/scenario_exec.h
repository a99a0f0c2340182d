#ifndef CATDB_PLAN_SCENARIO_EXEC_H_
#define CATDB_PLAN_SCENARIO_EXEC_H_

// Generic scenario executor: runs a Scenario (scenario.h) through the
// parallel sweep harness using the same experiment primitives
// (harness/experiments.h) as the hand-coded figure benches. The contract is
// byte-identity: a bench main that calls RunScenario with a builtin scenario
// and bench/scenario_runner loading the equivalent checked-in JSON produce
// the same catdb.report/v1 bytes at any --jobs value.
//
// RunScenario fills a ScenarioRunResult with both the merged report (via the
// embedded SweepRunner) and the per-cell raw outcomes, so bench mains can
// keep printing their paper-style stdout tables unchanged.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/runner.h"
#include "harness/experiments.h"
#include "harness/sweep_runner.h"
#include "obs/report.h"
#include "plan/scenario.h"

namespace catdb::plan {

struct ExecOptions {
  unsigned jobs = 1;
  bool smoke = false;
  bool tracing = false;
};

/// Latency sweep. Single-plan mode fills `cells` (one entry per way
/// restriction; the baseline cell is separate). Cell mode fills `columns`
/// (one entry per scenario cell actually run, in scenario order; each with
/// its own in-cell full-LLC baseline).
struct LatencyOutcome {
  std::vector<uint32_t> ways;  // the axis actually run (smoke or full)
  double baseline_cycles = 0;  // warm iteration at the full LLC
  struct Cell {
    double cycles = 0;
    engine::RunReport rep;
  };
  std::vector<Cell> cells;  // parallel to `ways`
  struct ColumnCell {
    std::string name;
    double full_cycles = 0;    // in-cell full-LLC baseline
    std::vector<double> norm;  // normalized throughput, parallel to `ways`
  };
  std::vector<ColumnCell> columns;
};

/// Pair sweep: one PairResult per cell actually run (smoke prefix or all),
/// in scenario order.
struct PairOutcome {
  std::vector<std::string> cell_names;
  std::vector<harness::PairResult> results;
};

/// Serving sweep: cells in (load-major, policy-minor) order plus the
/// sustained-load summary per policy.
struct ServingOutcome {
  struct Cell {
    uint64_t arrivals = 0;
    uint64_t completed = 0;
    uint64_t rejected = 0;
    uint64_t max_queue_depth = 0;
    uint64_t p50 = 0;
    uint64_t p95 = 0;
    uint64_t p99 = 0;
    uint32_t num_clusters = 0;
    double llc_hit_ratio = 0;

    double rejected_ratio() const {
      return arrivals == 0 ? 0.0
                           : static_cast<double>(rejected) / arrivals;
    }
  };
  std::vector<Fraction> loads;  // the load axis actually run
  uint64_t tenants = 0;
  uint64_t horizon = 0;
  std::vector<Cell> cells;        // loads.size() x policies.size()
  std::vector<bool> meets_slo;    // parallel to `cells`
  std::vector<double> sustained;  // per policy, in scenario policy order
};

struct ScenarioRunResult {
  /// The sweep runner after Run(); result->runner->report() is the merged
  /// report to hand to bench::FinishSweepBench.
  std::optional<harness::SweepRunner> runner;
  LatencyOutcome latency;
  PairOutcome pair;
  ServingOutcome serving;
};

/// Appends the scenario's summary entry ("kind": "scenario") to `report`:
/// name, sweep kind, dataset/plan/cell counts and the FNV-1a digest of the
/// canonical serialized text. Derived from the scenario alone (full cell
/// count, not the smoke subset), so every run of one scenario carries the
/// same section.
void AddScenarioSection(obs::RunReportWriter* report,
                        const Scenario& scenario);

/// Validates and executes `scenario`, filling `*result`. The merged report
/// ends with the scenario summary section.
Status RunScenario(const Scenario& scenario, const ExecOptions& opts,
                   ScenarioRunResult* result);

}  // namespace catdb::plan

#endif  // CATDB_PLAN_SCENARIO_EXEC_H_
