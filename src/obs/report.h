#ifndef CATDB_OBS_REPORT_H_
#define CATDB_OBS_REPORT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "engine/coscheduler.h"
#include "engine/runner.h"
#include "obs/interval_sampler.h"
#include "obs/json.h"
#include "policy/policy_engine.h"
#include "serve/serving_engine.h"

namespace catdb::obs {

/// Schema identifier stamped into every run report (`"schema"` key), bumped
/// on incompatible layout changes.
inline constexpr const char* kReportSchema = "catdb.report/v1";

/// Serializers for the engine result structs, reusable by any writer that
/// embeds them in a larger document. Each appends one JSON value at the
/// writer's current position.
void AppendLevelStats(JsonWriter& w, const simcache::LevelStats& s);
void AppendHierarchyStats(JsonWriter& w, const simcache::HierarchyStats& s);
void AppendRunReport(JsonWriter& w, const engine::RunReport& report);
void AppendIntervalSample(JsonWriter& w, const IntervalSample& sample);
void AppendDynamicRunReport(JsonWriter& w,
                            const policy::DynamicRunReport& report);
void AppendRoundsReport(JsonWriter& w, const engine::RoundsReport& report);
void AppendPolicyRunReport(JsonWriter& w,
                           const policy::PolicyRunReport& report);
void AppendLatencySummary(JsonWriter& w, const serve::LatencySummary& s);
void AppendServingReport(JsonWriter& w, const serve::ServingRunReport& report);

/// Summary of the scenario file (src/plan/) a report was produced from:
/// recorded as a `"kind": "scenario"` result entry so a report is traceable
/// to the exact scenario description (the digest fingerprints the canonical
/// serialized text).
struct ScenarioSummary {
  std::string scenario;    // scenario/benchmark name
  std::string sweep_kind;  // "latency_sweep" | "pair_sweep" | "serving_sweep"
  uint64_t num_datasets = 0;
  uint64_t num_plans = 0;
  uint64_t num_cells = 0;  // full (non-smoke) cell count of the sweep
  std::string digest;      // "fnv1a:<16 hex>" of the canonical scenario text
};

/// Accumulates the results of one benchmark binary into a single JSON run
/// report: `{"schema": ..., "benchmark": ..., "params": {...},
/// "results": [{"name": ..., "kind": "run|dynamic|rounds|scalar", ...}]}`.
/// Each result is rendered to JSON when it is added. Used by the bench
/// binaries behind their --report-out flag.
class RunReportWriter {
 public:
  explicit RunReportWriter(std::string benchmark);

  /// Free-form string parameter recorded under "params" (configuration of
  /// the run: scale factor, horizon, policy knobs, ...).
  void AddParam(const std::string& key, const std::string& value);
  void AddParam(const std::string& key, uint64_t value);
  void AddParam(const std::string& key, double value);

  void AddRun(std::string name, const engine::RunReport& report);
  void AddDynamicRun(std::string name, const policy::DynamicRunReport& report);
  void AddRounds(std::string name, const engine::RoundsReport& report);
  void AddPolicyRun(std::string name, const policy::PolicyRunReport& report);
  void AddServingRun(std::string name, const serve::ServingRunReport& report);
  void AddScenario(std::string name, const ScenarioSummary& summary);
  void AddScalar(std::string name, double value);

  size_t num_results() const { return entries_.size(); }

  /// Appends another writer's params and result entries, in their original
  /// order, to this one (the shard is left empty). The parallel sweep
  /// harness uses this to merge per-cell report shards by cell index.
  void MergeFrom(RunReportWriter&& shard);

  /// The full report document (always a complete, syntactically valid JSON
  /// object).
  std::string Json() const;
  Status WriteFile(const std::string& path) const;

 private:
  /// One result: `{"name": name, "kind": kind, payload_key: payload}`.
  struct Entry {
    std::string name;
    const char* kind;
    const char* payload_key;
    std::string payload;  // rendered JSON value
  };

  void AddEntry(std::string name, const char* kind, const char* payload_key,
                std::string payload);

  std::string benchmark_;
  std::vector<std::pair<std::string, std::string>> params_;  // pre-rendered
  std::vector<Entry> entries_;
};

}  // namespace catdb::obs

#endif  // CATDB_OBS_REPORT_H_
