#ifndef CATDB_PLAN_SCENARIO_H_
#define CATDB_PLAN_SCENARIO_H_

// Scenario files (`catdb.scenario/v1`): a checked-in JSON description of one
// whole experiment — dataset parameters, query classes as operator plans,
// tenant mix / arrival config (serving), and sweep axes — executed by a
// single generic binary (bench/scenario_runner) through the executor in
// scenario_exec.h. Three sweep kinds cover the figure-bench shapes:
//
//  * latency_sweep — isolated warm-iteration latency of one plan across an
//    LLC way axis (fig04/fig05/fig06 shape),
//  * pair_sweep    — the 2-query RunPair experiment per cell
//    (fig09/fig10 shape),
//  * serving_sweep — the open-system tail-latency bench across load levels
//    and serving policies (ext_serving_tail shape).
//
// All sizes that the hand-coded benches derive from double-typed LLC ratios
// are carried as exact fractions ([num, den]); IEEE division reproduces the
// identical double, which is what keeps scenario runs byte-identical to the
// hand-coded benches.

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/partitioning_policy.h"
#include "obs/json_value.h"
#include "plan/dataset.h"
#include "plan/json_util.h"
#include "plan/plan.h"

namespace catdb::plan {

inline constexpr const char* kScenarioSchema = "catdb.scenario/v1";

enum class SweepKind : uint8_t {
  kLatency,
  kPair,
  kServing,
};

const char* SweepKindName(SweepKind kind);  // JSON spelling, "latency_sweep"

/// One column of a multi-cell latency sweep (fig05/fig06 shape): its own
/// datasets and plan, executed as a warm-iteration way sweep on one machine
/// with an explicit in-cell full-LLC baseline.
struct LatencyCellSpec {
  std::string name;  // runner cell name and report-key prefix
  /// Datasets built in this cell, in listed order (order is part of the
  /// simulated allocation sequence and therefore of byte-identity).
  std::vector<std::string> datasets;
  std::string plan;
};

struct LatencySweepSpec {
  /// Single-plan mode (fig04 shape): every way restriction is its own cell
  /// running `plan` for `iterations` on a fresh machine. Empty when `cells`
  /// is used.
  std::string plan;
  uint64_t iterations = 3;
  std::vector<uint32_t> ways;        // full axis
  std::vector<uint32_t> smoke_ways;  // --smoke axis
  /// Cell mode (fig05/fig06 shape): each entry is one independent column
  /// cell sweeping WarmIterationCycles over the way axis. Exactly one of
  /// `plan` and `cells` is set.
  std::vector<LatencyCellSpec> cells;
  /// Number of cells run under --smoke (prefix of `cells`); cell mode only.
  uint64_t smoke_cells = 1;
};

/// Optional partitioning-policy override for the pair sweep's partitioned
/// leg. Absent fields keep engine::PolicyConfig defaults ('enabled' is
/// always forced on by RunPair).
struct PairPolicySpec {
  bool has_polluting_ways = false;
  uint32_t polluting_ways = 0;
  bool has_shared_ways = false;
  uint32_t shared_ways = 0;
  bool has_adaptive_heuristic = false;
  bool adaptive_heuristic = true;
  bool has_adaptive_force_polluting = false;
  bool adaptive_force_polluting = false;
};

/// The partitioning policy of the pair sweep's partitioned leg: the
/// engine::PolicyConfig defaults with `spec`'s overrides applied.
engine::PolicyConfig PairPolicyConfig(const PairPolicySpec& spec);

struct PairCellSpec {
  std::string name;
  /// Datasets built in this cell, in listed order (order is part of the
  /// simulated allocation sequence and therefore of byte-identity).
  std::vector<std::string> datasets;
  std::string a;  // plan name of stream A
  std::string b;  // plan name of stream B
};

struct PairSweepSpec {
  uint64_t horizon = 0;
  uint64_t smoke_horizon = 0;
  /// Number of cells run under --smoke (prefix of `cells`).
  uint64_t smoke_cells = 1;
  bool has_policy = false;
  PairPolicySpec policy;
  std::vector<PairCellSpec> cells;
};

struct ServeClassSpec {
  std::string name;
  /// Must be polluting | sensitive | adaptive (a request class always has a
  /// concrete annotation; there is no operator default to fall back to).
  CuidAnnotation cuid = CuidAnnotation::kSensitive;
  uint64_t private_lines = 0;
  uint32_t passes = 1;
  uint64_t stream_lines = 0;
  uint32_t compute_per_line = 2;
  /// Estimated DRAM-side cycles per line for this class's service-time
  /// estimate (sizes the per-load interarrival gap).
  uint32_t mem_cycles_per_line = 16;
};

struct ServingSweepSpec {
  std::vector<ServeClassSpec> classes;
  /// Round-dealt class assignment: tenant t gets class
  /// class_deal[t % class_deal.size()] % classes.size().
  std::vector<uint32_t> class_deal;
  uint32_t cores = 8;
  uint64_t tenants = 0;
  uint64_t smoke_tenants = 0;
  uint64_t horizon = 0;
  uint64_t smoke_horizon = 0;
  std::vector<Fraction> loads;
  std::vector<Fraction> smoke_loads;
  std::vector<std::string> policies;  // serve::ServePolicyName spellings
  uint64_t seed_base = 0;
  uint32_t max_clusters = 8;
  uint64_t shared_region_lines = 1 << 15;
  uint64_t burst_on_cycles = 0;
  uint64_t burst_off_cycles = 0;
  uint64_t slo_p99_cycles = 0;
  Fraction max_rejected_ratio;
};

struct Scenario {
  /// Report/benchmark name ("fig04_scan_cache_size", ...). Must match the
  /// hand-coded bench's name for byte-identical reports.
  std::string benchmark;
  SweepKind kind = SweepKind::kLatency;
  std::vector<DatasetSpec> datasets;
  std::vector<Plan> plans;
  LatencySweepSpec latency;
  PairSweepSpec pair;
  ServingSweepSpec serving;
};

/// Cross-field validation (unique names, resolvable references, per-kind
/// requirements, and sizes that fit the sim::MachineConfig{} machine every
/// sweep cell runs on). Parse functions call this; the generator's output
/// is CHECK-validated with it too.
Status ValidateScenario(const Scenario& scenario);

Status ScenarioFromJson(const obs::JsonValue& v, Scenario* out);
obs::JsonValue ScenarioToJson(const Scenario& scenario);

/// Parse + validate from raw JSON text.
Status ScenarioFromText(const std::string& text, Scenario* out);
/// Serialize to the canonical pretty-printed form checked into scenarios/.
std::string ScenarioToText(const Scenario& scenario);

/// Reads a whole file into `*out` (Status error with the path on failure).
Status ReadTextFile(const std::string& path, std::string* out);

/// FNV-1a 64-bit digest — the fuzz harness's report fingerprint.
inline uint64_t Fnv1a64(const std::string& data) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace catdb::plan

#endif  // CATDB_PLAN_SCENARIO_H_
