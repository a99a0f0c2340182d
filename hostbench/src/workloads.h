#ifndef HOSTBENCH_WORKLOADS_H_
#define HOSTBENCH_WORKLOADS_H_

// The benchmark's two workloads, driven through catdb's public entry points.
//
//  * pair_oltp_scan — harness::RunPair on the fig01 shape: the S/4HANA OLTP
//    point projection on cores 0-3 against the polluting column scan on
//    cores 4-7, isolated, concurrent, and concurrent under the static CUID
//    policy. Serial; dominated by point reads through Machine::Access.
//  * serve_sweep — plan::RunScenario on the ext_serving_tail scenario (5
//    offered loads x 4 serving policies, 64 tenants on 8 simulated cores)
//    across the host's threads, then the merged report's serialization.
//    Its accesses are AccessRun lines; the default input has no point reads.
//
// Each workload has kVariants input variants selected by the benchmark
// seed; variant 0 is the paper-figure input, the others are held out.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/operators/column_scan.h"
#include "goldens.h"
#include "harness/experiments.h"
#include "harness/sweep_runner.h"
#include "plan/scenario.h"
#include "plan/scenario_exec.h"
#include "sim/machine.h"
#include "simcache/host_profile.h"
#include "spans.h"
#include "workloads/micro.h"
#include "workloads/s4hana.h"

namespace hostbench {

inline constexpr uint32_t kVariants = 4;
inline constexpr const char* kPairWorkload = "pair_oltp_scan";
inline constexpr const char* kServeWorkload = "serve_sweep";

using Inputs = std::map<std::string, uint64_t>;

/// Empties storage::DatasetCache, so the next set-up pays dataset
/// generation the way every fresh bench process does.
void ClearDatasetCache();

// ---------------------------------------------------------------------------
// pair_oltp_scan

/// Seeds of a variant: the ACDOCA table, the scan column, the OLTP query and
/// the scan query. Variant 0 is fig01's (9100 / 11 / 12 / 13).
Inputs PairInputs(uint32_t variant);

struct PairRig {
  std::unique_ptr<catdb::sim::Machine> machine;
  std::unique_ptr<catdb::workloads::AcdocaData> acdoca;
  std::unique_ptr<catdb::workloads::ScanDataset> scan;
  std::unique_ptr<catdb::engine::OltpQuery> oltp;
  std::unique_ptr<catdb::engine::ColumnScanQuery> olap;
};

/// Builds the fig01 machine, datasets and queries, spanning each build step.
PairRig BuildPairRig(const Inputs& inputs, const TraceCtx& trace = {});

/// harness::RunPair with the paper's static CUID policy.
catdb::harness::PairResult RunPairUntraced(PairRig* rig);

/// Outputs RunPair returns: the iterations of all four simulations and the
/// concurrent and partitioned runs' counters.
SimOutputs PairOutputs(const catdb::harness::PairResult& r);

/// The fig01 run report of `r`, serialized.
std::string PairReportJson(const PairRig& rig,
                           const catdb::harness::PairResult& r);

/// Host time and work of re-executed simulations, summed over them.
struct EngineCounters {
  double step_s = 0;       // Task::Step calls, simulated accesses included
  double source_s = 0;     // QueryStream callbacks (job building, dispatch)
  double dispatch_s = 0;   // RunUntil minus Steps and callbacks
  uint64_t steps = 0;
  uint64_t tasks = 0;      // tasks dispatched
  uint64_t group_moves = 0;
  uint64_t clos_reassociations = 0;
  uint64_t schemata_writes = 0;  // one per resource group set up
  std::vector<double> sim_seconds;  // wall time of each simulation
};

/// Re-runs RunPair's four simulations the way engine::RunWorkload runs
/// them, with Step calls and TaskSource callbacks timed, and spans each
/// simulation's layers. The result equals RunPair's; `outputs` gets every
/// simulation's counters, including the isolated runs' that RunPair drops.
catdb::harness::PairResult RunPairTraced(PairRig* rig, const TraceCtx& trace,
                                         EngineCounters* counters,
                                         SimOutputs* outputs);

// ---------------------------------------------------------------------------
// serve_sweep

/// The scenario's seed_base; variant 0 keeps the file's 9000.
Inputs ServeInputs(uint32_t variant);

/// Reads and parses the scenario file and applies the variant's seed.
catdb::Status LoadServeScenario(const std::string& path, const Inputs& inputs,
                                catdb::plan::Scenario* out);

/// Per cell: arrivals, completed, rejected, queue depth, latency
/// percentiles, clusters, LLC hit ratio and its policy's sustained load.
SimOutputs ServeOutputs(const catdb::plan::Scenario& scenario,
                        const catdb::plan::ServingOutcome& outcome);

/// Host-side record of one re-executed sweep cell.
struct ServeCellTrace {
  std::string policy;
  double seconds = 0;
  uint64_t completed = 0;
  uint64_t intervals = 0;
  uint64_t group_moves = 0;
  uint64_t clos_reassociations = 0;
  uint64_t schemata_writes = 0;  // initial group set-up plus re-programming
  catdb::simcache::HostCycleBreakdown profile;  // when profiled
};

struct ServeCells {
  /// After the run, runner->report() is byte-identical to RunScenario's.
  std::optional<catdb::harness::SweepRunner> runner;
  catdb::plan::ServingOutcome outcome;
  SimOutputs outputs;  // ServeOutputs plus each cell's hierarchy counters
  std::vector<ServeCellTrace> cells;
};

/// Re-executes the serving sweep outside RunScenario: every cell runs
/// through harness::SweepRunner and serve::ServeWorkload on a ServeConfig
/// rebuilt from the parsed scenario, under a span of its own. With
/// `profile`, each cell's hierarchy carries a host-cycle profiler.
void RunServeCells(const catdb::plan::Scenario& scenario, unsigned jobs,
                   bool smoke, bool profile, const TraceCtx& trace,
                   ServeCells* out);

}  // namespace hostbench

#endif  // HOSTBENCH_WORKLOADS_H_
