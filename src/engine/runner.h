#ifndef CATDB_ENGINE_RUNNER_H_
#define CATDB_ENGINE_RUNNER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/job_scheduler.h"
#include "engine/partitioning_policy.h"
#include "engine/query.h"
#include "sim/executor.h"
#include "sim/machine.h"
#include "simcache/cache_stats.h"

namespace catdb::engine {

/// Repeats a query's iterations on a fixed set of cores, feeding jobs to the
/// discrete-event executor and enforcing phase barriers. Implements
/// sim::TaskSource.
class QueryStream : public sim::TaskSource {
 public:
  /// `max_iterations` == 0 means unbounded (run until the horizon).
  QueryStream(Query* query, std::vector<uint32_t> cores,
              JobScheduler* scheduler, uint64_t max_iterations = 0);

  // sim::TaskSource:
  sim::Task* NextTask(uint32_t core) override;
  void TaskFinished(sim::Task* task, uint32_t core, uint64_t clock) override;
  void TaskDispatched(sim::Task* task, uint32_t core) override;

  Query* query() const { return query_; }
  const std::vector<uint32_t>& cores() const { return cores_; }

  /// Completed iterations plus the fractional progress of the one in flight.
  double Iterations() const;
  uint64_t completed_iterations() const { return completed_; }

  /// Clock at which each completed iteration finished (cycle timestamps);
  /// lets callers compute per-iteration latency for isolated sweeps.
  const std::vector<uint64_t>& iteration_end_clocks() const {
    return iteration_end_clocks_;
  }

 private:
  void StartPhase();

  Query* query_;
  std::vector<uint32_t> cores_;
  JobScheduler* scheduler_;
  uint64_t max_iterations_;

  std::vector<std::unique_ptr<Job>> jobs_;  // jobs of the current phase
  size_t next_job_ = 0;
  uint32_t running_ = 0;
  uint32_t phase_ = 0;
  bool phase_started_ = false;
  uint64_t barrier_clock_ = 0;  // max finish clock seen so far
  uint64_t completed_ = 0;
  uint64_t work_finished_this_iter_ = 0;
  std::vector<uint64_t> iteration_end_clocks_;
};

/// One concurrent query stream: the query plus the cores it owns.
struct StreamSpec {
  Query* query = nullptr;
  std::vector<uint32_t> cores;
  /// 0 = unbounded.
  uint64_t max_iterations = 0;
};

/// Per-stream outcome of a workload run.
struct StreamResult {
  std::string query_name;
  double iterations = 0;
  double iterations_per_second = 0;
  std::vector<uint64_t> iteration_end_clocks;
  /// Hardware counters of the stream's cores (summed), e.g. the per-query
  /// LLC hit ratio the paper discusses alongside Fig. 9.
  simcache::HierarchyStats stats;
};

/// Outcome of a workload run: throughput per stream plus the hardware
/// metrics the paper reports (LLC hit ratio, LLC misses per instruction).
struct RunReport {
  std::vector<StreamResult> streams;
  simcache::HierarchyStats stats;
  /// Simulated cycles the report covers (sim_seconds in cycles).
  uint64_t duration_cycles = 0;
  double sim_seconds = 0;
  double llc_hit_ratio = 0;
  double llc_mpi = 0;
  uint64_t group_moves = 0;
  uint64_t skipped_moves = 0;
  uint64_t clos_reassociations = 0;
};

/// Assembles a RunReport from finished streams: per-stream throughput over
/// `duration_cycles`, summed per-core hardware counters, machine-wide LLC
/// metrics, and the control-plane move/reassociation counts. Shared by
/// RunWorkload and the policy engine's interval loop.
RunReport CollectRunReport(
    sim::Machine* machine, const JobScheduler& scheduler,
    const std::vector<std::unique_ptr<QueryStream>>& streams,
    uint64_t duration_cycles);

/// RunWorkload's horizon for a run to completion: every stream then needs
/// an iteration budget, and the run ends when the last one is spent.
inline constexpr uint64_t kRunToCompletion = ~uint64_t{0};

/// The one run body of the engine: runs the given streams concurrently
/// under the given partitioning policy for `horizon_cycles` of simulated
/// time, or to completion when it is kRunToCompletion, and reports over the
/// horizon or up to the last stream's finish. Resets machine state (caches,
/// clocks, statistics, resctrl groups) first; simulated datasets persist.
RunReport RunWorkload(sim::Machine* machine,
                      const std::vector<StreamSpec>& specs,
                      uint64_t horizon_cycles, const PolicyConfig& policy);

/// Convenience: runs one query for exactly `iterations` iterations and
/// returns the report (streams[0].iteration_end_clocks holds the per-
/// iteration completion times). Used by the isolated cache-size sweeps of
/// Figures 4-6, which measure single-execution latency.
RunReport RunQueryIterations(sim::Machine* machine, Query* query,
                             const std::vector<uint32_t>& cores,
                             uint64_t iterations, const PolicyConfig& policy);

}  // namespace catdb::engine

#endif  // CATDB_ENGINE_RUNNER_H_
