#ifndef CATDB_ENGINE_COSCHEDULER_H_
#define CATDB_ENGINE_COSCHEDULER_H_

#include <cstdint>
#include <vector>

#include "engine/partitioning_policy.h"
#include "engine/query.h"
#include "engine/runner.h"
#include "sim/machine.h"

namespace catdb::engine {

/// Cache-aware batch co-scheduling — the paper's concluding outlook
/// (Section VIII): "it might be advisable to co-run operators with high
/// cache pollution characteristics, but let cache-sensitive queries rather
/// run alone". Given a batch of queries with known cache behaviour, the
/// planner forms execution rounds:
///
///  * two cache-polluting queries may share the machine (neither owns a
///    cache working set the other could destroy — they only split
///    bandwidth);
///  * a leftover polluter may join a cache-sensitive query *under CAT*
///    (the partitioning policy confines the polluter);
///  * cache-sensitive queries never share with each other — they run alone
///    with all cores.
struct BatchItem {
  Query* query = nullptr;
  /// Dominant cache behaviour of the query (as profiled offline or taken
  /// from its operators' CUIDs).
  CacheUsage usage = CacheUsage::kSensitive;
  /// Iterations this batch item must complete.
  uint64_t iterations = 1;
};

/// One execution round: indices into the batch, run concurrently (size 1 or
/// 2; a size-1 round gets all cores).
struct Round {
  std::vector<size_t> items;
};

/// Plans rounds under the cache-aware rule above. Deterministic: preserves
/// batch order within each class.
std::vector<Round> PlanCacheAwareRounds(const std::vector<BatchItem>& batch);

/// Baseline: pair queries first-come-first-served regardless of class.
std::vector<Round> PlanFifoRounds(const std::vector<BatchItem>& batch);

/// Cores granted to the *first* item of a two-item round on a machine with
/// `num_cores` cores (the second item gets the rest). For odd core counts
/// the extra core alternates with the round index, so neither batch
/// position is systematically favoured across rounds. Exposed for tests.
uint32_t RoundCoreSplit(uint32_t num_cores, size_t round_index);

/// Outcome of executing a round plan: the makespan plus one RunReport per
/// round (hardware counters, per-stream throughput) for the run-report
/// export.
struct RoundsReport {
  uint64_t makespan_cycles = 0;
  std::vector<uint64_t> round_cycles;      // duration of each round
  std::vector<RunReport> round_reports;    // one per round, in order
};

/// Executes the rounds back to back on the machine (two-item rounds split
/// the cores; see RoundCoreSplit) and returns the makespan plus per-round
/// reports. `policy` applies within every round (pass enabled=true so mixed
/// rounds are CAT-protected).
RoundsReport ExecuteRoundsReport(sim::Machine* machine,
                                 const std::vector<BatchItem>& batch,
                                 const std::vector<Round>& rounds,
                                 const PolicyConfig& policy);

}  // namespace catdb::engine

#endif  // CATDB_ENGINE_COSCHEDULER_H_
