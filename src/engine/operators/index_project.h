#ifndef CATDB_ENGINE_OPERATORS_INDEX_PROJECT_H_
#define CATDB_ENGINE_OPERATORS_INDEX_PROJECT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "engine/job.h"
#include "engine/query.h"
#include "storage/inverted_index.h"
#include "storage/table.h"

namespace catdb::engine {

/// One batch of OLTP point queries against a wide table (the S/4HANA
/// workload of Section VI-E): each point query probes the inverted indices
/// of the key columns to locate a row, then projects `k` payload columns —
/// one packed-code read plus one dictionary decode per column. The OLTP
/// query's working set is therefore the key indices plus the projected
/// columns' dictionaries, which is what a concurrent scan pollutes.
class OltpBatchJob : public Job {
 public:
  /// Executes `batch_size` point queries drawn from `row_seeds` (precomputed
  /// random target rows, so concurrent runs are reproducible).
  OltpBatchJob(const storage::Table* table,
               const std::vector<const storage::InvertedIndex*>* key_indices,
               const std::vector<const storage::DictColumn*>* key_columns,
               const std::vector<const storage::DictColumn*>* projection,
               std::vector<uint32_t> target_rows);

  bool Step(sim::ExecContext& ctx) override;

  static constexpr uint64_t kQueriesPerChunk = 8;

 private:
  const storage::Table* table_;
  const std::vector<const storage::InvertedIndex*>* key_indices_;
  const std::vector<const storage::DictColumn*>* key_columns_;
  const std::vector<const storage::DictColumn*>* projection_;
  std::vector<uint32_t> target_rows_;
  uint64_t cursor_ = 0;
  // One query's packed codes: key columns, then projected columns.
  std::vector<uint32_t> codes_;
};

/// The OLTP query stream: one phase per iteration, one batch job per worker.
/// An "iteration" completes when every worker finished its batch; throughput
/// in point queries per second is iterations * workers * batch_size /
/// horizon.
class OltpQuery : public Query {
 public:
  /// `key_columns` name the (indexed) primary-key columns probed per query;
  /// `projection_columns` name the payload columns projected per query.
  OltpQuery(const storage::Table* table,
            std::vector<std::string> key_columns,
            std::vector<std::string> projection_columns, uint32_t batch_size,
            uint64_t seed);

  uint32_t num_phases() const override { return 1; }
  void MakePhaseJobs(uint32_t phase, uint32_t num_workers,
                     std::vector<std::unique_ptr<Job>>* out) override;
  uint64_t TotalWorkPerIteration() const override;
  void AttachSim(sim::Machine* machine) override;

  uint32_t batch_size() const { return batch_size_; }

  /// Simulated footprint of the query's hot working set (indices plus
  /// projected dictionaries); Section VI-E argues this size governs the
  /// query's cache sensitivity.
  uint64_t WorkingSetBytes() const;

 private:
  const storage::Table* table_;
  std::vector<const storage::DictColumn*> key_columns_;
  std::vector<const storage::DictColumn*> projection_;
  std::vector<storage::InvertedIndex> indices_storage_;
  std::vector<const storage::InvertedIndex*> indices_;
  uint32_t batch_size_;
  Rng rng_;
  uint32_t last_workers_ = 0;
};

}  // namespace catdb::engine

#endif  // CATDB_ENGINE_OPERATORS_INDEX_PROJECT_H_
