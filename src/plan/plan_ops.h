#ifndef CATDB_PLAN_PLAN_OPS_H_
#define CATDB_PLAN_PLAN_OPS_H_

// Plan-only operators with no hand-coded bench counterpart: a
// dictionary-decoding projection and a synthetic private-working-set
// operator. Both follow the streaming-operator charging conventions of the
// engine operators (batched ReadRuns, per-chunk scratch touches).

#include <cstdint>

#include "engine/job.h"
#include "engine/row_partition.h"
#include "storage/dict_column.h"

namespace catdb::plan {

/// Materializes a slice of a dictionary-encoded column: streams the packed
/// codes and decodes every row through the dictionary. Unlike the scan
/// (pure streaming, polluting), the repeated dictionary lookups give the
/// projection a re-used working set — the paper's cache-sensitive profile.
class ProjectJob : public engine::Job {
 public:
  ProjectJob(const storage::DictColumn* column, engine::RowRange range,
             uint64_t rows_per_chunk = kDefaultRowsPerChunk);

  bool Step(sim::ExecContext& ctx) override;

  static constexpr uint64_t kDefaultRowsPerChunk = 1024;

 private:
  const storage::DictColumn* column_;
  engine::RowRange range_;
  uint64_t cursor_;
  uint64_t rows_per_chunk_;
  int64_t last_line_ = -1;
};

/// Synthetic operator that re-touches the worker's private scratch region:
/// `chunks` steps, each touching `lines_per_chunk` scratch lines and
/// spending `compute_per_line` cycles per line. Gives generated plans a
/// tunable private working set without any dataset.
class ScratchTouchJob : public engine::Job {
 public:
  ScratchTouchJob(engine::CacheUsage cuid, uint64_t lines_per_chunk,
                  uint64_t chunks, uint32_t compute_per_line);

  bool Step(sim::ExecContext& ctx) override;

 private:
  uint64_t lines_per_chunk_;
  uint64_t chunks_left_;
  uint32_t compute_per_line_;
};

}  // namespace catdb::plan

#endif  // CATDB_PLAN_PLAN_OPS_H_
