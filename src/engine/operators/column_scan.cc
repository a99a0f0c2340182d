#include "engine/operators/column_scan.h"

#include <algorithm>

#include "common/check.h"
#include "simcache/cache_geometry.h"

namespace catdb::engine {

ColumnScanJob::ColumnScanJob(const storage::DictColumn* column,
                             RowRange range, uint32_t threshold_code,
                             bool compute_result, uint64_t* result_sink,
                             uint64_t rows_per_chunk)
    : ColumnScanJob(column, range,
                    threshold_code == ~uint32_t{0} ? ~uint32_t{0}
                                                   : threshold_code + 1,
                    ~uint32_t{0}, compute_result, result_sink,
                    rows_per_chunk) {}

ColumnScanJob::ColumnScanJob(const storage::DictColumn* column,
                             RowRange range, uint32_t lo_code,
                             uint32_t hi_code, bool compute_result,
                             uint64_t* result_sink, uint64_t rows_per_chunk)
    : Job("column_scan", CacheUsage::kPolluting),
      column_(column),
      range_(range),
      cursor_(range.begin),
      lo_code_(lo_code),
      hi_code_(hi_code),
      compute_result_(compute_result),
      result_sink_(result_sink),
      rows_per_chunk_(rows_per_chunk) {
  CATDB_CHECK(column_ != nullptr);
  CATDB_CHECK(rows_per_chunk_ > 0);
}

bool ColumnScanJob::Step(sim::ExecContext& ctx) {
  if (cursor_ >= range_.end) return false;
  const uint64_t chunk_end = std::min(range_.end, cursor_ + rows_per_chunk_);
  const storage::BitPackedVector& codes = column_->codes();

  // Charge the packed-code lines this chunk touches as one batched run
  // (same lines, same order as the old per-line loop).
  const uint64_t lines = codes.ReadRunSim(ctx, cursor_, chunk_end, &last_line_);

  ctx.Compute(lines * kCyclesPerLine);
  ctx.Instructions(lines * 16);
  TouchScratch(ctx, 2);

  if (compute_result_) {
    for (uint64_t i = cursor_; i < chunk_end; ++i) {
      const uint32_t code = codes.Get(i);
      if (code >= lo_code_ && code <= hi_code_) ++matches_;
    }
  }

  AddWork(ctx, chunk_end - cursor_);
  cursor_ = chunk_end;
  if (cursor_ >= range_.end) {
    if (result_sink_ != nullptr) *result_sink_ += matches_;
    return false;
  }
  return true;
}

ColumnScanQuery::ColumnScanQuery(const storage::DictColumn* column,
                                 uint64_t seed, bool compute_results,
                                 uint64_t rows_per_chunk)
    : Query("Q1/column_scan"),
      column_(column),
      rng_(seed),
      compute_results_(compute_results),
      rows_per_chunk_(rows_per_chunk) {
  CATDB_CHECK(column_ != nullptr);
}

void ColumnScanQuery::MakePhaseJobs(uint32_t phase, uint32_t num_workers,
                                    std::vector<std::unique_ptr<Job>>* out) {
  CATDB_CHECK(phase == 0);
  result_ = 0;
  // Fresh random predicate parameter, mapped onto the code domain via the
  // order-preserving dictionary (the scan never touches the dictionary at
  // execution time).
  const uint32_t threshold =
      static_cast<uint32_t>(rng_.Uniform(column_->dict().size()));
  for (const RowRange& range : PartitionRows(column_->size(), num_workers)) {
    out->push_back(std::make_unique<ColumnScanJob>(
        column_, range, threshold, compute_results_, &result_,
        rows_per_chunk_));
  }
}

void ColumnScanQuery::AttachSim(sim::Machine* machine) {
  // Datasets are attached by workload setup (they may be shared between
  // queries); the scan owns no auxiliary structures.
  (void)machine;
  CATDB_CHECK(column_->attached());
}

}  // namespace catdb::engine
