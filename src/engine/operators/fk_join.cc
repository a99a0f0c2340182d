#include "engine/operators/fk_join.h"

#include <algorithm>

#include "common/check.h"
#include "simcache/cache_geometry.h"

namespace catdb::engine {

FkJoinBuildJob::FkJoinBuildJob(const storage::RawColumn* pk_column,
                               RowRange range, storage::SimBitVector* bits)
    : Job("fk_join_build", CacheUsage::kAdaptive),
      pk_column_(pk_column),
      range_(range),
      cursor_(range.begin),
      bits_(bits) {
  CATDB_CHECK(pk_column_ != nullptr && bits_ != nullptr);
  set_adaptive_working_set(bits_->SizeBytes());
}

bool FkJoinBuildJob::Step(sim::ExecContext& ctx) {
  if (cursor_ >= range_.end) return false;
  const uint64_t chunk_end = std::min(range_.end, cursor_ + kRowsPerChunk);

  // The key column streams: charge the chunk's fresh key lines as one
  // batched run up-front, then walk the rows host-side.
  pk_column_->ReadRunSim(ctx, cursor_, chunk_end, &last_key_line_);
  for (uint64_t i = cursor_; i < chunk_end; ++i) {
    const int32_t key = pk_column_->Get(i);
    const uint64_t bit = static_cast<uint64_t>(key) - 1;
    const int64_t bit_line = static_cast<int64_t>(
        bits_->SimAddrOfBit(bit) / simcache::kLineSize);
    if (bit_line != last_bit_line_) {
      ctx.Write(bits_->SimAddrOfBit(bit));
      last_bit_line_ = bit_line;
    }
    bits_->Set(bit);
  }
  ctx.Compute((chunk_end - cursor_) * 2);
  ctx.Instructions((chunk_end - cursor_) * 6);
  TouchScratch(ctx, 1);

  AddWork(ctx, chunk_end - cursor_);
  cursor_ = chunk_end;
  return cursor_ < range_.end;
}

FkJoinProbeJob::FkJoinProbeJob(const storage::RawColumn* fk_column,
                               RowRange range,
                               const storage::SimBitVector* bits,
                               uint64_t* result_sink)
    : Job("fk_join_probe", CacheUsage::kAdaptive),
      fk_column_(fk_column),
      range_(range),
      cursor_(range.begin),
      bits_(bits),
      result_sink_(result_sink) {
  CATDB_CHECK(fk_column_ != nullptr && bits_ != nullptr);
  set_adaptive_working_set(bits_->SizeBytes());
}

bool FkJoinProbeJob::Step(sim::ExecContext& ctx) {
  if (cursor_ >= range_.end) return false;
  const uint64_t chunk_end = std::min(range_.end, cursor_ + kRowsPerChunk);

  // Batched read of the chunk's fresh foreign-key lines; the bit-vector
  // probes below stay scalar (random order).
  fk_column_->ReadRunSim(ctx, cursor_, chunk_end, &last_key_line_);
  for (uint64_t i = cursor_; i < chunk_end; ++i) {
    const int32_t key = fk_column_->Get(i);
    // Random membership probe into the bit vector.
    if (bits_->TestSim(ctx, static_cast<uint64_t>(key) - 1)) ++matches_;
    ctx.Compute(3);
  }
  ctx.Instructions((chunk_end - cursor_) * 8);
  TouchScratch(ctx, 1);

  AddWork(ctx, chunk_end - cursor_);
  cursor_ = chunk_end;
  if (cursor_ >= range_.end) {
    if (result_sink_ != nullptr) *result_sink_ += matches_;
    return false;
  }
  return true;
}

FkJoinQuery::FkJoinQuery(const storage::RawColumn* pk_column,
                         const storage::RawColumn* fk_column,
                         uint32_t key_count)
    : Query("Q3/fk_join"),
      pk_column_(pk_column),
      fk_column_(fk_column),
      bits_(key_count) {
  CATDB_CHECK(pk_column_ != nullptr && fk_column_ != nullptr);
  CATDB_CHECK(pk_column_->size() == key_count);
}

void FkJoinQuery::MakePhaseJobs(uint32_t phase, uint32_t num_workers,
                                std::vector<std::unique_ptr<Job>>* out) {
  if (phase == 0) {
    result_ = 0;
    bits_.ClearAll();
    for (const RowRange& range :
         PartitionRows(pk_column_->size(), num_workers)) {
      out->push_back(
          std::make_unique<FkJoinBuildJob>(pk_column_, range, &bits_));
    }
    return;
  }
  CATDB_CHECK(phase == 1);
  for (const RowRange& range :
       PartitionRows(fk_column_->size(), num_workers)) {
    out->push_back(
        std::make_unique<FkJoinProbeJob>(fk_column_, range, &bits_, &result_));
  }
}

void FkJoinQuery::AttachSim(sim::Machine* machine) {
  CATDB_CHECK(machine != nullptr);
  CATDB_CHECK(pk_column_->attached() && fk_column_->attached());
  if (!bits_.attached()) bits_.AttachSim(machine);
}

}  // namespace catdb::engine
