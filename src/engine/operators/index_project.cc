#include "engine/operators/index_project.h"

#include <algorithm>

#include "common/check.h"

namespace catdb::engine {

OltpBatchJob::OltpBatchJob(
    const storage::Table* table,
    const std::vector<const storage::InvertedIndex*>* key_indices,
    const std::vector<const storage::DictColumn*>* key_columns,
    const std::vector<const storage::DictColumn*>* projection,
    std::vector<uint32_t> target_rows)
    : Job("oltp_point_select", CacheUsage::kSensitive),
      table_(table),
      key_indices_(key_indices),
      key_columns_(key_columns),
      projection_(projection),
      target_rows_(std::move(target_rows)),
      codes_(key_columns_->size() + projection_->size()) {
  CATDB_CHECK(table_ != nullptr);
  CATDB_CHECK(key_indices_->size() == key_columns_->size());
}

bool OltpBatchJob::Step(sim::ExecContext& ctx) {
  if (cursor_ >= target_rows_.size()) return false;
  const uint64_t chunk_end =
      std::min<uint64_t>(target_rows_.size(), cursor_ + kQueriesPerChunk);

  const size_t num_keys = key_indices_->size();
  for (uint64_t q = cursor_; q < chunk_end; ++q) {
    const uint32_t row = target_rows_[q];
    // Host loads first: every packed code the query needs. They are
    // independent, so their host-cache misses overlap instead of each one
    // waiting behind a simulated access; the simulated reads below keep
    // their order.
    for (size_t k = 0; k < num_keys; ++k) {
      codes_[k] = (*key_columns_)[k]->GetCode(row);
    }
    for (size_t p = 0; p < projection_->size(); ++p) {
      codes_[num_keys + p] = (*projection_)[p]->GetCode(row);
    }
    // Key lookup: read the posting list of the *most selective* key index
    // (the caller orders the indices by distinct count), which pins the
    // candidate set down to a handful of rows; the remaining key indices
    // are probed via their offset arrays only, to intersect the ranges.
    for (size_t k = 0; k < num_keys; ++k) {
      if (k == 0) {
        (*key_indices_)[k]->LookupSim(ctx, codes_[k]);
      } else {
        (*key_indices_)[k]->ProbeOffsetsSim(ctx, codes_[k]);
      }
      ctx.Compute(8);
    }
    // Projection: packed-code read, then dictionary decode, per output
    // column.
    for (size_t p = 0; p < projection_->size(); ++p) {
      const storage::DictColumn* col = (*projection_)[p];
      ctx.Read(col->codes().SimAddrOf(row));
      col->dict().DecodeSim(ctx, codes_[num_keys + p]);
      ctx.Compute(4);
    }
    ctx.Instructions(40 + 12 * projection_->size());
  }
  TouchScratch(ctx, 1);
  AddWork(ctx, chunk_end - cursor_);
  cursor_ = chunk_end;
  return cursor_ < target_rows_.size();
}

OltpQuery::OltpQuery(const storage::Table* table,
                     std::vector<std::string> key_columns,
                     std::vector<std::string> projection_columns,
                     uint32_t batch_size, uint64_t seed)
    : Query("S4/oltp_point_select"),
      table_(table),
      batch_size_(batch_size),
      rng_(seed) {
  CATDB_CHECK(table_ != nullptr);
  CATDB_CHECK(batch_size_ >= 1);
  // Order the key columns by distinct count, most selective first: the
  // point-lookup path reads the full posting list only of indices_[0].
  std::sort(key_columns.begin(), key_columns.end(),
            [this](const std::string& a, const std::string& b) {
              return table_->GetColumn(a)->dict().size() >
                     table_->GetColumn(b)->dict().size();
            });
  for (const std::string& name : key_columns) {
    const storage::DictColumn* col = table_->GetColumn(name);
    CATDB_CHECK(col != nullptr);
    key_columns_.push_back(col);
    indices_storage_.push_back(storage::InvertedIndex::Build(*col));
  }
  for (const auto& index : indices_storage_) indices_.push_back(&index);
  for (const std::string& name : projection_columns) {
    const storage::DictColumn* col = table_->GetColumn(name);
    CATDB_CHECK(col != nullptr);
    projection_.push_back(col);
  }
}

void OltpQuery::MakePhaseJobs(uint32_t phase, uint32_t num_workers,
                              std::vector<std::unique_ptr<Job>>* out) {
  CATDB_CHECK(phase == 0);
  last_workers_ = num_workers;
  for (uint32_t w = 0; w < num_workers; ++w) {
    std::vector<uint32_t> rows(batch_size_);
    for (auto& r : rows) {
      r = static_cast<uint32_t>(rng_.Uniform(table_->num_rows()));
    }
    out->push_back(std::make_unique<OltpBatchJob>(
        table_, &indices_, &key_columns_, &projection_, std::move(rows)));
  }
}

uint64_t OltpQuery::TotalWorkPerIteration() const {
  return static_cast<uint64_t>(last_workers_ == 0 ? 1 : last_workers_) *
         batch_size_;
}

void OltpQuery::AttachSim(sim::Machine* machine) {
  CATDB_CHECK(machine != nullptr);
  for (const auto* col : key_columns_) CATDB_CHECK(col->attached());
  for (const auto* col : projection_) CATDB_CHECK(col->attached());
  for (auto& index : indices_storage_) {
    if (!index.attached()) index.AttachSim(machine);
  }
}

uint64_t OltpQuery::WorkingSetBytes() const {
  uint64_t total = 0;
  for (const auto& index : indices_storage_) total += index.SizeBytes();
  for (const auto* col : projection_) total += col->dict().SizeBytes();
  return total;
}

}  // namespace catdb::engine
