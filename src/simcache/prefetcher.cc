#include "simcache/prefetcher.h"

#include <algorithm>

#include "common/check.h"
#include "simcache/cache_geometry.h"

namespace catdb::simcache {

StreamPrefetcher::StreamPrefetcher(const PrefetcherConfig& config)
    : config_(config) {
  CATDB_CHECK(config_.num_streams >= 1);
  CATDB_CHECK(config_.num_streams <= kMaxStreams);
  CATDB_CHECK(config_.trigger_run >= 1);
  heads_.resize(config_.num_streams);
  stamps_.resize(config_.num_streams);
  next_prefetch_.assign(config_.num_streams, 0);
  run_length_.assign(config_.num_streams, 0);
  Reset();
}

void StreamPrefetcher::BeginRun(uint64_t first_line, uint64_t last_line,
                                std::vector<uint64_t>* out) {
  if (!config_.enabled) return;
  run_collisions_.clear();
  run_collision_idx_ = 0;
  // The first line acts exactly like OnDemandAccess — head re-access beats
  // extension beats new-stream allocation — but its scan is fused with the
  // collision collection: candidate heads in (first_line, last_line] are
  // gathered in the same pass over the head run. A run happens once per
  // many lines, so this stays a scalar fused walk rather than four probes.
  // Whatever the first line's action, it leaves exactly one stream whose
  // head equals first_line — the run cursor. Only the live slots
  // [0, live_) are walked.
  const uint32_t live = live_;
  int head_match = -1;
  int extend = -1;
  uint64_t oldest = ~uint64_t{0};
  for (uint32_t i = 0; i < live; ++i) {
    const uint64_t head = heads_[i];
    if (head == first_line) {
      head_match = static_cast<int>(i);
    } else if (head > first_line && head <= last_line) {
      run_collisions_.push_back(i);
    }
    if (first_line == head + 1) extend = static_cast<int>(i);
    if (stamps_[i] < oldest) oldest = stamps_[i];
  }

  if (head_match >= 0) {
    // Re-access of a stream head: refresh recency, nothing to prefetch.
    stamps_[static_cast<uint32_t>(head_match)] =
        NextStamp(static_cast<uint32_t>(head_match));
    run_cursor_ = head_match;
  } else if (extend >= 0) {
    ExtendStream(static_cast<uint32_t>(extend), first_line, out);
    run_cursor_ = extend;
  } else {
    // New stream: claim the first free slot, else evict the LRU stream. A
    // victim whose frozen head fell inside the run range was collected as a
    // collision candidate above; reallocation makes it the cursor instead.
    const uint32_t victim = live < config_.num_streams
                                ? live
                                : static_cast<uint32_t>(
                                      way_scan::StampWay(oldest));
    if (victim < live && heads_[victim] > first_line &&
        heads_[victim] <= last_line) {
      run_collisions_.erase(std::find(run_collisions_.begin(),
                                      run_collisions_.end(), victim));
    }
    Allocate(victim, first_line);
    run_cursor_ = static_cast<int>(victim);
  }
  if (run_collisions_.size() > 1) {
    std::sort(run_collisions_.begin(), run_collisions_.end(),
              [this](uint32_t a, uint32_t b) {
                return heads_[a] < heads_[b];
              });
  }
}

void StreamPrefetcher::Reset() {
  std::fill(heads_.begin(), heads_.end(), kNoStream);
  for (uint32_t s = 0; s < config_.num_streams; ++s) {
    stamps_[s] = way_scan::TaggedStamp(0, s);
  }
  live_ = 0;
  run_cursor_ = -1;
  run_collisions_.clear();
  run_collision_idx_ = 0;
}

}  // namespace catdb::simcache
