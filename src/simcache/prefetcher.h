#ifndef CATDB_SIMCACHE_PREFETCHER_H_
#define CATDB_SIMCACHE_PREFETCHER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "simcache/cache_geometry.h"
#include "simcache/way_scan.h"

namespace catdb::simcache {

/// Configuration of the per-core hardware stream prefetcher.
struct PrefetcherConfig {
  bool enabled = true;
  /// Consecutive-line accesses needed before a stream starts prefetching.
  uint32_t trigger_run = 2;
  /// How many lines ahead of the demand stream to prefetch.
  uint32_t depth = 8;
  /// Number of concurrently tracked streams per core.
  uint32_t num_streams = 16;
};

/// Detects ascending sequential line-address streams and emits prefetch
/// candidates, like the L2 streamer on Intel server parts. This is what makes
/// the column scan insensitive to the LLC allocation: its lines are staged
/// ahead of use, so the scan is bound by memory bandwidth, not latency.
///
/// Storage is struct-of-arrays: the stream heads live in one dense uint64_t
/// run with an all-ones sentinel marking free slots, so the per-access
/// questions — "is this line a stream head?", "is line-1 a stream head?" —
/// are each a way_scan::FindWay probe over the head run, SIMD-dispatched like
/// the cache's way search. Slots are freed only by Reset and claimed lowest
/// first, so the free slots are exactly [live, num_streams): a new stream
/// takes slot `live` without a probe, and once every slot is live, LRU
/// victim selection is a MinStampWay over the parallel (way-tagged) stamp
/// array. Stamps, next-prefetch pointers, and run lengths sit in their own
/// arrays, touched only for the single stream an access resolves to.
class StreamPrefetcher {
 public:
  /// Sentinel head marking a free stream slot. Line addresses are byte
  /// addresses >> 6 and never reach the all-ones pattern (the same argument
  /// as the cache's invalid-tag sentinel), so a head probe for a real line
  /// can never land on a free slot.
  static constexpr uint64_t kNoStream = ~uint64_t{0};

  /// Most streams per core: a stamp's way tag (way_scan::TaggedStamp) names
  /// the stream slot in six bits. Machine::ValidateConfig rejects more; the
  /// constructor CHECKs it.
  static constexpr uint32_t kMaxStreams = uint32_t{1}
                                          << way_scan::kStampWayBits;

  explicit StreamPrefetcher(const PrefetcherConfig& config);

  /// Observes a demand access to `line` and appends line addresses that
  /// should be prefetched to `out` (out is not cleared). Inline: this is the
  /// prefetcher step of every scalar point access.
  ///
  /// Heads are unique among live streams (a stream only adopts a head after
  /// a full scan found no other stream holding it), so each probe's first
  /// match is the only match, and probe order — head re-access, then
  /// extension, then new-stream allocation — reproduces the priority of a
  /// single walk over the streams exactly (the scalar prefetcher of
  /// tests/model_hierarchy.h). The way-scan level is a template argument,
  /// as for the cache's scans.
  template <SimdLevel L = SimdLevel::kScalar>
  void OnDemandAccess(uint64_t line, std::vector<uint64_t>* out) {
    if (!config_.enabled) return;
    const uint32_t n = config_.num_streams;
    const int head = way_scan::FindWay<L>(heads_.data(), n, line);
    if (head >= 0) {
      // Re-access of a stream head: refresh recency, nothing to prefetch.
      stamps_[static_cast<uint32_t>(head)] =
          NextStamp(static_cast<uint32_t>(head));
      return;
    }
    if (line != 0) {  // line 0 has no predecessor (and ~0 marks free slots)
      const int extend = way_scan::FindWay<L>(heads_.data(), n, line - 1);
      if (extend >= 0) {
        ExtendStream(static_cast<uint32_t>(extend), line, out);
        return;
      }
    }
    // New stream: claim the first free slot, else evict the LRU stream (all
    // slots live, so the unguarded stamp minimum is over live streams).
    Allocate(live_ < n ? live_
                       : static_cast<uint32_t>(
                             way_scan::MinStampWay<L>(stamps_.data(), n)),
             line);
  }

  /// Run-granular training, for the hierarchy's batched access path. A *run*
  /// is a strictly ascending sequence of consecutive line addresses
  /// [first_line, last_line]. BeginRun observes `first_line` exactly like
  /// OnDemandAccess, then prepares a cursor so each following line of the run
  /// can be observed by OnRunAccess without rescanning the stream table.
  ///
  /// Bit-exactness argument: stream heads are unique among live streams, and
  /// during a run only the cursor stream's head moves — every other head is
  /// frozen. So the only scalar outcomes possible for a run line are (a)
  /// head re-access of a stream whose frozen head equals the line (collected
  /// up front, consumed in ascending order) or (b) extension of the cursor
  /// stream. New-stream allocation cannot occur mid-run (the cursor always
  /// matches as an extension), and a consumed collision head becomes the new
  /// cursor — exactly what the scalar scan would pick, including the
  /// lru_stamp counter evolution.
  void BeginRun(uint64_t first_line, uint64_t last_line,
                std::vector<uint64_t>* out);

  /// Observes the next line of the run opened by BeginRun. `line` must be
  /// exactly one past the previously observed run line. Emits the same
  /// prefetch candidates, in the same order, as OnDemandAccess would.
  /// Defined inline: this is the per-line prefetcher step of the hierarchy's
  /// batched run loop.
  void OnRunAccess(uint64_t line, std::vector<uint64_t>* out) {
    if (!config_.enabled) return;
    CATDB_DCHECK(run_cursor_ >= 0 &&
                 line == heads_[static_cast<uint32_t>(run_cursor_)] + 1);
    if (run_collision_idx_ < run_collisions_.size() &&
        heads_[run_collisions_[run_collision_idx_]] == line) {
      // Head re-access of a frozen stream: refresh its recency and make it
      // the cursor (scalar priority: head re-access beats extension). The
      // next run line extends it; the abandoned cursor's head now trails
      // the run and can never match again.
      const uint32_t s = run_collisions_[run_collision_idx_++];
      stamps_[s] = NextStamp(s);
      run_cursor_ = static_cast<int>(s);
      return;
    }
    ExtendStream(static_cast<uint32_t>(run_cursor_), line, out);
  }

  /// Drops all tracked streams (e.g. between experiment runs).
  void Reset();

  /// Slots holding a stream: exactly [0, live_streams()).
  uint32_t live_streams() const { return live_; }

  /// Whether slot `s` holds a stream (its head is not kNoStream); tests pin
  /// the live count against it.
  bool SlotLive(uint32_t s) const { return heads_[s] != kNoStream; }

 private:
  // The next LRU stamp, tagged with the slot it is written to.
  uint64_t NextStamp(uint32_t s) {
    return way_scan::TaggedStamp(++stamp_counter_, s);
  }

  // Starts a new stream at `line` in slot `s`: the slot `live_` (counted
  // live from here) or the evicted LRU stream's.
  void Allocate(uint32_t s, uint64_t line) {
    CATDB_DCHECK(s < live_ || (s == live_ && heads_[s] == kNoStream));
    if (s == live_) ++live_;
    heads_[s] = line;
    next_prefetch_[s] = line + 1;
    run_length_[s] = 1;
    stamps_[s] = NextStamp(s);
  }

  // Inline: per-line work of every sequential stream (demand and batched).
  void ExtendStream(uint32_t s, uint64_t line, std::vector<uint64_t>* out) {
    heads_[s] = line;
    run_length_[s]++;
    stamps_[s] = NextStamp(s);
    if (run_length_[s] >= config_.trigger_run) {
      if (next_prefetch_[s] <= line) next_prefetch_[s] = line + 1;
      // Hardware streamers do not cross 4 KiB page boundaries: the next
      // physical page is unrelated memory.
      const uint64_t page_end = line | (kPageLines - 1);
      uint64_t horizon = line + config_.depth;
      if (horizon > page_end) horizon = page_end;
      while (next_prefetch_[s] <= horizon) {
        out->push_back(next_prefetch_[s]++);
      }
    }
  }

  PrefetcherConfig config_;
  // SoA stream table; slot i is live iff heads_[i] != kNoStream, which
  // holds exactly for i < live_. heads_ is the probe target; the other
  // arrays are touched per resolved stream only. Stamps of slot i carry i
  // in their low bits, from construction on.
  std::vector<uint64_t> heads_;
  std::vector<uint64_t> stamps_;
  std::vector<uint64_t> next_prefetch_;
  std::vector<uint32_t> run_length_;
  uint64_t stamp_counter_ = 0;
  uint32_t live_ = 0;
  // Batched-run cursor state (valid between BeginRun and the end of the
  // run): the cursor stream's slot, the slots of other streams whose frozen
  // heads lie inside the run's line range (ascending by head), and the next
  // unconsumed one.
  int run_cursor_ = -1;
  std::vector<uint32_t> run_collisions_;
  size_t run_collision_idx_ = 0;
};

}  // namespace catdb::simcache

#endif  // CATDB_SIMCACHE_PREFETCHER_H_
