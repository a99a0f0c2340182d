#ifndef CATDB_TESTS_MODEL_HIERARCHY_H_
#define CATDB_TESTS_MODEL_HIERARCHY_H_

// A deliberately naive model of simcache::MemoryHierarchy::Access, the
// differential oracle for the production hierarchy. Every structure is the
// obvious one:
//  * per-set ways with LRU stamps and CAT allocation masks (AosModel);
//  * brute-force inclusive back-invalidation over every core;
//  * a std::map pending-prefetch table, consumed only on L1 misses;
//  * a scalar stream prefetcher (one walk per question, per-stream structs).
// No way hints, presence masks, victim reuse, run batching or SIMD. Only the
// timing inputs — DramChannel and LatencyModel — are shared with the
// production code; the cache semantics under test are written afresh.

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "simcache/cache_geometry.h"
#include "simcache/cache_stats.h"
#include "simcache/dram.h"
#include "simcache/hierarchy.h"
#include "simcache/set_assoc_cache.h"

namespace catdb::simcache {

/// Array-of-structs cache written straight from the documented replacement
/// contract: true LRU, the allocation mask restricts victim selection only,
/// the first empty allocatable way wins, stamp ties break to the lowest way
/// index.
class AosModel {
 public:
  explicit AosModel(CacheGeometry g)
      : g_(g), ways_(static_cast<size_t>(g.num_sets) * g.num_ways) {}

  /// Promotes and returns true on hit.
  bool Lookup(uint64_t line);
  bool Contains(uint64_t line) const;
  /// Promotes a resident line; otherwise fills the LRU way allowed by
  /// `mask` and returns what it evicted.
  std::optional<EvictedLine> Insert(uint64_t line, uint64_t mask,
                                    uint16_t owner);
  bool Invalidate(uint64_t line);
  /// Sets a presence bit of a resident line (the line must be resident).
  void MarkPresent(uint64_t line, uint32_t core);
  void Clear();
  int OwnerOf(uint64_t line) const;
  uint64_t count() const { return count_; }

 private:
  struct Way {
    bool valid = false;
    uint64_t tag = 0;
    uint64_t stamp = 0;
    uint16_t owner = 0;
    uint32_t presence = 0;
  };

  Way* Find(uint64_t line);
  const Way* Find(uint64_t line) const;

  CacheGeometry g_;
  std::vector<Way> ways_;
  uint64_t stamp_ = 0;
  uint64_t count_ = 0;
};

/// Ascending-stream detector with one scan per question: is the line a
/// stream head, does it extend a stream, which slot does a new stream take.
class ModelPrefetcher {
 public:
  explicit ModelPrefetcher(const PrefetcherConfig& config)
      : config_(config), streams_(config.num_streams) {}

  /// Appends the lines to prefetch after a demand access to `line`.
  void OnDemandAccess(uint64_t line, std::vector<uint64_t>* out);

 private:
  struct Stream {
    bool live = false;
    uint64_t head = 0;
    uint64_t next_prefetch = 0;
    uint32_t run_length = 0;
    uint64_t stamp = 0;
  };

  PrefetcherConfig config_;
  std::vector<Stream> streams_;
  uint64_t stamp_ = 0;
};

/// The model hierarchy: per-core L1/L2, a shared LLC (inclusive unless the
/// config says otherwise), one DRAM channel, a prefetcher per core, and the
/// same statistics and CMT/MBM counters MemoryHierarchy keeps.
class ModelHierarchy {
 public:
  explicit ModelHierarchy(const HierarchyConfig& config);

  /// Same contract as MemoryHierarchy::Access.
  AccessResult Access(uint32_t core, uint64_t addr, uint64_t now,
                      uint64_t llc_alloc_mask, uint32_t clos = 0);

  const HierarchyStats& stats() const { return stats_; }
  const HierarchyStats& core_stats(uint32_t core) const {
    return core_stats_[core];
  }
  const ClosMonitor& clos_monitor(uint32_t clos) const {
    return clos_monitors_[clos];
  }
  uint64_t llc_lines() const { return llc_.count(); }

 private:
  // Fills a line that missed the LLC, with CMT accounting and, when the
  // LLC is inclusive, back-invalidation of every core's private copies and
  // of the evicted line's pending prefetch.
  void InsertIntoLlc(uint64_t line, uint64_t llc_alloc_mask, uint32_t clos);
  void IssuePrefetches(uint32_t core, uint64_t line, uint64_t now,
                       uint64_t llc_alloc_mask, uint32_t clos);

  HierarchyConfig config_;
  std::vector<AosModel> l1_;
  std::vector<AosModel> l2_;
  AosModel llc_;
  std::vector<ModelPrefetcher> prefetchers_;
  DramChannel dram_;
  std::map<uint64_t, uint64_t> pending_;  // line -> prefetch arrival cycle
  HierarchyStats stats_;
  std::vector<HierarchyStats> core_stats_;
  std::vector<ClosMonitor> clos_monitors_;
};

}  // namespace catdb::simcache

#endif  // CATDB_TESTS_MODEL_HIERARCHY_H_
