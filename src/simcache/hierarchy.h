#ifndef CATDB_SIMCACHE_HIERARCHY_H_
#define CATDB_SIMCACHE_HIERARCHY_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "simcache/cache_geometry.h"
#include "simcache/cache_stats.h"
#include "simcache/dram.h"
#include "simcache/host_profile.h"
#include "simcache/line_map.h"
#include "simcache/prefetcher.h"
#include "simcache/set_assoc_cache.h"
#include "simcache/shadow_profiler.h"

namespace catdb::simcache {

/// Configuration of the simulated memory hierarchy. Defaults follow the
/// scaling rule in DESIGN.md: the paper's 20-way 55 MiB inclusive LLC maps to
/// a 20-way 2.56 MiB LLC, so one CAT way is still 5 % of the cache and all
/// working-set-to-LLC ratios carry over.
struct HierarchyConfig {
  uint32_t num_cores = 8;
  CacheGeometry l1{/*num_sets=*/16, /*num_ways=*/8};     // 8 KiB
  CacheGeometry l2{/*num_sets=*/64, /*num_ways=*/8};     // 32 KiB
  CacheGeometry llc{/*num_sets=*/2048, /*num_ways=*/20}; // 2.56 MiB
  LatencyModel latency;
  PrefetcherConfig prefetcher;
  /// If false, LLC evictions do not back-invalidate private caches
  /// (exclusive-ish behaviour; exists for the ablation bench).
  bool inclusive_llc = true;
  /// If true (default), the hierarchy runs at the best way-scan level the
  /// host supports (SimdLevel::kAvx512 when AVX-512F is detected at run
  /// time, else scalar; demoted process-wide by the CATDB_NO_SIMD
  /// environment variable): at kAvx512 every access goes through the
  /// AVX-512 twins of the point and run paths. If false, it runs the scalar
  /// path, the code a host without AVX-512F runs, so the nosimd fuzz regime
  /// and the regime determinism golden check one against the other.
  /// Simulated results are identical either way.
  bool simd = true;
};

/// Result of one simulated memory access.
struct AccessResult {
  uint64_t latency_cycles = 0;
  HitLevel level = HitLevel::kL1;
};

/// Per-CLOS monitoring counters, modelling Intel RDT's Cache Monitoring
/// Technology (CMT: LLC occupancy) and Memory Bandwidth Monitoring (MBM:
/// lines transferred from DRAM), plus per-CLOS LLC hit/miss counters (what
/// a per-group PCM sampling session would report).
struct ClosMonitor {
  uint64_t occupancy_lines = 0;  // CMT: lines currently resident, this CLOS
  uint64_t mbm_lines = 0;        // MBM: DRAM line transfers, cumulative
  LevelStats llc;                // per-CLOS LLC demand hits/misses

  uint64_t occupancy_bytes() const { return occupancy_lines * kLineSize; }
  uint64_t mbm_bytes() const { return mbm_lines * kLineSize; }
};

/// The simulated memory hierarchy: per-core L1d and L2, one shared inclusive
/// LLC, one DRAM channel, and a per-core stream prefetcher.
///
/// CAT enters through the per-access `llc_alloc_mask`: the set of LLC ways
/// the accessing core may victimize. The mask is supplied by the caller (the
/// Machine, which tracks each core's class of service) on every access, which
/// mirrors how the hardware consults the core's CLOS register on every fill.
class MemoryHierarchy {
 public:
  explicit MemoryHierarchy(const HierarchyConfig& config);

  MemoryHierarchy(const MemoryHierarchy&) = delete;
  MemoryHierarchy& operator=(const MemoryHierarchy&) = delete;

  const HierarchyConfig& config() const { return config_; }

  /// Simulates one memory access by core `core` to byte address `addr` at
  /// time `now` (in cycles). Reads and writes are timed identically
  /// (write-allocate). `llc_alloc_mask` is the CAT capacity bitmask of the
  /// core's current class of service, and `clos` that class itself (used as
  /// the monitoring tag for CMT/MBM accounting).
  AccessResult Access(uint32_t core, uint64_t addr, uint64_t now,
                      uint64_t llc_alloc_mask, uint32_t clos = 0) {
    return AccessPoint(core, LineOf(addr), now, llc_alloc_mask, clos);
  }

  /// Access() for a caller that already holds the *line* number (not the
  /// byte address). Picks the path once: the AVX-512 twin at
  /// SimdLevel::kAvx512, else the scalar body inline in the caller.
  AccessResult AccessPoint(uint32_t core, uint64_t line, uint64_t now,
                           uint64_t llc_alloc_mask, uint32_t clos = 0) {
#if CATDB_WAY_SCAN_X86
    if (simd_ == SimdLevel::kAvx512) {
      return AccessPointAvx512(core, line, now, llc_alloc_mask, clos);
    }
#endif
    return AccessPointImpl<SimdLevel::kScalar>(core, line, now, llc_alloc_mask,
                                               clos);
  }

  /// Batched equivalent of `n_lines` consecutive Access calls to the
  /// *physical* line addresses [first_line, first_line + n_lines): the CLOS
  /// mask, per-core cache references and statistics rows are resolved once,
  /// the prefetcher advances through a run cursor instead of a full stream
  /// scan per line, pure counters are accumulated in locals and flushed once
  /// at the end, and consecutive L1 hits short-circuit into a streak whose
  /// stats/latency fold into a single update. Returns the summed latency;
  /// `now` advances internally per line, so DRAM booking and prefetch
  /// arrival times are cycle-identical to the scalar path (pinned by
  /// tests/batched_access_test.cc).
  uint64_t AccessRun(uint32_t core, uint64_t first_line, uint64_t n_lines,
                     uint64_t now, uint64_t llc_alloc_mask,
                     uint32_t clos = 0);

  /// Maximum number of monitored classes of service.
  static constexpr uint32_t kMaxClos = 16;

  /// CMT/MBM counters for one class of service.
  const ClosMonitor& clos_monitor(uint32_t clos) const {
    return clos_monitors_[clos];
  }

  /// Zeroes a CLOS's *cumulative* monitoring counters (MBM line count,
  /// per-CLOS LLC hits/misses) when the CLOS is handed to a new resource
  /// group. Occupancy is kept: it tracks lines actually resident in the LLC
  /// (their eviction must still decrement it), exactly like a reused RMID on
  /// real hardware still sees the old owner's residency drain away.
  void ResetClosMonitorCounters(uint32_t clos) {
    ClosMonitor& mon = clos_monitors_[clos];
    mon.mbm_lines = 0;
    mon.llc = LevelStats{};
  }

  /// Counts `n` retired instructions towards the misses-per-instruction
  /// metric (operators call this with their per-chunk instruction estimates).
  void CountInstructions(uint64_t n) { stats_.instructions += n; }

  /// Global statistics since construction or the last ResetStats().
  const HierarchyStats& stats() const { return stats_; }

  /// Per-core statistics.
  const HierarchyStats& core_stats(uint32_t core) const {
    return core_stats_[core];
  }

  /// Clears statistics counters but keeps cache contents (used to exclude
  /// warm-up from measurements).
  void ResetStats();

  /// Empties all caches, prefetcher state, the DRAM queue and statistics.
  void ResetAll();

  SetAssocCache& llc() { return *llc_; }
  SetAssocCache& l1(uint32_t core) { return *l1_[core]; }
  SetAssocCache& l2(uint32_t core) { return *l2_[core]; }
  DramChannel& dram() { return dram_; }

  /// Verifies the inclusion property: every line valid in any L1/L2 is also
  /// valid in the LLC. Returns false (and stops early) on violation. Used by
  /// property tests.
  bool CheckInclusion() const;

  /// Binds a shadow-tag profiler (nullptr = detach). The profiler observes
  /// every demand LLC lookup (after an L2 miss, before the real LLC is
  /// probed) tagged with the accessing CLOS. Observation is free of
  /// simulation side effects: profiled runs are cycle-identical to
  /// unprofiled ones. The profiler is not owned and must outlive the
  /// binding.
  void AttachShadowProfiler(ShadowTagProfiler* profiler) {
    shadow_profiler_ = profiler;
  }
  ShadowTagProfiler* shadow_profiler() const { return shadow_profiler_; }

  /// Sentinel for SetShadowProfileTag: observations from the core use its
  /// CLOS as the profiler tag (the default behaviour).
  static constexpr uint32_t kProfileTagClos = UINT32_MAX;

  /// Overrides the shadow-profiler tag for observations issued by `core`.
  /// The serving tier uses this to profile per-tenant miss-rate curves even
  /// when many tenants share one CLOS under clustering: the profiler is
  /// sized with `max_clos = num_tenants` and the engine retags each core at
  /// dispatch. Pass kProfileTagClos to restore CLOS tagging. Observation
  /// only — simulated timing is unaffected.
  void SetShadowProfileTag(uint32_t core, uint32_t tag) {
    profile_tags_[core] = tag;
  }

  /// Binds a host-cycle profiler (nullptr = detach): AccessRun attributes
  /// the simulator's own wall time to per-component buckets (L1/L2/LLC
  /// lookup, victim fill, prefetcher, DRAM booking, pending table, monitor
  /// flush). Profiling is template-dispatched per run, so detached runs
  /// compile without any timer reads and cost nothing. Simulated results
  /// are identical either way. The profiler is not owned and must outlive
  /// the binding.
  void AttachHostProfiler(HostCycleBreakdown* profile) {
    host_profile_ = profile;
  }
  HostCycleBreakdown* host_profile() const { return host_profile_; }

  /// The way-scan level this hierarchy runs at, fixed at construction:
  /// DefaultSimdLevel() when HierarchyConfig::simd is set, else kScalar.
  SimdLevel simd_level() const { return simd_; }

 private:
  // The point-access body behind AccessPoint, at way-scan level L (as are
  // the private helpers below). Defined inline so that on the scalar path
  // the dominant outcome, an L1 hit on a warm line, runs entirely within
  // the caller: prefetcher training (out of line only when the streamer
  // actually stages lines), the one-compare L1 way-hint probe, and the hit
  // bookkeeping. Everything past an L1 miss is the out-of-line
  // AccessPointMiss tail.
  template <SimdLevel L>
  AccessResult AccessPointImpl(uint32_t core, uint64_t line, uint64_t now,
                               uint64_t llc_alloc_mask, uint32_t clos) {
    CATDB_DCHECK(core < config_.num_cores);
    CATDB_DCHECK(clos < kMaxClos);
    // Train the streamer before the lookup (hardware trains on the demand
    // stream regardless of hit/miss). The common case stages nothing and
    // stays inline.
    if (config_.prefetcher.enabled) {
      scratch_prefetch_lines_.clear();
      prefetchers_[core]->OnDemandAccess<L>(line, &scratch_prefetch_lines_);
      if (!scratch_prefetch_lines_.empty()) {
        EmitStagedPrefetches<L>(core, now, llc_alloc_mask, clos);
      }
    }
    size_t l1_victim = 0;
    if (l1_[core]->LookupOrVictim<L>(line, &l1_victim)) {
      // An L1 hit is served entirely by the private cache: a prefetch still
      // in flight for the same line (possible with a non-inclusive LLC,
      // where eviction does not scrub L1 copies or pending entries) did not
      // supply the data, so it neither counts as a prefetch hit nor delays
      // the access; the pending entry stays until a real consumer arrives.
      // Nothing else in the hierarchy moves.
      stats_.l1.hits += 1;
      core_stats_[core].l1.hits += 1;
      return AccessResult{config_.latency.l1_hit, HitLevel::kL1};
    }
    return AccessPointMiss<L>(core, line, now, llc_alloc_mask, clos,
                              l1_victim);
  }
  // The batched run loop behind AccessRun, compiled twice: kProfiled=false
  // is the measured path (no timer reads anywhere); kProfiled=true times
  // each component into *host_profile_. Both evolve simulation state
  // identically.
  template <SimdLevel L, bool kProfiled>
  uint64_t AccessRunImpl(uint32_t core, uint64_t first_line, uint64_t n_lines,
                         uint64_t now, uint64_t llc_alloc_mask, uint32_t clos);
#if CATDB_WAY_SCAN_X86
  // AVX-512 twins: AccessPointImpl and AccessRunImpl at kAvx512, with their
  // whole call tree (private caches, LLC insert, prefetcher, pending table,
  // way_scan kernels) inlined into one function compiled for AVX-512F.
  // Called only when simd_ is kAvx512; see hierarchy.cc.
  __attribute__((target("avx512f"), flatten)) AccessResult AccessPointAvx512(
      uint32_t core, uint64_t line, uint64_t now, uint64_t llc_alloc_mask,
      uint32_t clos);
  template <bool kProfiled>
  __attribute__((target("avx512f"), flatten)) uint64_t AccessRunAvx512(
      uint32_t core, uint64_t first_line, uint64_t n_lines, uint64_t now,
      uint64_t llc_alloc_mask, uint32_t clos);
#endif
  // Inserts a line known to miss the LLC, honouring the allocation mask; on
  // eviction performs inclusive back-invalidation of the private caches and
  // updates the CMT occupancy of filler and victim. Returns the filled
  // line's SoA slot in the LLC, so callers can mark presence with a single
  // store. When `evicted_line_out` is non-null it receives the evicted line
  // address (SetAssocCache::kInvalidTag if nothing was evicted) — the run
  // loop scrubs its run-local pending-prefetch FIFO with it. When
  // `evicted_presence_out` is non-null it receives the evicted line's core
  // presence mask (0 if nothing was evicted) — demand fills use it to tell
  // whether back-invalidation could have touched the accessing core's
  // private caches, which decides whether precomputed private victims are
  // still valid.
  template <SimdLevel L>
  size_t InsertIntoLlcAt(uint64_t line, uint64_t llc_alloc_mask,
                         uint32_t clos,
                         uint64_t* evicted_line_out = nullptr,
                         uint32_t* evicted_presence_out = nullptr);
  // Emits the lines the streamer staged in scratch_prefetch_lines_:
  // LLC-resident lines go straight to the core's L2; the rest book a DRAM
  // prefetch, enter the pending table and fill LLC + L2.
  template <SimdLevel L>
  void EmitStagedPrefetches(uint32_t core, uint64_t now,
                            uint64_t llc_alloc_mask, uint32_t clos);
  // Out-of-line tail of AccessPoint past an L1 miss: pending-table consume,
  // L2 / shadow / LLC / DRAM, with the run loop's victim-reuse discipline.
  // `l1_victim` is the victim slot the inline L1 probe precomputed on its
  // miss.
  template <SimdLevel L>
  AccessResult AccessPointMiss(uint32_t core, uint64_t line, uint64_t now,
                               uint64_t llc_alloc_mask, uint32_t clos,
                               size_t l1_victim);

  HierarchyConfig config_;
  std::vector<std::unique_ptr<SetAssocCache>> l1_;
  std::vector<std::unique_ptr<SetAssocCache>> l2_;
  std::unique_ptr<SetAssocCache> llc_;
  std::vector<std::unique_ptr<StreamPrefetcher>> prefetchers_;
  DramChannel dram_;
  // In-flight prefetched lines: line -> cycle at which the data arrives.
  // A demand access that lands before arrival waits for the remainder.
  // Flat open-addressing table: probed on every demand L1 miss, so it must
  // be cheap on the (overwhelmingly common) absent case.
  LineMap prefetch_ready_;
  HierarchyStats stats_;
  std::vector<HierarchyStats> core_stats_;
  std::vector<ClosMonitor> clos_monitors_;
  std::vector<uint64_t> scratch_prefetch_lines_;
  // Per-core shadow-profiler tag override (kProfileTagClos = use the CLOS).
  std::vector<uint32_t> profile_tags_;
  ShadowTagProfiler* shadow_profiler_ = nullptr;  // not owned
  HostCycleBreakdown* host_profile_ = nullptr;    // not owned
  // The path AccessPoint and AccessRun take; see simd_level().
  SimdLevel simd_ = SimdLevel::kScalar;
};

}  // namespace catdb::simcache

#endif  // CATDB_SIMCACHE_HIERARCHY_H_
