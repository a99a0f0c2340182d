#ifndef CATDB_OBS_INTERVAL_SAMPLER_H_
#define CATDB_OBS_INTERVAL_SAMPLER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "simcache/hierarchy.h"
#include "simcache/shadow_profiler.h"

namespace catdb::obs {

/// Share of the DRAM channel's line capacity consumed by `mbm_delta` line
/// transfers within an interval of `interval_cycles` cycles, where one line
/// occupies the channel for `dram_transfer_cycles`. The denominator scales
/// with the *actual* interval length — a final interval cut short by the
/// horizon must not divide by a full interval's capacity (that underestimate
/// let polluters finish unrestricted; see policy_engine.cc).
double ChannelBandwidthShare(uint64_t mbm_delta, uint64_t interval_cycles,
                             uint64_t dram_transfer_cycles);

/// Per-CLOS counters of one sampling interval: resctrl-style cumulative
/// values plus the interval deltas the dynamic policy decides on.
struct ClosIntervalSample {
  uint32_t clos = 0;
  std::string group;              // resource-group name (diagnostic)
  uint64_t occupancy_lines = 0;   // CMT snapshot at interval end
  uint64_t mbm_lines_total = 0;   // MBM, cumulative
  uint64_t mbm_lines_delta = 0;
  uint64_t llc_hits_delta = 0;
  uint64_t llc_misses_delta = 0;
  /// Demand LLC hit ratio within the interval; 1.0 when there were no
  /// lookups (an idle class is certainly not polluting).
  double hit_ratio = 1.0;
  /// Share of the DRAM channel's line capacity this class consumed within
  /// the interval (the MBM-derived polluter signal).
  double bandwidth_share = 0.0;
  /// Shadow-tag miss-rate curve snapshot at the interval end (aged
  /// cumulative counters; empty when no profiler is attached). Index w-1
  /// holds the demand LLC lookups the class would have hit with w ways.
  std::vector<uint64_t> mrc_hits_at_ways;
  /// Sampled demand lookups backing the curve (the MRC denominator).
  uint64_t mrc_accesses = 0;
};

/// One interval snapshot: the window and its per-CLOS samples, plus the
/// machine-wide statistics delta over the window.
struct IntervalSample {
  uint64_t cycle_begin = 0;
  uint64_t cycle_end = 0;
  std::vector<ClosIntervalSample> clos;
  simcache::LevelStats llc_delta;     // machine-wide demand LLC traffic
  uint64_t dram_accesses_delta = 0;
};

/// Snapshots per-CLOS CMT/MBM/LLC counters into a time series, one sample
/// per policy interval. Pure observer: reading the counters never perturbs
/// the simulation, so sampled and unsampled runs are cycle-identical.
class IntervalSampler {
 public:
  /// `dram_transfer_cycles` is the channel occupancy of one line transfer
  /// (HierarchyConfig::latency.dram_transfer) — the unit of the bandwidth
  /// share computation.
  IntervalSampler(const simcache::MemoryHierarchy* hierarchy,
                  uint64_t dram_transfer_cycles);

  /// Adds a class of service to the watch list (typically one per stream
  /// resource group). Must be called before the first Sample().
  void Watch(uint32_t clos, std::string group_name);

  /// Binds a shadow-tag profiler (nullptr = none): every subsequent sample
  /// carries each watched class's miss-rate curve snapshot, so MRCs flow
  /// into run reports and traces alongside the CMT/MBM counters.
  void AttachShadowProfiler(const simcache::ShadowTagProfiler* profiler) {
    shadow_profiler_ = profiler;
  }

  /// Takes one sample covering (previous cycle_end, `cycle_end`]. Intervals
  /// may have different lengths; the final short interval before a horizon
  /// is measured over its actual length.
  const IntervalSample& Sample(uint64_t cycle_end);

  const std::vector<IntervalSample>& series() const { return series_; }
  size_t num_watched() const { return watched_.size(); }

 private:
  struct Watched {
    uint32_t clos;
    std::string group;
    uint64_t prev_mbm = 0;
    uint64_t prev_hits = 0;
    uint64_t prev_misses = 0;
  };

  const simcache::MemoryHierarchy* hierarchy_;
  const simcache::ShadowTagProfiler* shadow_profiler_ = nullptr;
  uint64_t dram_transfer_cycles_;
  uint64_t prev_cycle_ = 0;
  simcache::LevelStats prev_llc_{};
  uint64_t prev_dram_ = 0;
  std::vector<Watched> watched_;
  std::vector<IntervalSample> series_;
};

}  // namespace catdb::obs

#endif  // CATDB_OBS_INTERVAL_SAMPLER_H_
