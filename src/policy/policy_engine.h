#ifndef CATDB_POLICY_POLICY_ENGINE_H_
#define CATDB_POLICY_POLICY_ENGINE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "engine/runner.h"
#include "obs/interval_sampler.h"
#include "policy/way_allocator.h"
#include "simcache/shadow_profiler.h"

namespace catdb::policy {

/// Configuration of the utility-based partitioning controller.
struct PolicyEngineConfig {
  /// Monitoring/decision interval in simulated cycles.
  uint64_t interval_cycles = 10'000'000;
  /// Hysteresis on *widening* only: a stream's mask grows only after this
  /// many consecutive intervals in which the allocator proposed more ways.
  /// Narrowing (and same-width moves) applies immediately — taking cache
  /// away from a polluter must not wait, but handing cache out on one noisy
  /// interval would flap. 0 widens immediately.
  uint32_t widen_intervals = 2;
  /// Shadow-tag profiler parameters (set sampling period etc.).
  simcache::ShadowProfilerConfig profiler;
};

/// Outcome of a controller run: the usual workload report plus the decision
/// trail. When the allocator uses curves, the interval series carries each
/// stream's MRC snapshot per interval (the profiler is attached to the
/// sampler), so reports written from it expose the measured miss-rate
/// curves.
struct PolicyRunReport {
  engine::RunReport report;
  std::string allocator_name;
  uint32_t intervals = 0;
  /// Mask (re)programming operations performed by the controller.
  uint64_t schemata_writes = 0;
  /// Stream resource-group names, in stream order (matches the per-CLOS
  /// entries of each interval sample).
  std::vector<std::string> group_names;
  /// Per-interval monitoring time series, with MRC snapshots when the
  /// allocator uses curves.
  std::vector<obs::IntervalSample> interval_series;
  /// Each stream's CAT mask when the run ended.
  std::vector<uint64_t> final_masks;
};

/// The closed-system interval controller. Runs the streams concurrently
/// like engine::RunWorkload, but with *no* static annotations in effect:
/// every stream starts with the full cache in its own monitoring group, and
/// at every interval boundary the allocator turns the streams' profiles into
/// CAT masks, which are re-programmed through the resctrl emulation (with
/// widening hysteresis). When the allocator uses curves, a shadow-tag
/// profiler measures each stream's miss-rate curve.
PolicyRunReport RunWorkloadWithAllocator(
    sim::Machine* machine, const std::vector<engine::StreamSpec>& specs,
    uint64_t horizon_cycles, WayAllocator* allocator,
    const PolicyEngineConfig& config);

/// Outcome of a threshold-classifier run: the usual workload report plus
/// the classification trace.
struct DynamicRunReport {
  engine::RunReport report;
  /// Per stream: was it restricted when the run ended?
  std::vector<bool> restricted;
  /// Per stream: first interval (1-based) at which the controller
  /// restricted it; 0 = never.
  std::vector<uint32_t> restricted_at_interval;
  uint32_t intervals = 0;
  /// Mask (re)programming operations performed by the controller.
  uint64_t schemata_writes = 0;
  /// Stream resource-group names, in stream order (matches the per-CLOS
  /// entries of each interval sample).
  std::vector<std::string> group_names;
  /// Per-interval monitoring time series (one entry per decision interval;
  /// sample i's per-CLOS entries are in stream order). Replaying the
  /// classifier over this series reproduces the restriction flips — the
  /// consistency the observability tests pin.
  std::vector<obs::IntervalSample> interval_series;
};

/// RunWorkloadWithAllocator with a ThresholdAllocator: between intervals
/// the controller re-reads each stream group's MBM and LLC-hit counters and
/// tightens or widens its CAT mask.
DynamicRunReport RunWorkloadDynamic(
    sim::Machine* machine, const std::vector<engine::StreamSpec>& specs,
    uint64_t horizon_cycles, const DynamicPolicyConfig& config);

}  // namespace catdb::policy

#endif  // CATDB_POLICY_POLICY_ENGINE_H_
