#ifndef CATDB_POLICY_WAY_ALLOCATOR_H_
#define CATDB_POLICY_WAY_ALLOCATOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/partitioning_policy.h"

namespace catdb::policy {

/// One stream's measured cache behaviour over a decision interval — the
/// input every way allocator decides on. Produced by the policy engine from
/// the interval sampler (CMT/MBM deltas) and the shadow-tag profiler (the
/// miss-rate curve).
struct StreamProfile {
  /// Shadow-tag miss-rate curve: index w-1 holds the sampled demand LLC
  /// lookups the stream would have hit with w ways. Empty when no profiler
  /// observations exist yet (cold start).
  std::vector<uint64_t> mrc_hits_at_ways;
  /// Sampled demand lookups backing the curve (the MRC denominator).
  uint64_t mrc_accesses = 0;
  /// Share of the DRAM channel's line capacity consumed in the interval.
  double bandwidth_share = 0.0;
  /// Demand LLC hit ratio in the interval (1.0 when there were no lookups).
  double hit_ratio = 1.0;
  /// Unsampled demand LLC lookups in the interval.
  uint64_t llc_lookups = 0;

  /// Hits the stream would see with `ways` ways (clamped to the curve).
  uint64_t HitsAtWays(uint32_t ways) const;
};

/// Strategy interface: turn per-stream profiles into one CAT capacity mask
/// per stream. Every returned mask must be non-empty, contiguous, and lie
/// within the lowest `llc_ways` bits — the Intel CAT validity rules; the
/// policy engine DCHECKs them and the property tests enforce them for every
/// implementation. Masks of different streams may overlap (CAT allows it;
/// the paper's own static scheme overlaps the polluting and shared masks).
class WayAllocator {
 public:
  virtual ~WayAllocator() = default;

  /// Short scheme name used in reports ("static", "lookahead", ...).
  virtual const std::string& name() const = 0;

  /// One mask per entry of `streams`. `llc_ways` is the LLC associativity
  /// (the CAT mask width). Must be deterministic: equal inputs yield equal
  /// masks, with all ties broken by stream index.
  virtual std::vector<uint64_t> Allocate(
      const std::vector<StreamProfile>& streams, uint32_t llc_ways) = 0;

  /// Whether Allocate reads the miss-rate curves. The policy engine attaches
  /// the shadow-tag profiler (and so fills `mrc_*` in the profiles and the
  /// interval series) only for allocators that do.
  virtual bool uses_curves() const { return true; }
};

/// The paper's static scheme lifted to stream granularity: streams annotated
/// cache-polluting share the low `polluting_ways` mask, everything else keeps
/// the full cache (the default group's mask). Ignores the profiles — this is
/// the a-priori-annotation baseline the measurement-driven allocators are
/// compared against.
class StaticPaperAllocator : public WayAllocator {
 public:
  /// `polluting[i]` is stream i's static annotation (the per-operator CUID
  /// classification of Section V-B, applied per stream).
  StaticPaperAllocator(const engine::PolicyConfig& config,
                       std::vector<bool> polluting);

  const std::string& name() const override { return name_; }
  std::vector<uint64_t> Allocate(const std::vector<StreamProfile>& streams,
                                 uint32_t llc_ways) override;

 private:
  engine::PolicyConfig config_;
  std::vector<bool> polluting_;
  std::string name_ = "static";
};

/// Configuration of the threshold classifier — the paper's outlook
/// (Sections VII/VIII): instead of static per-operator annotations, classify
/// running query streams online from hardware monitoring (CMT/MBM and
/// per-class LLC counters) and program CAT masks accordingly. Related work
/// the heuristic follows: Soares et al. (classify polluters by miss
/// behaviour), Herdrich et al. (CMT/CAT).
struct DynamicPolicyConfig {
  /// Monitoring/decision interval in simulated cycles.
  uint64_t interval_cycles = 10'000'000;
  /// A stream is classified cache-polluting when, within one interval, it
  /// consumed at least this share of the DRAM channel's line capacity ...
  double polluter_bandwidth_share = 0.20;
  /// ... while its LLC hit ratio stayed below this bound (it streams and
  /// does not reuse what it caches).
  double polluter_hit_ratio = 0.10;
  /// Ways granted to streams classified polluting (mask 0x3 by default).
  uint32_t polluting_ways = 2;
  /// Hysteresis: a restricted stream is widened back to the full mask only
  /// after this many *consecutive* non-polluter intervals. Restriction
  /// itself stays immediate (one bad interval restricts). Guards against
  /// flapping: a polluter stalled behind the DRAM queue for one interval
  /// (lookups_delta == 0 reads as the idle hit_ratio default of 1.0) would
  /// otherwise be unrestricted and instantly re-restricted, burning two
  /// schemata writes per flap. 0 disables the hysteresis entirely: the
  /// first clean interval widens immediately (same as 1).
  uint32_t unrestrict_intervals = 2;
};

/// Validates a threshold-classifier configuration against the machine's LLC
/// width. Returns InvalidArgument instead of letting a zero interval spin
/// the controller or an out-of-range way count produce a degenerate
/// (empty or over-wide) CAT mask.
Status ValidateDynamicPolicyConfig(const DynamicPolicyConfig& config,
                                   uint32_t llc_ways);

/// The monitoring-driven threshold scheme: a stream that moves a large
/// share of the DRAM channel while hitting little in the LLC is a polluter
/// and is confined to the low `polluting_ways` mask; everything else keeps
/// the full cache. Restriction is immediate, widening waits for a streak of
/// clean intervals. Decides from the interval counters only, never from the
/// miss-rate curves.
class ThresholdAllocator : public WayAllocator {
 public:
  ThresholdAllocator(const DynamicPolicyConfig& config, size_t num_streams);

  const std::string& name() const override { return name_; }
  bool uses_curves() const override { return false; }
  /// Runs OnInterval for every stream and counts the interval; a
  /// restricted stream gets MaskForWays(polluting_ways), the others the
  /// full mask.
  std::vector<uint64_t> Allocate(const std::vector<StreamProfile>& streams,
                                 uint32_t llc_ways) override;

  struct Decision {
    bool changed = false;     // the stream's restriction flipped
    bool restricted = false;  // the stream's state after this interval
  };

  /// Feeds one interval's monitoring deltas for `stream` and returns the
  /// resulting state. `bandwidth_share` is the stream's share of the DRAM
  /// channel capacity within the interval (obs::ChannelBandwidthShare over
  /// the *actual* interval length); `hit_ratio` its demand LLC hit ratio
  /// (1.0 when it had no LLC lookups); `lookups` the demand LLC lookups
  /// behind that ratio. An interval that moved data without demand lookups
  /// (lookups == 0, bandwidth_share > 0 — e.g. pure prefetch fills, or a
  /// stream stalled behind the DRAM queue) is ambiguous: it neither counts
  /// toward nor resets the clean streak.
  Decision OnInterval(size_t stream, double bandwidth_share,
                      double hit_ratio, uint64_t lookups);

  /// Per stream: is it restricted now?
  const std::vector<bool>& restricted() const { return restricted_; }
  /// Per stream: first Allocate call (1-based interval) that left it
  /// restricted; 0 = never.
  const std::vector<uint32_t>& restricted_at_interval() const {
    return restricted_at_interval_;
  }

 private:
  DynamicPolicyConfig config_;
  std::vector<bool> restricted_;
  /// Consecutive non-polluter intervals observed while restricted.
  std::vector<uint32_t> clean_streak_;
  std::vector<uint32_t> restricted_at_interval_;
  uint32_t intervals_ = 0;
  std::string name_ = "threshold";
};

/// Tuning knobs of the lookahead allocator.
struct LookaheadConfig {
  /// Per-stream floor. Defaults to 2: the paper observes that a one-way
  /// mask (0x1) degrades performance severely — streaming data thrashes the
  /// worker's scratch lines — so the allocator never goes below two ways.
  uint32_t min_ways = 2;
};

/// Utility-based partitioning after Qureshi & Patt's UCP lookahead
/// algorithm: starting from the per-stream floor, repeatedly grant the
/// stream with the highest marginal utility (extra shadow hits per added
/// way, maximized over all feasible extensions) its best extension, until
/// all ways are placed. The resulting way counts tile the LLC exactly; masks
/// are disjoint contiguous segments stacked from bit 0 in stream order.
class LookaheadUtilityAllocator : public WayAllocator {
 public:
  explicit LookaheadUtilityAllocator(const LookaheadConfig& config = {});

  const std::string& name() const override { return name_; }
  std::vector<uint64_t> Allocate(const std::vector<StreamProfile>& streams,
                                 uint32_t llc_ways) override;

 private:
  LookaheadConfig config_;
  std::string name_ = "lookahead";
};

/// Tuning knobs of the fairness-clustering allocator.
struct FairnessConfig {
  /// A stream whose shadow hit ratio at the *full* LLC stays below this is
  /// streaming: more cache would not help it (an LFOC "squanderer").
  double streaming_hit_ratio = 0.20;
  /// Ways of the shared low partition all streaming streams are confined to.
  uint32_t shared_ways = 2;
  /// A sensitive stream's demand is the smallest way count reaching this
  /// fraction of its maximum shadow hits (the saturation point of its MRC).
  double saturation_fraction = 0.90;
  /// Per-stream floor for isolated partitions (same rationale as
  /// LookaheadConfig::min_ways).
  uint32_t min_ways = 2;
};

/// LFOC-style clustering: classify streams by the *shape* of their MRC —
/// streaming streams gain nothing from cache and share one small partition;
/// the remaining (sensitive) streams get isolated partitions sized by their
/// saturation points, scaled to the remaining ways by largest remainder.
/// Optimizes fairness: no sensitive stream's working set can be thrashed by
/// a neighbour, and squanderers cannot waste isolated capacity.
class FairnessClusterAllocator : public WayAllocator {
 public:
  explicit FairnessClusterAllocator(const FairnessConfig& config = {});

  const std::string& name() const override { return name_; }
  std::vector<uint64_t> Allocate(const std::vector<StreamProfile>& streams,
                                 uint32_t llc_ways) override;

 private:
  FairnessConfig config_;
  std::string name_ = "fairness";
};

/// How ClusteredWayAllocator groups streams into clusters.
enum class ClusterGrouping {
  /// k-means over normalized MRC shapes (the LFOC generalization).
  kMrcSimilarity,
  /// stream i -> cluster i % k, ignoring the curves. Isolates the value of
  /// similarity grouping: same pooling and UCP sizing, blind placement.
  kRoundRobin,
};

/// Tuning knobs of the MRC-similarity clustering allocator.
struct ClusterConfig {
  ClusterGrouping grouping = ClusterGrouping::kMrcSimilarity;
  /// Upper bound on clusters (and therefore on resource groups / CLOS the
  /// scheme consumes). Must be >= 1 and should leave room for the default
  /// group: with 16 hardware CLOS, at most 15 clusters are programmable.
  uint32_t max_clusters = 8;
  /// Fixed k-means refinement rounds (fixed, not convergence-driven, so the
  /// cost is bounded and the outcome deterministic).
  uint32_t kmeans_rounds = 8;
  /// Fraction of streams expected to be concurrently active. Pooled cluster
  /// curves divide the partition among the cluster's *active* members
  /// (max(1, members * active_fraction)), not all of them. 1.0 models the
  /// paper's closed system (every stream always running); an open serving
  /// tier with many mostly-idle tenants sets cores / num_tenants, otherwise
  /// large clusters look insatiable and the sizer starves everyone else.
  double active_fraction = 1.0;
  /// How each cluster's way budget is sized once members are pooled.
  LookaheadConfig lookahead;
};

/// LFOC generalized from the two hard-wired classes (streaming vs sensitive)
/// to k-way clustering over shadow-tag MRC snapshots: streams whose
/// miss-rate curves have similar *shape* share one partition, and the
/// partitions are sized against each cluster's pooled curve with UCP
/// lookahead. This is how far-more-tenants-than-CLOS is served: 64 tenants
/// collapse onto <= max_clusters resource groups while the per-tenant curves
/// still drive the sizing. Deterministic: farthest-first seeding from stream
/// 0, fixed refinement rounds, all ties to the lowest index.
class ClusteredWayAllocator : public WayAllocator {
 public:
  explicit ClusteredWayAllocator(const ClusterConfig& config = {});

  const std::string& name() const override { return name_; }
  std::vector<uint64_t> Allocate(const std::vector<StreamProfile>& streams,
                                 uint32_t llc_ways) override;

  /// Post-Allocate introspection for the serving engine: which cluster each
  /// stream landed in, and the mask each cluster was granted. Cluster ids
  /// are dense in [0, num_clusters()).
  const std::vector<uint32_t>& cluster_of_stream() const {
    return cluster_of_stream_;
  }
  const std::vector<uint64_t>& cluster_masks() const { return cluster_masks_; }
  size_t num_clusters() const { return cluster_masks_.size(); }

 private:
  // Shared tail of Allocate: compacts `assign` to dense cluster ids, pools
  // member MRCs per cluster, sizes the clusters with UCP lookahead, and maps
  // cluster masks back onto streams.
  std::vector<uint64_t> FinishAllocation(
      const std::vector<StreamProfile>& streams, uint32_t llc_ways, size_t k,
      const std::vector<uint32_t>& assign);

  ClusterConfig config_;
  std::string name_ = "mrc_cluster";
  std::vector<uint32_t> cluster_of_stream_;
  std::vector<uint64_t> cluster_masks_;
};

}  // namespace catdb::policy

#endif  // CATDB_POLICY_WAY_ALLOCATOR_H_
