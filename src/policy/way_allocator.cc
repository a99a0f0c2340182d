#include "policy/way_allocator.h"

#include <algorithm>
#include <utility>

#include "common/bits.h"
#include "common/check.h"

namespace catdb::policy {

namespace {

/// All streams keep the full cache — the fallback when the LLC has fewer
/// ways than there are streams and disjoint partitions cannot exist.
std::vector<uint64_t> AllFullMasks(size_t n, uint32_t llc_ways) {
  return std::vector<uint64_t>(n, MaskForWays(llc_ways));
}

/// Stacks disjoint contiguous segments of `ways[i]` bits from bit `offset`
/// upwards, in stream order. Requires offset + sum(ways) <= llc_ways.
std::vector<uint64_t> StackSegments(const std::vector<uint32_t>& ways,
                                    uint32_t offset) {
  std::vector<uint64_t> masks(ways.size());
  for (size_t i = 0; i < ways.size(); ++i) {
    CATDB_DCHECK(ways[i] >= 1);
    masks[i] = MaskForWays(ways[i]) << offset;
    offset += ways[i];
  }
  return masks;
}

}  // namespace

uint64_t StreamProfile::HitsAtWays(uint32_t ways) const {
  if (ways == 0 || mrc_hits_at_ways.empty()) return 0;
  const size_t idx = std::min<size_t>(ways, mrc_hits_at_ways.size()) - 1;
  return mrc_hits_at_ways[idx];
}

// ---------------------------------------------------------------------------
// StaticPaperAllocator

StaticPaperAllocator::StaticPaperAllocator(const engine::PolicyConfig& config,
                                           std::vector<bool> polluting)
    : config_(config), polluting_(std::move(polluting)) {}

std::vector<uint64_t> StaticPaperAllocator::Allocate(
    const std::vector<StreamProfile>& streams, uint32_t llc_ways) {
  CATDB_CHECK(llc_ways >= 1);
  CATDB_CHECK(polluting_.size() == streams.size());
  uint32_t polluting_ways = std::max<uint32_t>(config_.polluting_ways, 1);
  polluting_ways = std::min(polluting_ways, llc_ways);
  std::vector<uint64_t> masks(streams.size());
  for (size_t i = 0; i < streams.size(); ++i) {
    masks[i] =
        polluting_[i] ? MaskForWays(polluting_ways) : MaskForWays(llc_ways);
  }
  return masks;
}

// ---------------------------------------------------------------------------
// ThresholdAllocator

Status ValidateDynamicPolicyConfig(const DynamicPolicyConfig& config,
                                   uint32_t llc_ways) {
  if (config.interval_cycles < 1) {
    return Status::InvalidArgument(
        "interval_cycles must be nonzero (a zero interval never advances "
        "the executor)");
  }
  if (config.polluting_ways < 1 || config.polluting_ways > llc_ways) {
    return Status::InvalidArgument(
        "polluting_ways must be in [1, llc_ways]: a zero-way CAT mask is "
        "invalid and an over-wide one exceeds the schemata width");
  }
  if (config.polluter_bandwidth_share < 0.0 ||
      config.polluter_bandwidth_share > 1.0 ||
      config.polluter_hit_ratio < 0.0 || config.polluter_hit_ratio > 1.0) {
    return Status::InvalidArgument(
        "polluter thresholds are ratios and must lie in [0, 1]");
  }
  return Status::OK();
}

ThresholdAllocator::ThresholdAllocator(const DynamicPolicyConfig& config,
                                       size_t num_streams)
    : config_(config),
      restricted_(num_streams, false),
      clean_streak_(num_streams, 0),
      restricted_at_interval_(num_streams, 0) {
  CATDB_CHECK(num_streams >= 1);
}

std::vector<uint64_t> ThresholdAllocator::Allocate(
    const std::vector<StreamProfile>& streams, uint32_t llc_ways) {
  CATDB_CHECK(streams.size() == restricted_.size());
  CATDB_CHECK(config_.polluting_ways >= 1 &&
              config_.polluting_ways <= llc_ways);
  intervals_ += 1;
  std::vector<uint64_t> masks(streams.size());
  for (size_t i = 0; i < streams.size(); ++i) {
    const StreamProfile& p = streams[i];
    const bool restricted =
        OnInterval(i, p.bandwidth_share, p.hit_ratio, p.llc_lookups)
            .restricted;
    if (restricted && restricted_at_interval_[i] == 0) {
      restricted_at_interval_[i] = intervals_;
    }
    masks[i] = MaskForWays(restricted ? config_.polluting_ways : llc_ways);
  }
  return masks;
}

ThresholdAllocator::Decision ThresholdAllocator::OnInterval(
    size_t stream, double bandwidth_share, double hit_ratio,
    uint64_t lookups) {
  CATDB_CHECK(stream < restricted_.size());
  const bool polluter =
      bandwidth_share >= config_.polluter_bandwidth_share &&
      hit_ratio < config_.polluter_hit_ratio;

  Decision d;
  if (polluter) {
    // Restriction is immediate: one polluting interval tightens the mask.
    clean_streak_[stream] = 0;
    d.changed = !restricted_[stream];
    restricted_[stream] = true;
  } else if (restricted_[stream]) {
    if (lookups == 0 && bandwidth_share > 0.0) {
      // Ambiguous interval: the stream moved data but had no demand LLC
      // lookups to judge (pure prefetch fills, or it stalled behind the
      // DRAM queue and its idle hit_ratio defaults to 1.0). Not evidence
      // of polluting, but not evidence of a clean phase either — hold the
      // streak where it is.
    } else {
      // Widening requires a streak of clean intervals: one idle interval
      // must not flap the mask. unrestrict_intervals == 0 disables the
      // hysteresis (first clean interval widens, same as 1).
      clean_streak_[stream] += 1;
      const uint32_t needed =
          config_.unrestrict_intervals > 0 ? config_.unrestrict_intervals : 1;
      if (clean_streak_[stream] >= needed) {
        restricted_[stream] = false;
        clean_streak_[stream] = 0;
        d.changed = true;
      }
    }
  }
  d.restricted = restricted_[stream];
  return d;
}

// ---------------------------------------------------------------------------
// LookaheadUtilityAllocator

LookaheadUtilityAllocator::LookaheadUtilityAllocator(
    const LookaheadConfig& config)
    : config_(config) {
  CATDB_CHECK(config_.min_ways >= 1);
}

std::vector<uint64_t> LookaheadUtilityAllocator::Allocate(
    const std::vector<StreamProfile>& streams, uint32_t llc_ways) {
  CATDB_CHECK(llc_ways >= 1);
  const size_t n = streams.size();
  if (n == 0) return {};
  if (llc_ways < n) return AllFullMasks(n, llc_ways);

  // Feasible per-stream floor: the configured minimum, shrunk so the floors
  // alone never exceed the cache.
  const uint32_t floor_ways = std::max<uint32_t>(
      1, std::min<uint32_t>(config_.min_ways,
                            llc_ways / static_cast<uint32_t>(n)));
  std::vector<uint32_t> alloc(n, floor_ways);
  uint32_t balance = llc_ways - floor_ways * static_cast<uint32_t>(n);

  // Lookahead greedy (Qureshi & Patt): each round, every stream bids its
  // best marginal utility — extra shadow hits per added way, maximized over
  // all extensions the balance allows (looking *ahead* past utility
  // plateaus) — and the highest bidder wins its extension. Ties go to the
  // smallest extension of the lowest-indexed stream, so the result is
  // deterministic.
  while (balance > 0) {
    double best_mu = 0.0;
    size_t best_i = 0;
    uint32_t best_k = 0;
    for (size_t i = 0; i < n; ++i) {
      const uint64_t base = streams[i].HitsAtWays(alloc[i]);
      for (uint32_t k = 1; k <= balance; ++k) {
        const uint64_t gain = streams[i].HitsAtWays(alloc[i] + k) - base;
        const double mu = static_cast<double>(gain) / k;
        if (mu > best_mu) {
          best_mu = mu;
          best_i = i;
          best_k = k;
        }
      }
    }
    if (best_k == 0) break;  // no stream gains anything from more cache
    alloc[best_i] += best_k;
    balance -= best_k;
  }

  // Zero-utility leftovers (cold curves, or every stream saturated): deal
  // the remaining ways round-robin so the partition still tiles the LLC.
  for (size_t i = 0; balance > 0; i = (i + 1) % n, --balance) {
    alloc[i] += 1;
  }

  return StackSegments(alloc, /*offset=*/0);
}

// ---------------------------------------------------------------------------
// FairnessClusterAllocator

FairnessClusterAllocator::FairnessClusterAllocator(
    const FairnessConfig& config)
    : config_(config) {
  CATDB_CHECK(config_.min_ways >= 1);
  CATDB_CHECK(config_.shared_ways >= 1);
  CATDB_CHECK(config_.streaming_hit_ratio >= 0.0);
  CATDB_CHECK(config_.saturation_fraction > 0.0 &&
              config_.saturation_fraction <= 1.0);
}

std::vector<uint64_t> FairnessClusterAllocator::Allocate(
    const std::vector<StreamProfile>& streams, uint32_t llc_ways) {
  CATDB_CHECK(llc_ways >= 1);
  const size_t n = streams.size();
  if (n == 0) return {};

  // Cluster by MRC shape: a stream that would still miss nearly everything
  // with the *whole* cache is streaming — isolated capacity is wasted on it.
  // Cold streams (no shadow observations yet) count as sensitive: never
  // punish a stream for not having been measured.
  std::vector<size_t> sensitive;
  std::vector<bool> streaming(n, false);
  for (size_t i = 0; i < n; ++i) {
    const StreamProfile& p = streams[i];
    if (p.mrc_accesses > 0) {
      const double full_ratio =
          static_cast<double>(p.HitsAtWays(llc_ways)) /
          static_cast<double>(p.mrc_accesses);
      streaming[i] = full_ratio < config_.streaming_hit_ratio;
    }
    if (!streaming[i]) sensitive.push_back(i);
  }

  // Degenerate clusters: with no sensitive stream there is nothing to
  // protect (everyone keeps the full cache); with no streaming stream the
  // isolated partitions take the whole LLC.
  if (sensitive.empty()) return AllFullMasks(n, llc_ways);
  const size_t ns = sensitive.size();
  uint32_t shared_ways = 0;
  if (sensitive.size() < n) {
    shared_ways = std::min(config_.shared_ways, llc_ways);
    // The isolated region must fit at least one way per sensitive stream;
    // shrink the shared partition before giving up.
    while (shared_ways > 1 && llc_ways - shared_ways < ns) --shared_ways;
    if (llc_ways - shared_ways < ns) return AllFullMasks(n, llc_ways);
  } else if (llc_ways < ns) {
    return AllFullMasks(n, llc_ways);
  }
  const uint32_t avail = llc_ways - shared_ways;

  // Each sensitive stream demands its saturation point: the smallest way
  // count reaching `saturation_fraction` of its maximum shadow hits.
  const uint32_t floor_ways = std::max<uint32_t>(
      1, std::min<uint32_t>(config_.min_ways,
                            avail / static_cast<uint32_t>(ns)));
  std::vector<uint32_t> demand(ns, floor_ways);
  for (size_t s = 0; s < ns; ++s) {
    const StreamProfile& p = streams[sensitive[s]];
    const uint64_t max_hits = p.HitsAtWays(llc_ways);
    if (max_hits == 0) continue;  // unknown benefit: stay at the floor
    const double target = config_.saturation_fraction *
                          static_cast<double>(max_hits);
    for (uint32_t w = 1; w <= llc_ways; ++w) {
      if (static_cast<double>(p.HitsAtWays(w)) >= target) {
        demand[s] = std::max(floor_ways, w);
        break;
      }
    }
  }

  // Scale demands onto the isolated region: everyone starts at the floor,
  // the remainder goes proportional to excess demand by largest remainder
  // (integer arithmetic; ties to the lowest index). The grants always sum
  // to `avail`, so the isolated partitions tile [shared_ways, llc_ways).
  std::vector<uint32_t> alloc(ns, floor_ways);
  uint32_t extra = avail - floor_ways * static_cast<uint32_t>(ns);
  uint64_t total_weight = 0;
  std::vector<uint64_t> weight(ns, 0);
  for (size_t s = 0; s < ns; ++s) {
    weight[s] = demand[s] - floor_ways;
    total_weight += weight[s];
  }
  if (total_weight > 0 && extra > 0) {
    uint32_t granted = 0;
    std::vector<std::pair<uint64_t, size_t>> remainders;
    for (size_t s = 0; s < ns; ++s) {
      const uint64_t share = static_cast<uint64_t>(extra) * weight[s];
      const uint32_t base = static_cast<uint32_t>(share / total_weight);
      alloc[s] += base;
      granted += base;
      remainders.emplace_back(share % total_weight, s);
    }
    std::sort(remainders.begin(), remainders.end(),
              [](const auto& a, const auto& b) {
                if (a.first != b.first) return a.first > b.first;
                return a.second < b.second;
              });
    for (size_t r = 0; granted < extra; ++r, ++granted) {
      alloc[remainders[r % ns].second] += 1;
    }
    extra = 0;
  }
  // No excess demand anywhere: deal the leftover round-robin.
  for (size_t s = 0; extra > 0; s = (s + 1) % ns, --extra) {
    alloc[s] += 1;
  }

  std::vector<uint64_t> isolated = StackSegments(alloc, shared_ways);
  std::vector<uint64_t> masks(n);
  for (size_t s = 0; s < ns; ++s) masks[sensitive[s]] = isolated[s];
  for (size_t i = 0; i < n; ++i) {
    if (streaming[i]) masks[i] = MaskForWays(shared_ways);
  }
  return masks;
}

// ---------------------------------------------------------------------------
// ClusteredWayAllocator

namespace {

/// A stream's MRC feature vector: the hit *ratio* at every way count, so
/// streams of different volumes but equal curve shape are close. Cold
/// streams (no shadow observations) are the zero vector — they gravitate
/// into one cluster instead of distorting measured ones.
std::vector<double> MrcFeature(const StreamProfile& p, uint32_t llc_ways) {
  std::vector<double> f(llc_ways, 0.0);
  if (p.mrc_accesses == 0) return f;
  const double denom = static_cast<double>(p.mrc_accesses);
  for (uint32_t w = 1; w <= llc_ways; ++w) {
    f[w - 1] = static_cast<double>(p.HitsAtWays(w)) / denom;
  }
  return f;
}

double SquaredDistance(const std::vector<double>& a,
                       const std::vector<double>& b) {
  double d = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double diff = a[i] - b[i];
    d += diff * diff;
  }
  return d;
}

/// Index of the centroid nearest to `f` (ties to the lowest index).
size_t NearestCentroid(const std::vector<double>& f,
                       const std::vector<std::vector<double>>& centroids) {
  size_t best = 0;
  double best_d = SquaredDistance(f, centroids[0]);
  for (size_t c = 1; c < centroids.size(); ++c) {
    const double d = SquaredDistance(f, centroids[c]);
    if (d < best_d) {
      best_d = d;
      best = c;
    }
  }
  return best;
}

}  // namespace

ClusteredWayAllocator::ClusteredWayAllocator(const ClusterConfig& config)
    : config_(config) {
  CATDB_CHECK(config_.max_clusters >= 1);
  CATDB_CHECK(config_.active_fraction > 0.0 &&
              config_.active_fraction <= 1.0);
  if (config_.grouping == ClusterGrouping::kRoundRobin) name_ = "lookahead";
}

std::vector<uint64_t> ClusteredWayAllocator::Allocate(
    const std::vector<StreamProfile>& streams, uint32_t llc_ways) {
  CATDB_CHECK(llc_ways >= 1);
  const size_t n = streams.size();
  cluster_of_stream_.clear();
  cluster_masks_.clear();
  if (n == 0) return {};

  const size_t k = std::min<size_t>(config_.max_clusters, n);
  std::vector<uint32_t> assign(n, 0);
  if (config_.grouping == ClusterGrouping::kRoundRobin) {
    for (size_t i = 0; i < n; ++i) assign[i] = static_cast<uint32_t>(i % k);
    return FinishAllocation(streams, llc_ways, k, assign);
  }

  std::vector<std::vector<double>> features(n);
  for (size_t i = 0; i < n; ++i) features[i] = MrcFeature(streams[i], llc_ways);

  // Farthest-first seeding from stream 0: deterministic, and it spreads the
  // initial centroids across the occupied region of MRC space.
  std::vector<std::vector<double>> centroids;
  centroids.push_back(features[0]);
  while (centroids.size() < k) {
    size_t far_i = 0;
    double far_d = -1.0;
    for (size_t i = 0; i < n; ++i) {
      double d = SquaredDistance(features[i], centroids[0]);
      for (size_t c = 1; c < centroids.size(); ++c) {
        d = std::min(d, SquaredDistance(features[i], centroids[c]));
      }
      if (d > far_d) {  // strict: ties keep the lowest index
        far_d = d;
        far_i = i;
      }
    }
    centroids.push_back(features[far_i]);
  }

  // Lloyd refinement for a fixed number of rounds.
  for (uint32_t round = 0; round < config_.kmeans_rounds; ++round) {
    for (size_t i = 0; i < n; ++i) {
      assign[i] = static_cast<uint32_t>(NearestCentroid(features[i], centroids));
    }
    std::vector<size_t> count(k, 0);
    std::vector<std::vector<double>> sums(
        k, std::vector<double>(llc_ways, 0.0));
    for (size_t i = 0; i < n; ++i) {
      count[assign[i]] += 1;
      for (uint32_t w = 0; w < llc_ways; ++w) {
        sums[assign[i]][w] += features[i][w];
      }
    }
    for (size_t c = 0; c < k; ++c) {
      if (count[c] == 0) {
        // Reseed an emptied cluster with the stream farthest from its own
        // centroid, so k stays effective.
        size_t far_i = 0;
        double far_d = -1.0;
        for (size_t i = 0; i < n; ++i) {
          const double d = SquaredDistance(features[i], centroids[assign[i]]);
          if (d > far_d) {
            far_d = d;
            far_i = i;
          }
        }
        centroids[c] = features[far_i];
        continue;
      }
      for (uint32_t w = 0; w < llc_ways; ++w) {
        sums[c][w] /= static_cast<double>(count[c]);
      }
      centroids[c] = std::move(sums[c]);
    }
  }
  for (size_t i = 0; i < n; ++i) {
    assign[i] = static_cast<uint32_t>(NearestCentroid(features[i], centroids));
  }
  return FinishAllocation(streams, llc_ways, k, assign);
}

std::vector<uint64_t> ClusteredWayAllocator::FinishAllocation(
    const std::vector<StreamProfile>& streams, uint32_t llc_ways, size_t k,
    const std::vector<uint32_t>& assign) {
  const size_t n = streams.size();
  // Compact away empty clusters (dense ids in stream order), then pool each
  // cluster's members into one profile: the cluster's aggregate MRC under
  // fair-share division of the partition among its members.
  std::vector<int> dense(k, -1);
  size_t num_clusters = 0;
  cluster_of_stream_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    if (dense[assign[i]] < 0) {
      dense[assign[i]] = static_cast<int>(num_clusters++);
    }
    cluster_of_stream_[i] = static_cast<uint32_t>(dense[assign[i]]);
  }
  std::vector<size_t> members(num_clusters, 0);
  for (size_t i = 0; i < n; ++i) members[cluster_of_stream_[i]] += 1;

  std::vector<StreamProfile> pooled(num_clusters);
  for (StreamProfile& p : pooled) {
    p.mrc_hits_at_ways.assign(llc_ways, 0);
    p.hit_ratio = 0.0;
  }
  for (size_t i = 0; i < n; ++i) {
    const size_t c = cluster_of_stream_[i];
    StreamProfile& p = pooled[c];
    // The cluster's partition is shared by its concurrently active members,
    // so its aggregate curve at w ways is the members' hits at their fair
    // share w/m of it — summing hits at the full w would keep a single
    // member's saturation point and starve large clusters. Linear
    // interpolation between the bracketing integer shares keeps the
    // marginal utility smooth for the lookahead sizer.
    const double m = std::max(
        1.0, static_cast<double>(members[c]) * config_.active_fraction);
    for (uint32_t w = 1; w <= llc_ways; ++w) {
      const double share = static_cast<double>(w) / m;
      const uint32_t lo = static_cast<uint32_t>(share);
      const double frac = share - lo;
      const double hits_lo = static_cast<double>(streams[i].HitsAtWays(lo));
      const double hits_hi =
          static_cast<double>(streams[i].HitsAtWays(lo + 1));
      p.mrc_hits_at_ways[w - 1] +=
          static_cast<uint64_t>(hits_lo + frac * (hits_hi - hits_lo));
    }
    p.mrc_accesses += streams[i].mrc_accesses;
    p.bandwidth_share += streams[i].bandwidth_share;
    p.llc_lookups += streams[i].llc_lookups;
  }
  for (StreamProfile& p : pooled) {
    // All-zero pooled curves mean the cluster is cold; drop the curve so the
    // lookahead sizing treats it as unknown-benefit rather than zero-benefit.
    if (p.mrc_accesses == 0) p.mrc_hits_at_ways.clear();
  }

  LookaheadUtilityAllocator sizer(config_.lookahead);
  cluster_masks_ = sizer.Allocate(pooled, llc_ways);

  std::vector<uint64_t> masks(n);
  for (size_t i = 0; i < n; ++i) masks[i] = cluster_masks_[cluster_of_stream_[i]];
  return masks;
}

}  // namespace catdb::policy
