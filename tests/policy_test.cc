// Tests for the utility-based allocation subsystem (src/policy/ and the
// shadow-tag profiler): the profiler against an exact full-tag LRU
// simulation, mask-validity properties of every WayAllocator, the
// observation-only invariant (profiled runs are cycle-identical), the
// threshold classifier's state machine, and the policy engine's widening
// hysteresis.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/bits.h"
#include "common/rng.h"
#include "engine/operators/column_scan.h"
#include "engine/runner.h"
#include "obs/report.h"
#include "policy/policy_engine.h"
#include "policy/way_allocator.h"
#include "simcache/shadow_profiler.h"
#include "storage/datagen.h"

namespace catdb {
namespace {

sim::MachineConfig SmallMachine() {
  sim::MachineConfig cfg;
  cfg.hierarchy.num_cores = 4;
  cfg.hierarchy.l1 = simcache::CacheGeometry{4, 2};
  cfg.hierarchy.l2 = simcache::CacheGeometry{8, 2};
  cfg.hierarchy.llc = simcache::CacheGeometry{64, 8};
  return cfg;
}

// --- Shadow-tag profiler vs exact simulation ---

// Reference model: hits of `trace` in a true-LRU cache of `num_sets` x
// `ways`, full tags, no sampling. The shadow profiler's stack-distance
// counters must reproduce this for every way count simultaneously.
uint64_t ExactLruHits(const std::vector<uint64_t>& trace, uint32_t num_sets,
                      uint32_t ways) {
  std::vector<std::vector<uint64_t>> sets(num_sets);
  uint64_t hits = 0;
  for (uint64_t line : trace) {
    std::vector<uint64_t>& s = sets[line & (num_sets - 1)];
    auto it = std::find(s.begin(), s.end(), line);
    if (it != s.end()) {
      hits += 1;
      s.erase(it);
    } else if (s.size() == ways) {
      s.pop_back();
    }
    s.insert(s.begin(), line);  // MRU at the front
  }
  return hits;
}

std::vector<uint64_t> MixedTrace(uint64_t seed, size_t length) {
  // A hot working set with occasional streaming excursions: exercises all
  // stack distances, including misses at full associativity.
  Rng rng(seed);
  std::vector<uint64_t> trace;
  uint64_t stream_line = 1000;
  for (size_t i = 0; i < length; ++i) {
    if (rng.Uniform(4) == 0) {
      trace.push_back(stream_line++);
    } else {
      trace.push_back(rng.Uniform(24));
    }
  }
  return trace;
}

TEST(ShadowProfilerTest, MatchesExactFullTagSimulation) {
  const simcache::CacheGeometry llc{/*num_sets=*/4, /*num_ways=*/4};
  simcache::ShadowProfilerConfig cfg;
  cfg.set_sample_period = 1;  // every set: exact, directly comparable
  cfg.max_clos = 2;
  simcache::ShadowTagProfiler profiler(llc, cfg);

  const std::vector<uint64_t> traces[2] = {MixedTrace(11, 3000),
                                           MixedTrace(22, 2000)};
  for (uint32_t clos = 0; clos < 2; ++clos) {
    for (uint64_t line : traces[clos]) profiler.Observe(clos, line);
  }
  for (uint32_t clos = 0; clos < 2; ++clos) {
    const simcache::MissRateCurve curve = profiler.Curve(clos);
    ASSERT_EQ(curve.hits_at_ways.size(), llc.num_ways);
    EXPECT_EQ(curve.accesses, traces[clos].size());
    for (uint32_t w = 1; w <= llc.num_ways; ++w) {
      EXPECT_EQ(curve.hits_at_ways[w - 1],
                ExactLruHits(traces[clos], llc.num_sets, w))
          << "clos " << clos << " ways " << w;
    }
  }
}

TEST(ShadowProfilerTest, CurveIsMonotoneAndAgingHalves) {
  const simcache::CacheGeometry llc{/*num_sets=*/8, /*num_ways=*/8};
  simcache::ShadowProfilerConfig cfg;
  cfg.set_sample_period = 1;
  simcache::ShadowTagProfiler profiler(llc, cfg);
  for (uint64_t line : MixedTrace(33, 4000)) profiler.Observe(0, line);

  const simcache::MissRateCurve before = profiler.Curve(0);
  for (size_t w = 1; w < before.hits_at_ways.size(); ++w) {
    EXPECT_GE(before.hits_at_ways[w], before.hits_at_ways[w - 1]);
  }
  EXPECT_LE(before.hits_at_ways.back(), before.accesses);

  profiler.Age();
  const simcache::MissRateCurve after = profiler.Curve(0);
  EXPECT_EQ(after.accesses, before.accesses / 2);
  for (size_t w = 0; w < after.hits_at_ways.size(); ++w) {
    EXPECT_LE(after.hits_at_ways[w], before.hits_at_ways[w]);
  }
}

TEST(ShadowProfilerTest, SetSamplingIgnoresUnsampledSets) {
  const simcache::CacheGeometry llc{/*num_sets=*/8, /*num_ways=*/2};
  simcache::ShadowProfilerConfig cfg;
  cfg.set_sample_period = 4;  // sets 0 and 4 only
  simcache::ShadowTagProfiler profiler(llc, cfg);
  profiler.Observe(0, /*line=*/1);  // set 1: unsampled
  profiler.Observe(0, /*line=*/3);  // set 3: unsampled
  EXPECT_EQ(profiler.Curve(0).accesses, 0u);
  profiler.Observe(0, /*line=*/4);  // set 4: sampled
  EXPECT_EQ(profiler.Curve(0).accesses, 1u);
}

// --- WayAllocator mask-validity properties ---

std::vector<policy::StreamProfile> RandomProfiles(Rng* rng, size_t n,
                                                  uint32_t llc_ways) {
  std::vector<policy::StreamProfile> profiles(n);
  for (policy::StreamProfile& p : profiles) {
    if (rng->Uniform(5) == 0) continue;  // cold stream: empty curve
    p.mrc_hits_at_ways.resize(llc_ways);
    uint64_t cum = 0;
    for (uint32_t w = 0; w < llc_ways; ++w) {
      cum += rng->Uniform(1000);
      p.mrc_hits_at_ways[w] = cum;
    }
    p.mrc_accesses = cum + rng->Uniform(1000);
    p.bandwidth_share = static_cast<double>(rng->Uniform(101)) / 100.0;
    p.hit_ratio = static_cast<double>(rng->Uniform(101)) / 100.0;
    p.llc_lookups = rng->Uniform(100000);
  }
  return profiles;
}

void ExpectValidMasks(const std::vector<uint64_t>& masks, size_t n,
                      uint32_t llc_ways, const std::string& context) {
  ASSERT_EQ(masks.size(), n) << context;
  for (size_t i = 0; i < masks.size(); ++i) {
    EXPECT_NE(masks[i], 0u) << context << " stream " << i;
    EXPECT_TRUE(IsContiguousMask(masks[i])) << context << " stream " << i;
    EXPECT_EQ(masks[i] & ~MaskForWays(llc_ways), 0u)
        << context << " stream " << i;
  }
}

class AllocatorPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AllocatorPropertyTest, EveryAllocatorYieldsValidCatMasks) {
  Rng rng(GetParam());
  const uint32_t way_options[] = {1, 2, 3, 5, 8, 16, 20};
  for (int round = 0; round < 40; ++round) {
    const uint32_t llc_ways = way_options[rng.Uniform(std::size(way_options))];
    const size_t n = 1 + rng.Uniform(6);
    const auto profiles = RandomProfiles(&rng, n, llc_ways);
    const std::string context = "ways=" + std::to_string(llc_ways) +
                                " n=" + std::to_string(n) +
                                " round=" + std::to_string(round);

    std::vector<bool> polluting(n);
    for (size_t i = 0; i < n; ++i) polluting[i] = rng.Uniform(2) == 1;
    policy::StaticPaperAllocator st(engine::PolicyConfig{}, polluting);
    ExpectValidMasks(st.Allocate(profiles, llc_ways), n, llc_ways,
                     "static " + context);

    policy::LookaheadUtilityAllocator la;
    const auto la_masks = la.Allocate(profiles, llc_ways);
    ExpectValidMasks(la_masks, n, llc_ways, "lookahead " + context);
    if (llc_ways >= n) {
      // When disjoint partitions fit, the lookahead result tiles the LLC.
      uint32_t total = 0;
      for (size_t i = 0; i < n; ++i) {
        total += PopCount(la_masks[i]);
        for (size_t j = i + 1; j < n; ++j) {
          EXPECT_EQ(la_masks[i] & la_masks[j], 0u)
              << "lookahead overlap " << context;
        }
      }
      EXPECT_EQ(total, llc_ways) << "lookahead tiling " << context;
    }

    policy::FairnessClusterAllocator fc;
    ExpectValidMasks(fc.Allocate(profiles, llc_ways), n, llc_ways,
                     "fairness " + context);

    policy::DynamicPolicyConfig dc;
    dc.polluting_ways = std::min<uint32_t>(dc.polluting_ways, llc_ways);
    policy::ThresholdAllocator th(dc, n);
    ExpectValidMasks(th.Allocate(profiles, llc_ways), n, llc_ways,
                     "threshold " + context);

    for (const auto grouping : {policy::ClusterGrouping::kMrcSimilarity,
                                policy::ClusterGrouping::kRoundRobin}) {
      policy::ClusterConfig cc;
      cc.grouping = grouping;
      cc.max_clusters = 1 + rng.Uniform(4);
      cc.active_fraction = rng.Uniform(2) == 0 ? 1.0 : 0.25;
      policy::ClusteredWayAllocator cl(cc);
      const auto cl_masks = cl.Allocate(profiles, llc_ways);
      ExpectValidMasks(cl_masks, n, llc_ways, "cluster " + context);
      // Introspection invariants: every stream maps to a dense cluster id
      // whose mask is exactly the stream's mask, and k never exceeds the cap.
      ASSERT_EQ(cl.cluster_of_stream().size(), n) << "cluster " << context;
      EXPECT_LE(cl.num_clusters(), cc.max_clusters) << "cluster " << context;
      for (size_t i = 0; i < n; ++i) {
        const uint32_t c = cl.cluster_of_stream()[i];
        ASSERT_LT(c, cl.num_clusters()) << "cluster " << context;
        EXPECT_EQ(cl.cluster_masks()[c], cl_masks[i])
            << "cluster " << context << " stream " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllocatorPropertyTest,
                         ::testing::Values(101, 202, 303, 404, 505));

// --- Allocator decision behaviour ---

policy::StreamProfile ProfileFromCurve(std::vector<uint64_t> curve,
                                       uint64_t accesses) {
  policy::StreamProfile p;
  p.mrc_hits_at_ways = std::move(curve);
  p.mrc_accesses = accesses;
  return p;
}

TEST(StaticPaperAllocatorTest, AnnotationsPickThePaperMasks) {
  engine::PolicyConfig cfg;
  cfg.polluting_ways = 2;
  policy::StaticPaperAllocator alloc(cfg, {false, true});
  const auto masks = alloc.Allocate(std::vector<policy::StreamProfile>(2),
                                    /*llc_ways=*/20);
  EXPECT_EQ(masks[0], MaskForWays(20));  // unannotated: full cache
  EXPECT_EQ(masks[1], 0x3u);             // polluting: the paper's 0x3
}

TEST(LookaheadAllocatorTest, GrantsWaysByMarginalUtility) {
  // Stream 0 keeps gaining hits way after way; stream 1 is flat (streaming).
  // Lookahead must grow stream 0's partition and leave stream 1 the floor.
  const auto sensitive = ProfileFromCurve(
      {100, 1000, 2000, 3000, 4000, 5000, 6000, 6400}, 6400);
  const auto streaming = ProfileFromCurve(
      {10, 10, 10, 10, 10, 10, 10, 10}, 10000);
  policy::LookaheadUtilityAllocator alloc;
  const auto masks = alloc.Allocate({sensitive, streaming}, /*llc_ways=*/8);
  EXPECT_EQ(PopCount(masks[0]), 6u);
  EXPECT_EQ(PopCount(masks[1]), 2u);
  EXPECT_EQ(masks[0] & masks[1], 0u);
}

TEST(LookaheadAllocatorTest, LooksAheadPastUtilityPlateaus) {
  // Stream 0's curve is flat for two ways and then jumps (a plateau before a
  // knee): single-step greedy would never cross it, the lookahead bid
  // (gain/k maximized over extensions) must.
  const auto plateau = ProfileFromCurve(
      {100, 100, 100, 100, 9000, 9000, 9000, 9000}, 10000);
  const auto modest = ProfileFromCurve(
      {200, 300, 400, 500, 600, 700, 800, 900}, 10000);
  policy::LookaheadUtilityAllocator alloc;
  const auto masks = alloc.Allocate({plateau, modest}, /*llc_ways=*/8);
  // Crossing the plateau needs 5+ ways for stream 0.
  EXPECT_GE(PopCount(masks[0]), 5u);
}

TEST(FairnessAllocatorTest, ConfinesStreamingAndIsolatesSensitive) {
  // Stream 0 saturates at 4 ways with a high full-cache hit ratio; stream 1
  // misses nearly everything even with the whole cache.
  const auto sensitive = ProfileFromCurve(
      {2000, 5000, 7000, 9000, 9100, 9150, 9180, 9200}, 10000);
  const auto streaming = ProfileFromCurve(
      {100, 150, 200, 250, 300, 350, 400, 450}, 10000);
  policy::FairnessClusterAllocator alloc;
  const auto masks = alloc.Allocate({sensitive, streaming}, /*llc_ways=*/8);
  EXPECT_EQ(masks[1], 0x3u);  // the shared low partition (2 ways)
  EXPECT_EQ(masks[0] & masks[1], 0u);  // isolated from the squanderer
  EXPECT_GE(PopCount(masks[0]), 2u);

  // A cold stream (no observations) must count as sensitive, not streaming.
  policy::StreamProfile cold;
  const auto masks2 = alloc.Allocate({cold, streaming}, /*llc_ways=*/8);
  EXPECT_EQ(masks2[1], 0x3u);
  EXPECT_EQ(masks2[0] & masks2[1], 0u);
}

// --- Threshold classifier state machine ---

TEST(DynamicClassifierTest, RestrictsImmediatelyWidensAfterStreak) {
  policy::DynamicPolicyConfig cfg;
  cfg.unrestrict_intervals = 2;
  policy::ThresholdAllocator classifier(cfg, /*num_streams=*/1);

  // Polluter profile: high bandwidth, low hit ratio -> restrict at once.
  auto d = classifier.OnInterval(0, 0.5, 0.05, 1000);
  EXPECT_TRUE(d.restricted);
  EXPECT_TRUE(d.changed);

  // One clean interval is not enough to widen.
  d = classifier.OnInterval(0, 0.01, 0.9, 1000);
  EXPECT_TRUE(d.restricted);
  EXPECT_FALSE(d.changed);
  // Second consecutive clean interval widens.
  d = classifier.OnInterval(0, 0.01, 0.9, 1000);
  EXPECT_FALSE(d.restricted);
  EXPECT_TRUE(d.changed);
}

TEST(DynamicClassifierTest, ZeroUnrestrictIntervalsWidensImmediately) {
  // unrestrict_intervals == 0 disables the hysteresis: the first clean
  // interval widens (same as 1). This used to abort at construction.
  policy::DynamicPolicyConfig cfg;
  cfg.unrestrict_intervals = 0;
  policy::ThresholdAllocator classifier(cfg, /*num_streams=*/1);

  auto d = classifier.OnInterval(0, 0.5, 0.05, 1000);
  EXPECT_TRUE(d.restricted);
  d = classifier.OnInterval(0, 0.01, 0.9, 1000);
  EXPECT_FALSE(d.restricted);
  EXPECT_TRUE(d.changed);
}

TEST(DynamicClassifierTest, BandwidthWithoutLookupsHoldsCleanStreak) {
  // An interval that moved data (nonzero bandwidth share) without any
  // demand LLC lookups is ambiguous — the idle hit_ratio default of 1.0
  // says nothing about reuse (pure prefetch fills, or a stream stalled
  // behind the DRAM queue). It must neither advance nor reset the clean
  // streak.
  policy::DynamicPolicyConfig cfg;
  cfg.unrestrict_intervals = 2;
  policy::ThresholdAllocator classifier(cfg, /*num_streams=*/1);

  EXPECT_TRUE(classifier.OnInterval(0, 0.5, 0.05, 1000).restricted);
  // Clean #1.
  EXPECT_TRUE(classifier.OnInterval(0, 0.01, 0.9, 1000).restricted);
  // Ambiguous: bandwidth but no lookups. Must not count as clean #2 ...
  auto d = classifier.OnInterval(0, 0.5, 1.0, 0);
  EXPECT_TRUE(d.restricted);
  EXPECT_FALSE(d.changed);
  // ... and must not have reset the streak either: one more clean interval
  // completes the streak of two.
  d = classifier.OnInterval(0, 0.01, 0.9, 1000);
  EXPECT_FALSE(d.restricted);
  EXPECT_TRUE(d.changed);

  // A genuinely idle interval (no lookups, no bandwidth) still counts
  // toward the streak.
  EXPECT_TRUE(classifier.OnInterval(0, 0.5, 0.05, 1000).restricted);
  classifier.OnInterval(0, 0.0, 1.0, 0);  // idle: clean #1
  d = classifier.OnInterval(0, 0.0, 1.0, 0);  // idle: clean #2 -> widen
  EXPECT_FALSE(d.restricted);
  EXPECT_TRUE(d.changed);
}

TEST(DynamicClassifierTest, IdleIntervalDoesNotFlapRestriction) {
  // The idle default (no lookups -> hit_ratio 1.0, bandwidth 0) used to
  // widen a restricted polluter after a single quiet interval, producing
  // restrict/widen flapping. With hysteresis the polluter stays put.
  policy::DynamicPolicyConfig cfg;
  cfg.unrestrict_intervals = 2;
  policy::ThresholdAllocator classifier(cfg, /*num_streams=*/1);

  uint32_t flips = 0;
  auto feed = [&](double bw, double hr) {
    // Idle intervals (bw == 0) carry no lookups; active ones do.
    auto d = classifier.OnInterval(0, bw, hr, bw > 0.0 ? 1000 : 0);
    if (d.changed) ++flips;
    return d;
  };
  EXPECT_TRUE(feed(0.5, 0.05).restricted);  // restrict
  // Alternate idle / polluting intervals: a classifier without hysteresis
  // would flip twice per cycle; with the 2-interval streak it never widens.
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(feed(0.0, 1.0).restricted);   // idle
    EXPECT_TRUE(feed(0.5, 0.05).restricted);  // polluting again
  }
  EXPECT_EQ(flips, 1u);

  // And a polluting interval resets the clean streak mid-count.
  feed(0.0, 1.0);            // clean #1
  feed(0.5, 0.05);           // polluter: streak resets
  feed(0.0, 1.0);            // clean #1 again
  auto d = feed(0.0, 1.0);   // clean #2: now it widens
  EXPECT_FALSE(d.restricted);
  EXPECT_TRUE(d.changed);
}

// --- Observation-only invariant ---

TEST(PolicyEngineTest, AttachedProfilerLeavesRunsCycleIdentical) {
  // Two identically seeded machines and workloads; one runs with a shadow
  // profiler attached. Simulated results must match bit for bit.
  sim::Machine plain(SmallMachine());
  sim::Machine profiled(SmallMachine());
  simcache::ShadowTagProfiler profiler(
      profiled.config().hierarchy.llc, simcache::ShadowProfilerConfig{});
  profiled.hierarchy().AttachShadowProfiler(&profiler);

  engine::RunReport reports[2];
  sim::Machine* machines[2] = {&plain, &profiled};
  for (int i = 0; i < 2; ++i) {
    storage::DictColumn col = storage::MakeUniformDomainColumn(30000, 100, 3);
    col.AttachSim(machines[i]);
    engine::ColumnScanQuery query(&col, 4);
    query.AttachSim(machines[i]);
    reports[i] = engine::RunWorkload(machines[i], {{&query, {0, 1}}},
                                     /*horizon_cycles=*/300'000,
                                     engine::PolicyConfig{});
  }
  profiled.hierarchy().AttachShadowProfiler(nullptr);

  EXPECT_EQ(reports[0].streams[0].iterations, reports[1].streams[0].iterations);
  EXPECT_EQ(reports[0].stats.llc.hits, reports[1].stats.llc.hits);
  EXPECT_EQ(reports[0].stats.llc.misses, reports[1].stats.llc.misses);
  EXPECT_EQ(reports[0].stats.dram_accesses, reports[1].stats.dram_accesses);
  for (uint32_t c = 0; c < 2; ++c) {
    EXPECT_EQ(plain.clock(c), profiled.clock(c)) << "core " << c;
  }
  // ...and the profiler did actually observe the run.
  EXPECT_GT(profiler.Curve(0).accesses, 0u);
}

// --- Policy engine control behaviour ---

// Allocator scripted per decision interval; the last entry repeats forever.
using Script = std::vector<std::vector<uint64_t>>;

class ScriptedAllocator : public policy::WayAllocator {
 public:
  explicit ScriptedAllocator(Script script)
      : script_(std::move(script)) {}
  const std::string& name() const override { return name_; }
  std::vector<uint64_t> Allocate(const std::vector<policy::StreamProfile>&,
                                 uint32_t) override {
    const size_t idx = std::min(call_, script_.size() - 1);
    ++call_;
    return script_[idx];
  }

 private:
  Script script_;
  size_t call_ = 0;
  std::string name_ = "scripted";
};

struct EngineRig {
  EngineRig() : machine(SmallMachine()) {
    col = storage::MakeUniformDomainColumn(30000, 100, 3);
    col.AttachSim(&machine);
    query.emplace(&col, 4);
    query->AttachSim(&machine);
  }
  policy::PolicyRunReport Run(policy::WayAllocator* allocator,
                              uint32_t widen_intervals) {
    policy::PolicyEngineConfig cfg;
    cfg.interval_cycles = 100'000;
    cfg.widen_intervals = widen_intervals;
    return policy::RunWorkloadWithAllocator(&machine, {{&*query, {0, 1}}},
                                            /*horizon_cycles=*/600'000,
                                            allocator, cfg);
  }
  sim::Machine machine;
  storage::DictColumn col;
  std::optional<engine::ColumnScanQuery> query;
};

TEST(PolicyEngineTest, NarrowsImmediatelyAndSkipsRedundantWrites) {
  EngineRig rig;
  ScriptedAllocator alloc(Script{{0x3}});
  const auto rep = rig.Run(&alloc, /*widen_intervals=*/2);
  EXPECT_EQ(rep.intervals, 6u);
  EXPECT_EQ(rep.schemata_writes, 1u);  // narrowed once, never re-written
  ASSERT_EQ(rep.final_masks.size(), 1u);
  EXPECT_EQ(rep.final_masks[0], 0x3u);
  EXPECT_EQ(rep.group_names, std::vector<std::string>{"stream0"});
  EXPECT_EQ(rep.interval_series.size(), rep.intervals);
}

TEST(PolicyEngineTest, WideningWaitsForTheConfiguredStreak) {
  EngineRig rig;
  // Narrow for three intervals, then propose the full mask forever.
  ScriptedAllocator alloc(Script{{0x3}, {0x3}, {0x3}, {0xFF}});
  const auto rep = rig.Run(&alloc, /*widen_intervals=*/3);
  // Write 1: the immediate narrow at interval 1. The widen proposals at
  // intervals 4 and 5 only build the streak; the third (interval 6) applies.
  EXPECT_EQ(rep.schemata_writes, 2u);
  EXPECT_EQ(rep.final_masks[0], 0xFFu);
}

TEST(PolicyEngineTest, ZeroWidenIntervalsWidensImmediately) {
  EngineRig rig;
  ScriptedAllocator alloc(Script{{0x3}, {0xFF}});
  const auto rep = rig.Run(&alloc, /*widen_intervals=*/0);
  EXPECT_EQ(rep.schemata_writes, 2u);  // narrow at 1, widen right at 2
  EXPECT_EQ(rep.final_masks[0], 0xFFu);
}

TEST(PolicyEngineTest, InterruptedWidenStreakNeverApplies) {
  EngineRig rig;
  // Alternate full/narrow proposals: the widen streak resets every other
  // interval, so the mask must stay narrow throughout.
  ScriptedAllocator alloc(
      Script{{0x3}, {0xFF}, {0x3}, {0xFF}, {0x3}, {0xFF}});
  const auto rep = rig.Run(&alloc, /*widen_intervals=*/2);
  EXPECT_EQ(rep.schemata_writes, 1u);
  EXPECT_EQ(rep.final_masks[0], 0x3u);
}

TEST(PolicyEngineTest, IntervalSamplesCarryMissRateCurves) {
  EngineRig rig;
  policy::LookaheadUtilityAllocator alloc;
  const auto rep = rig.Run(&alloc, /*widen_intervals=*/2);
  ASSERT_FALSE(rep.interval_series.empty());
  const obs::ClosIntervalSample& cs = rep.interval_series.front().clos[0];
  EXPECT_EQ(cs.mrc_hits_at_ways.size(), 8u);  // one point per LLC way
  EXPECT_GT(cs.mrc_accesses, 0u);

  // The report writer surfaces the curves in the JSON document.
  obs::RunReportWriter writer("policy_test");
  writer.AddPolicyRun("lookahead", rep);
  const std::string json = writer.Json();
  EXPECT_NE(json.find("\"kind\":\"policy\""), std::string::npos);
  EXPECT_NE(json.find("mrc_hits_at_ways"), std::string::npos);
  EXPECT_NE(json.find("\"allocator\":\"lookahead\""), std::string::npos);
}

TEST(PolicyEngineTest, ThresholdRunSamplesCarryNoMissRateCurves) {
  // The threshold classifier reads only the interval counters, so the loop
  // runs it without a shadow profiler: no curves in the samples or report.
  EngineRig rig;
  policy::DynamicPolicyConfig cfg;
  cfg.interval_cycles = 100'000;
  const auto rep = policy::RunWorkloadDynamic(
      &rig.machine, {{&*rig.query, {0, 1}}}, /*horizon_cycles=*/600'000, cfg);
  ASSERT_EQ(rep.interval_series.size(), 6u);
  for (const obs::IntervalSample& sample : rep.interval_series) {
    for (const obs::ClosIntervalSample& cs : sample.clos) {
      EXPECT_TRUE(cs.mrc_hits_at_ways.empty());
      EXPECT_EQ(cs.mrc_accesses, 0u);
    }
  }
  obs::RunReportWriter writer("policy_test");
  writer.AddDynamicRun("dynamic", rep);
  const std::string json = writer.Json();
  EXPECT_NE(json.find("\"kind\":\"dynamic\""), std::string::npos);
  EXPECT_EQ(json.find("mrc_"), std::string::npos);
}

TEST(PolicyEngineTest, FullWidthRestrictionWritesNoSchemata) {
  // With polluting_ways == llc_ways the restricted mask is the full mask:
  // the stream is still classified and reported restricted, but the loop
  // skips the no-op schemata write like it does for every allocator.
  EngineRig rig;
  policy::DynamicPolicyConfig cfg;
  cfg.interval_cycles = 100'000;
  cfg.polluting_ways = rig.machine.config().hierarchy.llc.num_ways;
  // The first interval (cold misses) classifies the scan as polluting, and
  // no later clean phase is long enough to widen it again.
  cfg.polluter_bandwidth_share = 0.0;
  cfg.polluter_hit_ratio = 1.0;
  cfg.unrestrict_intervals = 100;
  const auto rep = policy::RunWorkloadDynamic(
      &rig.machine, {{&*rig.query, {0, 1}}}, /*horizon_cycles=*/600'000, cfg);
  EXPECT_EQ(rep.restricted, std::vector<bool>{true});
  EXPECT_EQ(rep.restricted_at_interval, std::vector<uint32_t>{1});
  EXPECT_EQ(rep.schemata_writes, 0u);
}

}  // namespace
}  // namespace catdb
