#include <gtest/gtest.h>

#include <string>

#include "common/rng.h"
#include "model_hierarchy.h"
#include "simcache/hierarchy.h"

namespace catdb::simcache {
namespace {

HierarchyConfig TinyConfig() {
  HierarchyConfig cfg;
  cfg.num_cores = 2;
  cfg.l1 = CacheGeometry{4, 2};
  cfg.l2 = CacheGeometry{8, 2};
  cfg.llc = CacheGeometry{32, 4};
  cfg.prefetcher.enabled = false;  // most tests want raw level behaviour
  return cfg;
}

uint64_t Full(const MemoryHierarchy& h) {
  return (uint64_t{1} << h.config().llc.num_ways) - 1;
}

TEST(HierarchyTest, FirstAccessMissesToDramThenHitsL1) {
  MemoryHierarchy h(TinyConfig());
  auto r1 = h.Access(0, 0x1000, 0, Full(h));
  EXPECT_EQ(r1.level, HitLevel::kDram);
  auto r2 = h.Access(0, 0x1000, 1000, Full(h));
  EXPECT_EQ(r2.level, HitLevel::kL1);
  EXPECT_LT(r2.latency_cycles, r1.latency_cycles);
}

TEST(HierarchyTest, OtherCoreHitsSharedLlcNotPrivateCaches) {
  MemoryHierarchy h(TinyConfig());
  h.Access(0, 0x1000, 0, Full(h));
  auto r = h.Access(1, 0x1000, 1000, Full(h));
  EXPECT_EQ(r.level, HitLevel::kLlc);
}

TEST(HierarchyTest, LatencyOrderingAcrossLevels) {
  const auto& lat = HierarchyConfig{}.latency;
  EXPECT_LT(lat.l1_hit, lat.l2_hit);
  EXPECT_LT(lat.l2_hit, lat.llc_hit);
  EXPECT_LT(lat.llc_hit, lat.dram);
}

TEST(HierarchyTest, InclusiveEvictionBackInvalidatesPrivateCaches) {
  MemoryHierarchy h(TinyConfig());
  // Load a line on core 0, then thrash its LLC set from core 1 until the
  // line is gone from the LLC; inclusivity requires it to vanish from core
  // 0's private caches as well.
  h.Access(0, 0, 0, Full(h));
  ASSERT_TRUE(h.l1(0).Contains(0));
  const uint32_t target_set = h.llc().geometry().SetOf(0);
  uint64_t evictions_needed = 0;
  for (uint64_t line = 1; evictions_needed < 64 && h.llc().Contains(0);
       ++line) {
    if (h.llc().geometry().SetOf(line) != target_set) continue;
    h.Access(1, line * kLineSize, 100 + line, Full(h));
    ++evictions_needed;
  }
  ASSERT_FALSE(h.llc().Contains(0));
  EXPECT_FALSE(h.l1(0).Contains(0));
  EXPECT_FALSE(h.l2(0).Contains(0));
  EXPECT_GT(h.stats().llc_back_invalidations, 0u);
}

TEST(HierarchyTest, NonInclusiveModeLeavesPrivateCachesAlone) {
  HierarchyConfig cfg = TinyConfig();
  cfg.inclusive_llc = false;
  MemoryHierarchy h(cfg);
  h.Access(0, 0, 0, Full(h));
  const uint32_t target_set = h.llc().geometry().SetOf(0);
  uint64_t count = 0;
  for (uint64_t line = 1; count < 64 && h.llc().Contains(0); ++line) {
    if (h.llc().geometry().SetOf(line) != target_set) continue;
    h.Access(1, line * kLineSize, 100 + line, Full(h));
    ++count;
  }
  ASSERT_FALSE(h.llc().Contains(0));
  EXPECT_TRUE(h.l1(0).Contains(0));  // stale but present: not invalidated
}

TEST(HierarchyTest, AllocMaskConfinesFills) {
  MemoryHierarchy h(TinyConfig());
  // Fill through a 1-way mask; every cached line must sit in way 0.
  for (uint64_t line = 0; line < 256; ++line) {
    h.Access(0, line * kLineSize, line, 0x1);
  }
  std::vector<uint64_t> lines;
  h.llc().CollectValidLines(&lines);
  ASSERT_FALSE(lines.empty());
  for (uint64_t line : lines) {
    EXPECT_EQ(h.llc().WayOf(line), 0);
  }
}

TEST(HierarchyTest, StatsCountHitsAndMissesPerLevel) {
  MemoryHierarchy h(TinyConfig());
  h.Access(0, 0, 0, Full(h));      // L1/L2/LLC miss + DRAM
  h.Access(0, 0, 100, Full(h));    // L1 hit
  h.Access(1, 0, 200, Full(h));    // LLC hit for core 1
  const auto& s = h.stats();
  EXPECT_EQ(s.l1.hits, 1u);
  EXPECT_EQ(s.llc.hits, 1u);
  EXPECT_EQ(s.llc.misses, 1u);
  EXPECT_EQ(s.dram_accesses, 1u);
  EXPECT_EQ(h.core_stats(0).l1.hits, 1u);
  EXPECT_EQ(h.core_stats(1).llc.hits, 1u);
}

// HierarchyConfig::simd picks the path: true selects the process default
// (kAvx512 on a host with AVX-512F, unless CATDB_NO_SIMD is set), false
// selects scalar.
TEST(HierarchyTest, SimdFlagSelectsDefaultOrScalarLevel) {
  for (const bool simd : {true, false}) {
    HierarchyConfig cfg = TinyConfig();
    cfg.simd = simd;
    const MemoryHierarchy h(cfg);
    EXPECT_EQ(h.simd_level(),
              simd ? DefaultSimdLevel() : SimdLevel::kScalar)
        << "simd=" << simd;
  }
}

TEST(HierarchyTest, MissesPerInstructionUsesInstructionCounter) {
  MemoryHierarchy h(TinyConfig());
  h.Access(0, 0, 0, Full(h));
  h.CountInstructions(1000);
  EXPECT_DOUBLE_EQ(h.stats().llc_misses_per_instruction(), 1.0 / 1000);
}

TEST(HierarchyTest, PrefetcherHidesSequentialStreamLatency) {
  HierarchyConfig cfg = TinyConfig();
  cfg.prefetcher.enabled = true;
  MemoryHierarchy h(cfg);
  uint64_t clock = 0;
  uint64_t dram_level_hits = 0;
  for (uint64_t line = 0; line < 512; ++line) {
    auto r = h.Access(0, line * kLineSize, clock, Full(h));
    clock += r.latency_cycles + 30;
    if (r.level == HitLevel::kDram) ++dram_level_hits;
  }
  // Nearly all demand accesses are covered by the streamer.
  EXPECT_LT(dram_level_hits, 20u);
  EXPECT_GT(h.stats().prefetch_hits, 400u);
}

TEST(HierarchyTest, PrefetchFillsCountAsLlcMisses) {
  HierarchyConfig cfg = TinyConfig();
  cfg.prefetcher.enabled = true;
  MemoryHierarchy h(cfg);
  uint64_t clock = 0;
  for (uint64_t line = 0; line < 128; ++line) {
    clock += h.Access(0, line * kLineSize, clock, Full(h)).latency_cycles;
  }
  // Hardware-counter-style accounting: ~one LLC miss per streamed line.
  EXPECT_GT(h.stats().llc.misses, 100u);
}

TEST(HierarchyTest, ResetAllClearsCachesAndStats) {
  MemoryHierarchy h(TinyConfig());
  h.Access(0, 0, 0, Full(h));
  h.ResetAll();
  EXPECT_EQ(h.llc().ValidLineCount(), 0u);
  EXPECT_EQ(h.stats().dram_accesses, 0u);
  EXPECT_EQ(h.Access(0, 0, 0, Full(h)).level, HitLevel::kDram);
}

// Property: the inclusion invariant holds after arbitrary interleaved
// traffic with arbitrary masks.
class InclusionPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(InclusionPropertyTest, InclusionHoldsUnderRandomTraffic) {
  HierarchyConfig cfg = TinyConfig();
  cfg.prefetcher.enabled = true;
  MemoryHierarchy h(cfg);
  Rng rng(GetParam());
  const uint64_t masks[] = {0x1, 0x3, 0x7, 0xF};
  uint64_t clock = 0;
  for (int i = 0; i < 5000; ++i) {
    const uint32_t core = static_cast<uint32_t>(rng.Uniform(2));
    const uint64_t addr = rng.Uniform(1u << 16);
    clock += h.Access(core, addr, clock, masks[rng.Uniform(4)])
                 .latency_cycles;
  }
  EXPECT_TRUE(h.CheckInclusion());
}

INSTANTIATE_TEST_SUITE_P(Seeds, InclusionPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// Property: per-CLOS occupancy counters (the CMT model) track LLC line
// ownership exactly under the full mix of fill paths — demand fills,
// prefetch fills, promotions, evictions with owner change, and inclusive
// back-invalidations — with each class confined to a different mask.
class ClosOccupancyPropertyTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(ClosOccupancyPropertyTest, OccupancySumTracksValidLinesExactly) {
  HierarchyConfig cfg = TinyConfig();
  cfg.prefetcher.enabled = true;  // prefetch fills must be accounted too
  MemoryHierarchy h(cfg);
  Rng rng(GetParam());
  // Overlapping masks: classes contend for ways, so fills regularly evict
  // lines owned by a *different* class (the owner-transfer path).
  const uint64_t masks[] = {0x3, 0x6, 0xC, 0xF};
  uint64_t clock = 0;
  for (int i = 0; i < 20000; ++i) {
    const uint32_t core = static_cast<uint32_t>(rng.Uniform(2));
    const uint32_t clos = static_cast<uint32_t>(rng.Uniform(4));
    uint64_t addr = rng.Uniform(1u << 15);
    if (rng.Uniform(4) == 0) {
      // Sequential bursts wake the stream prefetcher.
      for (int j = 0; j < 4; ++j) {
        clock +=
            h.Access(core, addr + j * kLineSize, clock, masks[clos], clos)
                .latency_cycles;
      }
    } else {
      clock += h.Access(core, addr, clock, masks[clos], clos).latency_cycles;
    }
    if (i % 1000 == 0) {
      uint64_t sum = 0;
      for (uint32_t c = 0; c < MemoryHierarchy::kMaxClos; ++c) {
        sum += h.clos_monitor(c).occupancy_lines;
      }
      ASSERT_EQ(sum, h.llc().ValidLineCount()) << "after access " << i;
    }
  }
  uint64_t sum = 0;
  for (uint32_t c = 0; c < MemoryHierarchy::kMaxClos; ++c) {
    sum += h.clos_monitor(c).occupancy_lines;
  }
  EXPECT_EQ(sum, h.llc().ValidLineCount());
  EXPECT_GT(h.stats().llc_back_invalidations, 0u);
  EXPECT_GT(h.stats().prefetches_issued, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClosOccupancyPropertyTest,
                         ::testing::Values(10, 20, 30, 40));

void ExpectStatsEqual(const HierarchyStats& a, const HierarchyStats& b,
                      int at) {
  ASSERT_EQ(a.l1.hits, b.l1.hits) << "after access " << at;
  ASSERT_EQ(a.l1.misses, b.l1.misses) << "after access " << at;
  ASSERT_EQ(a.l2.hits, b.l2.hits) << "after access " << at;
  ASSERT_EQ(a.l2.misses, b.l2.misses) << "after access " << at;
  ASSERT_EQ(a.llc.hits, b.llc.hits) << "after access " << at;
  ASSERT_EQ(a.llc.misses, b.llc.misses) << "after access " << at;
  ASSERT_EQ(a.dram_accesses, b.dram_accesses) << "after access " << at;
  ASSERT_EQ(a.dram_wait_cycles, b.dram_wait_cycles) << "after access " << at;
  ASSERT_EQ(a.prefetches_issued, b.prefetches_issued) << "after access " << at;
  ASSERT_EQ(a.prefetches_dropped, b.prefetches_dropped)
      << "after access " << at;
  ASSERT_EQ(a.prefetch_hits, b.prefetch_hits) << "after access " << at;
  ASSERT_EQ(a.llc_back_invalidations, b.llc_back_invalidations)
      << "after access " << at;
}

// Global and per-core statistics, LLC residency and every CLOS monitor
// (CMT occupancy, MBM lines, per-CLOS LLC hits and misses) agree.
void ExpectSameState(MemoryHierarchy& h, const ModelHierarchy& m, int at) {
  ExpectStatsEqual(h.stats(), m.stats(), at);
  for (uint32_t c = 0; c < h.config().num_cores; ++c) {
    ExpectStatsEqual(h.core_stats(c), m.core_stats(c), at);
  }
  ASSERT_EQ(h.llc().ValidLineCount(), m.llc_lines()) << "after access " << at;
  for (uint32_t c = 0; c < MemoryHierarchy::kMaxClos; ++c) {
    const ClosMonitor& a = h.clos_monitor(c);
    const ClosMonitor& b = m.clos_monitor(c);
    ASSERT_EQ(a.occupancy_lines, b.occupancy_lines) << "clos " << c;
    ASSERT_EQ(a.mbm_lines, b.mbm_lines) << "clos " << c;
    ASSERT_EQ(a.llc.hits, b.llc.hits) << "clos " << c;
    ASSERT_EQ(a.llc.misses, b.llc.misses) << "clos " << c;
  }
}

// Scalar Access on both, with `now` advancing by the hierarchy's latency.
void AccessBoth(MemoryHierarchy* h, ModelHierarchy* m, uint32_t core,
                uint64_t addr, uint64_t mask, uint32_t clos, uint64_t* clock,
                int at) {
  const AccessResult rh = h->Access(core, addr, *clock, mask, clos);
  const AccessResult rm = m->Access(core, addr, *clock, mask, clos);
  ASSERT_EQ(rh.latency_cycles, rm.latency_cycles) << "access " << at;
  ASSERT_EQ(rh.level, rm.level) << "access " << at;
  *clock += rh.latency_cycles;
}

// The production hierarchy (way hints, absent-insert paths, presence-mask
// back-invalidation, flat pending-prefetch table, SoA prefetcher) must be
// observationally identical to the naive model: same per-access latencies
// and hit levels, same statistics, same occupancy. Both HierarchyConfig::simd
// settings are pinned: on a host with AVX-512F, simd=true runs the AVX-512
// twins of the point and run paths and simd=false the scalar path.
class ModelEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(ModelEquivalenceTest, HierarchyMatchesModelAccessForAccess) {
  for (const bool simd : {true, false}) {
    SCOPED_TRACE(simd ? "simd" : "scalar");
    HierarchyConfig cfg = TinyConfig();
    cfg.num_cores = 4;
    cfg.prefetcher.enabled = true;
    cfg.simd = simd;
    MemoryHierarchy h(cfg);
    ModelHierarchy m(cfg);

    Rng rng(static_cast<uint64_t>(GetParam()));
    const uint64_t masks[] = {0x3, 0x6, 0xC, 0xF};
    uint64_t clock = 0;
    for (int i = 0; i < 30000; ++i) {
      const uint32_t core = static_cast<uint32_t>(rng.Uniform(4));
      const uint32_t clos = static_cast<uint32_t>(rng.Uniform(4));
      const uint64_t addr = rng.Uniform(1u << 15);
      const int burst = rng.Uniform(4) == 0 ? 6 : 1;
      for (int j = 0; j < burst; ++j) {
        ASSERT_NO_FATAL_FAILURE(AccessBoth(
            &h, &m, core, addr + static_cast<uint64_t>(j) * kLineSize,
            masks[clos], clos, &clock, i));
      }
      if (i % 5000 == 0) {
        ASSERT_NO_FATAL_FAILURE(ExpectSameState(h, m, i));
      }
    }
    ExpectSameState(h, m, 30000);
    EXPECT_TRUE(h.CheckInclusion());
    EXPECT_GT(h.stats().llc_back_invalidations, 0u);
    EXPECT_GT(h.stats().prefetch_hits, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModelEquivalenceTest,
                         ::testing::Values(3, 7, 11, 15));

TEST(HierarchyModelTest, MatchesModelWithNonInclusiveLlc) {
  for (const bool simd : {true, false}) {
    SCOPED_TRACE(simd ? "simd" : "scalar");
    HierarchyConfig cfg = TinyConfig();
    cfg.num_cores = 2;
    cfg.prefetcher.enabled = true;
    cfg.inclusive_llc = false;
    cfg.simd = simd;
    MemoryHierarchy h(cfg);
    ModelHierarchy m(cfg);

    Rng rng(99);
    uint64_t clock = 0;
    for (int i = 0; i < 20000; ++i) {
      const uint32_t core = static_cast<uint32_t>(rng.Uniform(2));
      const uint64_t addr = rng.Uniform(1u << 14);
      const int burst = rng.Uniform(3) == 0 ? 5 : 1;
      for (int j = 0; j < burst; ++j) {
        ASSERT_NO_FATAL_FAILURE(AccessBoth(
            &h, &m, core, addr + static_cast<uint64_t>(j) * kLineSize,
            Full(h), 0, &clock, i));
      }
    }
    ExpectSameState(h, m, 20000);
    EXPECT_GT(h.stats().prefetch_hits, 0u);
  }
}

// Multi-line AccessRun calls (mixed with point accesses) must return the
// model's per-line latency sum with `now` advancing line by line, and leave
// identical state behind — in both LLC inclusivity modes.
TEST(HierarchyModelTest, AccessRunMatchesModelPerLineSum) {
  for (const bool inclusive : {true, false}) {
    for (const bool simd : {true, false}) {
      SCOPED_TRACE(std::string(inclusive ? "inclusive" : "non-inclusive") +
                   (simd ? "/simd" : "/scalar"));
      HierarchyConfig cfg = TinyConfig();
      cfg.num_cores = 4;
      cfg.prefetcher.enabled = true;
      cfg.inclusive_llc = inclusive;
      cfg.simd = simd;
      MemoryHierarchy h(cfg);
      ModelHierarchy m(cfg);

      Rng rng(inclusive ? 21 : 22);
      const uint64_t masks[] = {0x1, 0x3, 0xC, 0xF};
      uint64_t clock = 0;
      for (int i = 0; i < 4000; ++i) {
        const uint32_t core = static_cast<uint32_t>(rng.Uniform(4));
        const uint32_t clos = static_cast<uint32_t>(rng.Uniform(4));
        const uint64_t line = rng.Uniform(1u << 9);
        if (rng.Uniform(3) == 0) {
          ASSERT_NO_FATAL_FAILURE(AccessBoth(&h, &m, core, line * kLineSize,
                                             masks[clos], clos, &clock, i));
          continue;
        }
        const uint64_t n = 1 + rng.Uniform(80);
        const uint64_t got =
            h.AccessRun(core, line, n, clock, masks[clos], clos);
        uint64_t t = clock;
        for (uint64_t k = 0; k < n; ++k) {
          t += m.Access(core, (line + k) * kLineSize, t, masks[clos], clos)
                   .latency_cycles;
        }
        ASSERT_EQ(got, t - clock) << "run " << i << " (" << n << " lines)";
        clock = t;
        if (i % 500 == 0) {
          ASSERT_NO_FATAL_FAILURE(ExpectSameState(h, m, i));
        }
      }
      ExpectSameState(h, m, 4000);
      EXPECT_GT(h.stats().prefetch_hits, 0u);
      if (inclusive) {
        EXPECT_TRUE(h.CheckInclusion());
        EXPECT_GT(h.stats().llc_back_invalidations, 0u);
      }
    }
  }
}

// The production associativities (8-way L1 and L2, a 20-way LLC, 16
// prefetch streams) with few enough sets that every level evicts. The
// AVX-512 kernels then run at their 8-, 16- and 20-lane shapes: one full
// step, two, and two plus a four-lane tail. TinyConfig's 2/2/4 ways never
// leave the first step. Point accesses and runs, under the paper's CAT
// masks (full, 0x3, its complement) and a mid-cache window.
TEST(HierarchyModelTest, ProductionAssociativitiesMatchModel) {
  for (const bool simd : {true, false}) {
    SCOPED_TRACE(simd ? "simd" : "scalar");
    HierarchyConfig cfg;
    cfg.num_cores = 4;
    cfg.l1 = CacheGeometry{2, 8};
    cfg.l2 = CacheGeometry{4, 8};
    cfg.llc = CacheGeometry{8, 20};
    cfg.simd = simd;
    ASSERT_TRUE(cfg.prefetcher.enabled);
    ASSERT_EQ(cfg.prefetcher.num_streams, 16u);
    MemoryHierarchy h(cfg);
    ModelHierarchy m(cfg);

    Rng rng(17);
    const uint64_t masks[] = {0xFFFFF, 0x3, 0xFFFFC, 0x00FF0};
    uint64_t clock = 0;
    for (int i = 0; i < 12000; ++i) {
      const uint32_t core = static_cast<uint32_t>(rng.Uniform(4));
      const uint32_t clos = static_cast<uint32_t>(rng.Uniform(4));
      const uint64_t line = rng.Uniform(1u << 11);
      if (rng.Uniform(3) != 0) {
        ASSERT_NO_FATAL_FAILURE(AccessBoth(&h, &m, core, line * kLineSize,
                                           masks[clos], clos, &clock, i));
        continue;
      }
      const uint64_t n = 1 + rng.Uniform(40);
      const uint64_t got = h.AccessRun(core, line, n, clock, masks[clos], clos);
      uint64_t t = clock;
      for (uint64_t k = 0; k < n; ++k) {
        t += m.Access(core, (line + k) * kLineSize, t, masks[clos], clos)
                 .latency_cycles;
      }
      ASSERT_EQ(got, t - clock) << "run " << i << " (" << n << " lines)";
      clock = t;
      if (i % 2000 == 0) {
        ASSERT_NO_FATAL_FAILURE(ExpectSameState(h, m, i));
      }
    }
    ExpectSameState(h, m, 12000);
    EXPECT_TRUE(h.CheckInclusion());
    EXPECT_GT(h.stats().llc_back_invalidations, 0u);
    EXPECT_GT(h.stats().prefetch_hits, 0u);
    // Every level evicts: each core misses its private caches many times
    // over their capacity, and the LLC misses many times over its own.
    const auto lines = [](const CacheGeometry& g) {
      return uint64_t{g.num_sets} * g.num_ways;
    };
    for (uint32_t c = 0; c < cfg.num_cores; ++c) {
      EXPECT_GT(h.core_stats(c).l1.misses, 10 * lines(cfg.l1)) << "core " << c;
      EXPECT_GT(h.core_stats(c).l2.misses, 10 * lines(cfg.l2)) << "core " << c;
    }
    EXPECT_GT(h.stats().llc.misses, 10 * lines(cfg.llc));
  }
}

// CAT schemata writes mid-trace, as JobScheduler and the policy engine make
// at interval boundaries: each core keeps its CLOS, but at access 8000 the
// streaming core 0 is confined to one way and core 1 to the other three,
// and at 16000 core 0's restriction is lifted. Lines already placed outside
// a new mask stay readable; only victim selection changes.
TEST(HierarchyModelTest, MaskChangeMidTraceMatchesModel) {
  for (const bool simd : {true, false}) {
    SCOPED_TRACE(simd ? "simd" : "scalar");
    HierarchyConfig cfg = TinyConfig();
    cfg.num_cores = 4;
    cfg.prefetcher.enabled = true;
    cfg.simd = simd;
    MemoryHierarchy h(cfg);
    ModelHierarchy m(cfg);

    uint64_t mask[4] = {0xF, 0xF, 0xF, 0xF};
    Rng rng(5);
    uint64_t clock = 0;
    uint64_t stream_line = 0;
    for (int i = 0; i < 24000; ++i) {
      if (i == 8000) {
        mask[0] = 0x1;
        mask[1] = 0xE;
      }
      if (i == 16000) mask[0] = 0xF;
      const uint32_t core = static_cast<uint32_t>(rng.Uniform(4));
      // Core 0 streams through 1024 lines; the others re-read a small hot
      // set.
      const uint64_t addr = core == 0
                                ? (stream_line++ % 1024) * kLineSize
                                : rng.Uniform(1u << 12);
      ASSERT_NO_FATAL_FAILURE(
          AccessBoth(&h, &m, core, addr, mask[core], core, &clock, i));
      if (i % 4000 == 0) {
        ASSERT_NO_FATAL_FAILURE(ExpectSameState(h, m, i));
      }
    }
    ExpectSameState(h, m, 24000);
    EXPECT_TRUE(h.CheckInclusion());
    EXPECT_GT(h.stats().prefetch_hits, 0u);
    EXPECT_GT(h.stats().llc_back_invalidations, 0u);
  }
}

TEST(HierarchyTest, L1HitDoesNotConsumePendingPrefetch) {
  // Regression: the pending-prefetch table used to be probed before the L1
  // lookup, so a demand access served entirely by the L1 still counted a
  // prefetch_hit and erased the in-flight entry. Reachable only with a
  // non-inclusive LLC (inclusive eviction scrubs L1 copies and pending
  // entries together).
  HierarchyConfig cfg = TinyConfig();
  cfg.inclusive_llc = false;
  cfg.prefetcher.enabled = true;
  MemoryHierarchy h(cfg);

  // Load line 8 on core 0, then thrash it out of the LLC from core 1
  // (same LLC set: stride 32 lines). Non-inclusive: core 0 keeps its
  // L1/L2 copies.
  const uint64_t target = 8;
  h.Access(0, target * kLineSize, 0, Full(h));
  uint64_t clock = 1000;
  for (uint64_t line = target + 32; h.llc().Contains(target);
       line += 32) {
    clock += h.Access(1, line * kLineSize, clock, Full(h)).latency_cycles;
  }
  ASSERT_TRUE(h.l1(0).Contains(target));
  ASSERT_FALSE(h.llc().Contains(target));

  // Stream lines 5,6 on core 0: the second access triggers prefetches of
  // lines 7..14, creating an in-flight entry for line 8.
  clock += h.Access(0, 5 * kLineSize, clock, Full(h)).latency_cycles;
  clock += h.Access(0, 6 * kLineSize, clock, Full(h)).latency_cycles;
  ASSERT_GT(h.stats().prefetches_issued, 0u);
  ASSERT_EQ(h.stats().prefetch_hits, 0u);

  // The demand access is served by the L1: the in-flight prefetch did not
  // supply the data, so it must not count and must not be consumed.
  auto r = h.Access(0, target * kLineSize, clock, Full(h));
  EXPECT_EQ(r.level, HitLevel::kL1);
  EXPECT_EQ(h.stats().prefetch_hits, 0u);

  // A real consumer — an L1-missing access to a prefetched line — still
  // counts (line 9 was prefetched into L2, never demand-loaded).
  auto r9 = h.Access(0, 9 * kLineSize, clock + 10000, Full(h));
  EXPECT_EQ(r9.level, HitLevel::kL2);
  EXPECT_EQ(h.stats().prefetch_hits, 1u);
}

}  // namespace
}  // namespace catdb::simcache
