// Property tests pinning the SoA SetAssocCache against the independent
// array-of-structs model of model_hierarchy.h, plus regression tests for the
// three hardening fixes that rode along with the SoA refactor: SetBaseIndex
// 64-bit indexing, the presence-mask core-count bound in
// Machine::ValidateConfig, and the way_hint_ width CHECK.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "model_hierarchy.h"
#include "sim/machine.h"
#include "simcache/cache_geometry.h"
#include "simcache/set_assoc_cache.h"
#include "simcache/way_scan.h"

namespace catdb::simcache {
namespace {

void ExpectSameEviction(const std::optional<EvictedLine>& a,
                        const std::optional<EvictedLine>& b, uint64_t step) {
  ASSERT_EQ(a.has_value(), b.has_value()) << "step " << step;
  if (a.has_value()) {
    EXPECT_EQ(a->line, b->line) << "step " << step;
    EXPECT_EQ(a->owner, b->owner) << "step " << step;
    EXPECT_EQ(a->presence, b->presence) << "step " << step;
  }
}

// Drives random operation traces through the SoA cache and the AoS model
// and demands identical hit/miss results, eviction records (line, owner,
// presence) and occupancy at every step, across several mask regimes.
TEST(SoaCachePropertyTest, RandomTracesMatchAosModel) {
  const CacheGeometry geometries[] = {{16, 4}, {8, 8}, {4, 20}};
  for (const CacheGeometry& g : geometries) {
    SetAssocCache cache(g);
    AosModel model(g);
    Rng rng(0xC0FFEE ^ (uint64_t{g.num_sets} << 8 | g.num_ways));
    const uint64_t full = cache.FullMask();
    // Mask regimes: unrestricted, a low partition, a high partition, and a
    // single way — exercising first-empty, LRU and tie-break victim picks
    // under CAT-style restrictions.
    const uint64_t masks[] = {full, full & 0x3, full & ~uint64_t{0x3}, 0x1};
    // A small line universe keeps sets colliding constantly.
    const uint64_t universe = uint64_t{g.num_sets} * g.num_ways * 3;
    for (uint64_t step = 0; step < 20000; ++step) {
      const uint64_t line = rng.Next() % universe;
      switch (rng.Next() % 16) {
        case 0: case 1: case 2: case 3: {
          // Lookup (promotes on hit).
          EXPECT_EQ(cache.Lookup(line), model.Lookup(line)) << "step " << step;
          break;
        }
        case 4: {
          // Hinted lookup twin evolves LRU state identically.
          EXPECT_EQ(cache.LookupHinted(line), model.Lookup(line))
              << "step " << step;
          break;
        }
        case 5: {
          EXPECT_EQ(cache.Contains(line), model.Contains(line))
              << "step " << step;
          EXPECT_EQ(cache.ContainsHinted(line), model.Contains(line))
              << "step " << step;
          break;
        }
        case 6: {
          EXPECT_EQ(cache.Invalidate(line), model.Invalidate(line))
              << "step " << step;
          break;
        }
        case 7: {
          if (model.Contains(line)) {
            const uint32_t core = rng.Next() % SetAssocCache::kMaxPresenceCores;
            cache.MarkPresent(line, core);
            model.MarkPresent(line, core);
          }
          break;
        }
        case 8: {
          EXPECT_EQ(cache.OwnerOf(line), model.OwnerOf(line))
              << "step " << step;
          break;
        }
        case 9: {
          if (step % 4096 == 9) {
            cache.Clear();
            model.Clear();
          }
          break;
        }
        default: {
          const uint64_t mask = masks[rng.Next() % 4];
          const uint16_t owner = static_cast<uint16_t>(rng.Next() % 7);
          if (!model.Contains(line) && (rng.Next() & 1) != 0) {
            // InsertNew: caller-guaranteed-absent insert.
            ExpectSameEviction(cache.InsertNew(line, mask, owner),
                               model.Insert(line, mask, owner), step);
          } else {
            ExpectSameEviction(cache.Insert(line, mask, owner),
                               model.Insert(line, mask, owner), step);
          }
          break;
        }
      }
      ASSERT_EQ(cache.ValidLineCount(), model.count()) << "step " << step;
    }
  }
}

// The run loop's fused LookupOrVictim/FillAt pair must evolve the cache
// exactly like the Lookup + InsertNew sequence it replaces (full-mask,
// private-cache protocol: fill only on miss, no intervening mutation).
TEST(SoaCachePropertyTest, LookupOrVictimFillAtMatchesLookupInsertNew) {
  const CacheGeometry g{16, 8};
  SetAssocCache fused(g);
  SetAssocCache classic(g);
  AosModel model(g);
  Rng rng(0xBEEF);
  const uint64_t universe = uint64_t{g.num_sets} * g.num_ways * 2;
  for (uint64_t step = 0; step < 20000; ++step) {
    const uint64_t line = rng.Next() % universe;
    size_t victim = 0;
    const bool fused_hit = fused.LookupOrVictim(line, &victim);
    const bool classic_hit = classic.Lookup(line);
    const bool model_hit = model.Lookup(line);
    ASSERT_EQ(fused_hit, classic_hit) << "step " << step;
    ASSERT_EQ(fused_hit, model_hit) << "step " << step;
    if (!fused_hit) {
      ExpectSameEviction(fused.FillAt(victim, line),
                         classic.InsertNew(line), step);
      model.Insert(line, fused.FullMask(), 0);
    }
    ASSERT_EQ(fused.ValidLineCount(), classic.ValidLineCount())
        << "step " << step;
  }
}

// Regression test for a 32-bit overflow in per-set indexing: computing
// `set * num_ways` in uint32_t wraps once num_sets * num_ways exceeds 2^32
// and silently aliases distant sets onto the same storage. SetBaseIndex is
// the (static) arithmetic the cache indexes with; pinning it needs no
// multi-gigabyte allocation.
TEST(SetAssocCacheTest, SetBaseIndexSurvives32BitOverflow) {
  // 2^27 sets x 64 ways = 2^33 ways total: the last set's base is
  // 2^33 - 64, representable only in 64-bit arithmetic.
  const CacheGeometry g{uint32_t{1} << 27, 64};
  ASSERT_TRUE(g.Valid());
  const uint32_t last_set = g.num_sets - 1;
  const size_t base = SetAssocCache::SetBaseIndex(g, last_set);
  EXPECT_EQ(base, (uint64_t{1} << 33) - 64);
  // uint32_t arithmetic would have wrapped to a small alias.
  EXPECT_NE(base, static_cast<uint32_t>(last_set * g.num_ways));
}

// Presence masks are 32 bits wide; a core count past that width would shift
// presence bits out of range (UB). ValidateConfig surfaces the bound as a
// Status instead of undefined behaviour deep in the hierarchy.
TEST(MachineValidateConfigTest, RejectsCoreCountsPastPresenceMaskWidth) {
  sim::MachineConfig config;
  config.hierarchy.num_cores = SetAssocCache::kMaxPresenceCores;
  EXPECT_TRUE(sim::Machine::ValidateConfig(config).ok());

  config.hierarchy.num_cores = SetAssocCache::kMaxPresenceCores + 1;
  const Status st = sim::Machine::ValidateConfig(config);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("presence-mask"), std::string::npos);

  config.hierarchy.num_cores = 0;
  EXPECT_FALSE(sim::Machine::ValidateConfig(config).ok());
}

TEST(MachineValidateConfigTest, RejectsInvalidGeometries) {
  sim::MachineConfig config;
  config.hierarchy.l2 = CacheGeometry{100, 4};  // sets not a power of two
  EXPECT_FALSE(sim::Machine::ValidateConfig(config).ok());
}

// ---------------------------------------------------------------------------
// SIMD way-scan kernel equivalence.
//
// The vector kernels must return exactly what the scalar oracles return for
// every way count the simulator can configure (1..20 — every L1/L2/LLC
// associativity plus all the odd-tail positions of the 2- and 4-wide
// loops) under adversarial tag patterns:
//   - tags equal to the kEmptyTag sentinel (~0) and its neighbour, so a
//     "hit on the sentinel value" is distinguished from "empty way";
//   - tags agreeing with the needle in exactly one 32-bit half — SSE2/AVX2
//     have no 64-bit equality compare, so the kernels fold a 32-bit lane
//     compare with its pair-swapped self, and a half-match is precisely
//     the input that an incorrect fold would misreport as a full match.
// The kernels are exercised directly (not through the dispatcher) so the
// dispatch thresholds cannot silently route everything to the scalar loop.

#if CATDB_WAY_SCAN_X86

TEST(WayScanEquivalenceTest, FindScansMatchScalarAtAllWayCounts) {
  using namespace way_scan;
  const bool avx2 = DetectSimdLevel() == SimdLevel::kAvx2;
  Rng rng(0x5EED);
  const uint64_t needles[] = {0, 1, kEmptyTag, kEmptyTag - 1,
                              0xABCDEF0123456789ull};
  uint64_t tags[20];
  for (uint32_t n = 1; n <= 20; ++n) {
    for (int iter = 0; iter < 3000; ++iter) {
      const uint64_t needle = needles[rng.Next() % std::size(needles)];
      const uint64_t lo = needle & 0xFFFFFFFFu;
      const uint64_t hi = needle & ~uint64_t{0xFFFFFFFFu};
      for (uint32_t w = 0; w < n; ++w) {
        switch (rng.Next() % 8) {
          case 0: tags[w] = needle; break;
          case 1: tags[w] = kEmptyTag; break;
          case 2: tags[w] = kEmptyTag - 1; break;
          case 3: tags[w] = hi | (lo ^ 1); break;  // high half matches only
          case 4: tags[w] = (hi ^ (uint64_t{1} << 32)) | lo; break;  // low only
          case 5: tags[w] = ~needle; break;
          default: tags[w] = rng.Next(); break;
        }
      }
      int want_empty = -2;
      const int want = FindWayOrEmptyScalar(tags, n, needle, &want_empty);
      // The fused scan's hit index is by contract the plain scan's result.
      ASSERT_EQ(FindWayScalar(tags, n, needle), want);
      ASSERT_EQ(FindWaySse2(tags, n, needle), want)
          << "n=" << n << " iter=" << iter;
      int got_empty = -2;
      ASSERT_EQ(FindWayOrEmptySse2(tags, n, needle, &got_empty), want)
          << "n=" << n << " iter=" << iter;
      // first_empty is specified only on a miss; on a hit the vector
      // kernels may skip an empty sharing the hit's vector step.
      if (want < 0) {
        ASSERT_EQ(got_empty, want_empty) << "n=" << n << " iter=" << iter;
      }
      if (avx2) {
        ASSERT_EQ(FindWayAvx2(tags, n, needle),
                  FindWayScalar(tags, n, needle))
            << "n=" << n << " iter=" << iter;
        got_empty = -2;
        ASSERT_EQ(FindWayOrEmptyAvx2(tags, n, needle, &got_empty), want)
            << "n=" << n << " iter=" << iter;
        if (want < 0) {
          ASSERT_EQ(got_empty, want_empty) << "n=" << n << " iter=" << iter;
        }
      }
    }
  }
}

// Min-stamp (LRU victim) scans: first occurrence of the minimum, including
// forced duplicate stamps (the all-invalid corner where the tie-break to
// the lowest way index is what keeps victim choice deterministic).
TEST(WayScanEquivalenceTest, MinStampMatchesScalarAtAllWayCounts) {
  using namespace way_scan;
  const bool avx2 = DetectSimdLevel() == SimdLevel::kAvx2;
  Rng rng(0xA11C);
  uint64_t stamps[20];
  for (uint32_t n = 1; n <= 20; ++n) {
    for (int iter = 0; iter < 3000; ++iter) {
      // Alternate wide-range stamps (unique in practice, like the live LRU
      // counter) with a tiny value range that forces duplicates.
      const bool dup = (iter & 1) != 0;
      for (uint32_t w = 0; w < n; ++w) {
        stamps[w] = dup ? rng.Next() % 3
                        : rng.Next() >> 1;  // keep below 2^63 (SSE2 contract)
      }
      const int want = MinStampWayScalar(stamps, n);
      if (n >= 2) {
        ASSERT_EQ(MinStampWaySse2(stamps, n), want)
            << "n=" << n << " iter=" << iter;
      }
      if (avx2 && n >= 4) {
        ASSERT_EQ(MinStampWayAvx2(stamps, n), want)
            << "n=" << n << " iter=" << iter;
      }
    }
  }
}

// The dispatcher must agree with the scalar oracle at every level and way
// count regardless of where the tuned thresholds sit.
TEST(WayScanEquivalenceTest, DispatcherMatchesScalarAtEveryLevel) {
  using namespace way_scan;
  std::vector<SimdLevel> levels = {SimdLevel::kScalar, SimdLevel::kSse2};
  if (DetectSimdLevel() == SimdLevel::kAvx2) levels.push_back(SimdLevel::kAvx2);
  Rng rng(0xD15C);
  uint64_t tags[20];
  uint64_t stamps[20];
  for (uint32_t n = 1; n <= 20; ++n) {
    for (int iter = 0; iter < 500; ++iter) {
      const uint64_t needle = rng.Next() % 4;
      for (uint32_t w = 0; w < n; ++w) {
        const uint64_t r = rng.Next();
        tags[w] = (r & 8) != 0 ? kEmptyTag : r % 4;
        stamps[w] = rng.Next() >> 1;  // stamps stay below 2^63
      }
      int want_empty = -2;
      const int want = FindWayOrEmptyScalar(tags, n, needle, &want_empty);
      for (const SimdLevel level : levels) {
        ASSERT_EQ(FindWay(tags, n, needle, level),
                  FindWayScalar(tags, n, needle))
            << "n=" << n << " level=" << static_cast<int>(level);
        int got_empty = -2;
        ASSERT_EQ(FindWayOrEmpty(tags, n, needle, level, &got_empty), want)
            << "n=" << n << " level=" << static_cast<int>(level);
        ASSERT_EQ(got_empty, want_empty)
            << "n=" << n << " level=" << static_cast<int>(level);
        ASSERT_EQ(MinStampWay(stamps, n, level), MinStampWayScalar(stamps, n))
            << "n=" << n << " level=" << static_cast<int>(level);
      }
    }
  }
}

#endif  // CATDB_WAY_SCAN_X86

}  // namespace
}  // namespace catdb::simcache
