// Property tests pinning the SoA SetAssocCache against the independent
// array-of-structs model of model_hierarchy.h, plus regression tests for the
// three hardening fixes that rode along with the SoA refactor: SetBaseIndex
// 64-bit indexing, the presence-mask core-count bound in
// Machine::ValidateConfig, and the way_hint_ width CHECK.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "common/bits.h"
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

// ValidateConfig must reject what the Machine constructor would abort on:
// the StreamPrefetcher CHECKs its stream count and trigger run (enabled or
// not), and the DramChannel CHECKs room for two transfers per epoch.
void ExpectInvalidNaming(const sim::MachineConfig& config,
                         const std::string& field) {
  const Status st = sim::Machine::ValidateConfig(config);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << field;
  EXPECT_NE(st.ToString().find(field), std::string::npos) << st.ToString();
}

TEST(MachineValidateConfigTest, RejectsPrefetcherFieldsTheConstructorAbortsOn) {
  sim::MachineConfig config;
  config.hierarchy.prefetcher.num_streams = 0;
  ExpectInvalidNaming(config, "prefetcher.num_streams");
  config.hierarchy.prefetcher.enabled = false;
  ExpectInvalidNaming(config, "prefetcher.num_streams");

  config = sim::MachineConfig{};
  config.hierarchy.prefetcher.trigger_run = 0;
  ExpectInvalidNaming(config, "prefetcher.trigger_run");
}

TEST(MachineValidateConfigTest, RejectsDramTransferOutsideChannelRange) {
  sim::MachineConfig config;
  for (const uint32_t transfer : {0u, 1025u, 100000u}) {
    config.hierarchy.latency.dram_transfer = transfer;
    ExpectInvalidNaming(config, "latency.dram_transfer");
  }
  // The bounds themselves construct.
  for (const uint32_t transfer : {1u, 1024u}) {
    config.hierarchy.latency.dram_transfer = transfer;
    EXPECT_TRUE(sim::Machine::ValidateConfig(config).ok()) << transfer;
    const DramChannel channel(config.hierarchy.latency.dram, transfer);
    EXPECT_GE(channel.capacity_per_epoch(), 2u);
  }
}

// ---------------------------------------------------------------------------
// Way-scan kernel equivalence.
//
// The AVX-512 kernels must return exactly what the scalar oracles return at
// every way count from 1 to 64, so at every tail position of their
// eight-way steps, under adversarial tag patterns:
//   - tags equal to the kEmptyTag sentinel (~0) and its neighbour, so a
//     "hit on the sentinel value" is distinguished from "empty way";
//   - tags agreeing with the needle in exactly one 32-bit half, which a
//     compare narrower than the 64-bit lane would report as a match.
// Guard ways past the run hold values a scan must not see (the needle, the
// sentinel, stamp 0), so a kernel whose tail mask reads past `n` fails
// here. The scalar half checks the oracles against each other and runs on
// every host; the AVX-512 half runs when DetectSimdLevel() reports it.

constexpr uint32_t kMaxScanWays = 64;
constexpr uint32_t kGuardWays = 8;

bool Avx512HalfRuns() {
  const bool runs = DetectSimdLevel() == SimdLevel::kAvx512;
  std::printf("[ INFO     ] AVX-512 half %s\n",
              runs ? "runs (DetectSimdLevel() == kAvx512)"
                   : "skipped: the host has no AVX-512F");
  return runs;
}

// Guard ways after a run of n: alternately `a` and `b`, starting at way n.
void FillGuards(uint64_t* ways, uint32_t n, uint64_t a, uint64_t b) {
  for (uint32_t g = 0; g < kGuardWays; ++g) ways[n + g] = g % 2 == 0 ? a : b;
}

TEST(WayScanEquivalenceTest, FindScansMatchScalarAtAllWayCounts) {
  using namespace way_scan;
  const bool avx512 = Avx512HalfRuns();
  (void)avx512;
  Rng rng(0x5EED);
  const uint64_t needles[] = {0, 1, kEmptyTag, kEmptyTag - 1,
                              0xABCDEF0123456789ull};
  uint64_t tags[kMaxScanWays + kGuardWays];
  for (uint32_t n = 1; n <= kMaxScanWays; ++n) {
    for (int iter = 0; iter < 1000; ++iter) {
      const uint64_t needle = needles[rng.Next() % std::size(needles)];
      const uint64_t lo = needle & 0xFFFFFFFFu;
      const uint64_t hi = needle & ~uint64_t{0xFFFFFFFFu};
      // Mostly misses at the wide counts, so the scans reach the tail.
      const uint32_t hit_odds = 8 + n;
      for (uint32_t w = 0; w < n; ++w) {
        const uint64_t r = rng.Next() % hit_odds;
        switch (r) {
          case 0: tags[w] = needle; break;
          case 1: tags[w] = kEmptyTag; break;
          case 2: tags[w] = kEmptyTag - 1; break;
          case 3: tags[w] = hi | (lo ^ 1); break;  // high half matches only
          case 4: tags[w] = (hi ^ (uint64_t{1} << 32)) | lo; break;  // low only
          case 5: tags[w] = ~needle; break;
          default: tags[w] = rng.Next(); break;
        }
      }
      FillGuards(tags, n, needle, kEmptyTag);
      int want_empty = -2;
      const int want = FindWayOrEmptyScalar(tags, n, needle, &want_empty);
      // The fused scan's hit is the plain scan's; its miss-side empty way
      // is the first-empty scan's.
      ASSERT_EQ(FindWayScalar(tags, n, needle), want) << "n=" << n;
      if (want < 0) {
        ASSERT_EQ(FindWayScalar(tags, n, kEmptyTag), want_empty) << "n=" << n;
      }
#if CATDB_WAY_SCAN_X86
      if (avx512) {
        ASSERT_EQ(FindWayAvx512(tags, n, needle), want)
            << "n=" << n << " iter=" << iter;
        int got_empty = -2;
        ASSERT_EQ(FindWayOrEmptyAvx512(tags, n, needle, &got_empty), want)
            << "n=" << n << " iter=" << iter;
        // first_empty is specified only on a miss; on a hit the kernel may
        // skip an empty way sharing the hit's eight-way step.
        if (want < 0) {
          ASSERT_EQ(got_empty, want_empty) << "n=" << n << " iter=" << iter;
        }
      }
#endif
    }
  }
}

// Min-stamp (LRU victim) scans and victim selection under an allocation
// mask: first occurrence of the minimum, including forced duplicate stamps
// (the tie-break to the lowest way index), stamps across the full 64-bit
// range (the kernels compare unsigned), and random nonzero masks against
// the scalar bit walk.
TEST(WayScanEquivalenceTest, MinStampMatchesScalarAtAllWayCounts) {
  using namespace way_scan;
  const bool avx512 = Avx512HalfRuns();
  (void)avx512;
  Rng rng(0xA11C);
  uint64_t stamps[kMaxScanWays + kGuardWays];
  uint64_t tags[kMaxScanWays + kGuardWays];
  for (uint32_t n = 1; n <= kMaxScanWays; ++n) {
    const uint64_t full = MaskForWays(n);
    for (int iter = 0; iter < 1000; ++iter) {
      // Alternate wide-range stamps (unique in practice, like the live LRU
      // counter) with a tiny value range that forces duplicates.
      const bool dup = (iter & 1) != 0;
      for (uint32_t w = 0; w < n; ++w) {
        stamps[w] = dup ? 1 + rng.Next() % 3 : 1 + (rng.Next() >> 1);
        if (!dup && rng.Next() % 4 == 0) stamps[w] |= uint64_t{1} << 63;
        // Distinct valid tags with an occasional empty way; none at all in
        // half the sets, so the stamp minimum decides.
        tags[w] = (iter & 2) != 0 && rng.Next() % 8 == 0 ? kEmptyTag : w;
      }
      FillGuards(stamps, n, 0, 0);
      FillGuards(tags, n, kEmptyTag, kEmptyTag);
      const int want_min = MinStampWayScalar(stamps, n);
      uint64_t mask = rng.Next() & full;
      if (iter % 4 == 0) mask = full;
      if (mask == 0) mask = uint64_t{1} << (rng.Next() % n);
      const int want_victim = VictimWayMaskedScalar(tags, stamps, mask);
      ASSERT_GE(want_victim, 0);
      // Scalar level: the full-mask decomposition picks the bit walk's way.
      ASSERT_EQ(VictimWay<SimdLevel::kScalar>(tags, stamps, n, full),
                VictimWayMaskedScalar(tags, stamps, full))
          << "n=" << n << " iter=" << iter;
#if CATDB_WAY_SCAN_X86
      if (avx512) {
        ASSERT_EQ(MinStampWayAvx512(stamps, n), want_min)
            << "n=" << n << " iter=" << iter;
        ASSERT_EQ(VictimWayAvx512(tags, stamps, n, mask), want_victim)
            << "n=" << n << " iter=" << iter << " mask=" << mask;
      }
#endif
    }
  }
}

// The dispatchers must agree with the scalar oracles at every level the host
// supports and every way count.
template <SimdLevel L>
void ExpectDispatchersMatchScalar() {
  using namespace way_scan;
  Rng rng(0xD15C);
  uint64_t tags[kMaxScanWays];
  uint64_t stamps[kMaxScanWays];
  for (uint32_t n = 1; n <= kMaxScanWays; ++n) {
    const uint64_t full = MaskForWays(n);
    for (int iter = 0; iter < 300; ++iter) {
      const uint64_t needle = rng.Next() % 4;
      for (uint32_t w = 0; w < n; ++w) {
        const uint64_t r = rng.Next();
        tags[w] = (r & 8) != 0 ? kEmptyTag : r % 4;
        stamps[w] = (iter & 1) != 0 ? r % 3 : rng.Next();
      }
      int want_empty = -2;
      const int want = FindWayOrEmptyScalar(tags, n, needle, &want_empty);
      const uint64_t mask = (rng.Next() & full) | (uint64_t{1} << (n - 1));
      const std::string at = "n=" + std::to_string(n) +
                             " level=" + std::to_string(static_cast<int>(L));
      ASSERT_EQ(FindWay<L>(tags, n, needle), FindWayScalar(tags, n, needle))
          << at;
      int got_empty = -2;
      ASSERT_EQ(FindWayOrEmpty<L>(tags, n, needle, &got_empty), want) << at;
      if (want < 0) {
        ASSERT_EQ(got_empty, want_empty) << at;
      }
      ASSERT_EQ(MinStampWay<L>(stamps, n), MinStampWayScalar(stamps, n)) << at;
      ASSERT_EQ(VictimWay<L>(tags, stamps, n, mask),
                VictimWayMaskedScalar(tags, stamps, mask))
          << at;
    }
  }
}

TEST(WayScanEquivalenceTest, DispatcherMatchesScalarAtEveryLevel) {
  ExpectDispatchersMatchScalar<SimdLevel::kScalar>();
  if (Avx512HalfRuns()) ExpectDispatchersMatchScalar<SimdLevel::kAvx512>();
}

}  // namespace
}  // namespace catdb::simcache
