// Property tests pinning the SoA SetAssocCache against the independent
// array-of-structs model of model_hierarchy.h and, victim by victim, against
// a list-based true-LRU model; the prefetcher's live-slot count; regression
// tests for SetBaseIndex 64-bit indexing and the Machine::ValidateConfig
// bounds (presence-mask cores, prefetcher fields, DRAM transfer); and the
// way-scan kernels against scalar oracles.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <list>
#include <optional>
#include <string>
#include <vector>

#include "common/bits.h"
#include "common/rng.h"
#include "model_hierarchy.h"
#include "sim/machine.h"
#include "simcache/cache_geometry.h"
#include "simcache/prefetcher.h"
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

// True LRU kept as lists, sharing nothing with the cache's stamps: per set,
// the line in each way and the ways in recency order (front = most recent).
// A fill's victim is the lowest empty way the mask allows, else the allowed
// way nearest the back of the recency list.
class ListLruModel {
 public:
  explicit ListLruModel(const CacheGeometry& g)
      : g_(g),
        lines_(g.num_sets, std::vector<uint64_t>(g.num_ways, kEmpty)),
        recency_(g.num_sets) {}

  int WayOf(uint64_t line) const {
    const std::vector<uint64_t>& ways = lines_[g_.SetOf(line)];
    const auto it = std::find(ways.begin(), ways.end(), line);
    return it == ways.end() ? -1 : static_cast<int>(it - ways.begin());
  }

  bool Lookup(uint64_t line) {
    const int way = WayOf(line);
    if (way >= 0) Touch(g_.SetOf(line), static_cast<uint32_t>(way));
    return way >= 0;
  }

  int Victim(uint64_t line, uint64_t mask) const {
    const uint32_t set = g_.SetOf(line);
    for (uint32_t w = 0; w < g_.num_ways; ++w) {
      if (((mask >> w) & 1) != 0 && lines_[set][w] == kEmpty) {
        return static_cast<int>(w);
      }
    }
    for (auto it = recency_[set].rbegin(); it != recency_[set].rend(); ++it) {
      if (((mask >> *it) & 1) != 0) return static_cast<int>(*it);
    }
    return -1;
  }

  // Fills `line` into `way`; returns the line it evicts, if any.
  std::optional<uint64_t> Fill(uint64_t line, uint32_t way) {
    const uint32_t set = g_.SetOf(line);
    std::optional<uint64_t> evicted;
    if (lines_[set][way] != kEmpty) {
      evicted = lines_[set][way];
    } else {
      count_ += 1;
    }
    lines_[set][way] = line;
    Touch(set, way);
    return evicted;
  }

  bool Invalidate(uint64_t line) {
    const int way = WayOf(line);
    if (way < 0) return false;
    const uint32_t set = g_.SetOf(line);
    lines_[set][static_cast<uint32_t>(way)] = kEmpty;
    recency_[set].remove(static_cast<uint32_t>(way));
    count_ -= 1;
    return true;
  }

  void Clear() {
    for (std::vector<uint64_t>& ways : lines_) {
      std::fill(ways.begin(), ways.end(), kEmpty);
    }
    for (std::list<uint32_t>& order : recency_) order.clear();
    count_ = 0;
  }

  uint64_t count() const { return count_; }

 private:
  static constexpr uint64_t kEmpty = ~uint64_t{0};

  void Touch(uint32_t set, uint32_t way) {
    recency_[set].remove(way);
    recency_[set].push_front(way);
  }

  CacheGeometry g_;
  std::vector<std::vector<uint64_t>> lines_;
  std::vector<std::list<uint32_t>> recency_;
  uint64_t count_ = 0;
};

// Random lookups, LookupOrVictim + FillAt pairs, InsertNewAt fills under
// random CAT masks, invalidations and clears; every victim the cache picks
// (read back from the slot it reports) must be the list model's.
template <SimdLevel L>
void ExpectVictimsMatchListLru(uint32_t ways) {
  const CacheGeometry g{4, ways};
  SetAssocCache cache(g);
  ListLruModel model(g);
  Rng rng(0x11F0 ^ ways);
  const uint64_t full = cache.FullMask();
  const uint64_t universe = uint64_t{g.num_sets} * ways * 3;
  for (uint64_t step = 0; step < 20000; ++step) {
    const std::string at = "ways=" + std::to_string(ways) + " level=" +
                           std::to_string(static_cast<int>(L)) +
                           " step=" + std::to_string(step);
    const uint64_t line = rng.Next() % universe;
    const size_t base = SetAssocCache::SetBaseIndex(g, g.SetOf(line));
    // Checks a fill into `slot` against the model's victim under `mask`.
    auto expect_fill = [&](size_t slot, uint64_t mask,
                           const std::optional<EvictedLine>& evicted) {
      const int want = model.Victim(line, mask);
      ASSERT_EQ(static_cast<int64_t>(slot - base), want) << at;
      const std::optional<uint64_t> model_evicted =
          model.Fill(line, static_cast<uint32_t>(want));
      ASSERT_EQ(evicted.has_value(), model_evicted.has_value()) << at;
      if (evicted.has_value()) {
        ASSERT_EQ(evicted->line, *model_evicted) << at;
      }
    };
    switch (rng.Next() % 16) {
      case 0: case 1: case 2: {
        ASSERT_EQ(cache.LookupSlotHinted<L>(line) >= 0, model.Lookup(line))
            << at;
        break;
      }
      case 3: {
        ASSERT_EQ(cache.Lookup(line), model.Lookup(line)) << at;
        break;
      }
      case 4: case 5: case 6: case 7: case 8: {
        size_t slot = 0;
        const bool hit = cache.LookupOrVictim<L>(line, &slot);
        ASSERT_EQ(hit, model.Lookup(line)) << at;
        if (!hit) expect_fill(slot, full, cache.FillAt(slot, line));
        break;
      }
      case 9: case 10: case 11: case 12: case 13: {
        if (model.WayOf(line) >= 0) break;
        uint64_t mask = rng.Next() & full;
        if (mask == 0) mask = uint64_t{1} << (rng.Next() % ways);
        size_t slot = 0;
        const std::optional<EvictedLine> evicted =
            cache.InsertNewAt<L>(line, mask, /*owner=*/0, &slot);
        expect_fill(slot, mask, evicted);
        break;
      }
      case 14: {
        ASSERT_EQ(cache.Invalidate<L>(line), model.Invalidate(line)) << at;
        break;
      }
      default: {
        if (rng.Next() % 256 == 0) {
          cache.Clear();
          model.Clear();
        }
        break;
      }
    }
    ASSERT_EQ(cache.ValidLineCount(), model.count()) << at;
  }
}

TEST(SoaCachePropertyTest, VictimsMatchListLruModelAtEveryWayCount) {
  const bool avx512 = DetectSimdLevel() == SimdLevel::kAvx512;
  for (const uint32_t ways : {1u, 2u, 8u, 20u, 63u, 64u}) {
    ExpectVictimsMatchListLru<SimdLevel::kScalar>(ways);
    if (avx512) ExpectVictimsMatchListLru<SimdLevel::kAvx512>(ways);
  }
}

// The prefetcher's live count must name exactly the slots whose head is
// not the free sentinel, [0, live), through demand and BeginRun
// allocations, LRU evictions (which keep the count) and resets.
TEST(StreamPrefetcherLiveCountTest, MatchesFreeHeadsThroughAllocationAndReset) {
  PrefetcherConfig cfg;
  cfg.num_streams = 4;
  StreamPrefetcher pf(cfg);
  auto expect_live = [&](uint32_t want, const char* after) {
    EXPECT_EQ(pf.live_streams(), want) << after;
    for (uint32_t s = 0; s < cfg.num_streams; ++s) {
      EXPECT_EQ(pf.SlotLive(s), s < want) << after << ", slot " << s;
    }
  };
  std::vector<uint64_t> out;
  expect_live(0, "construction");
  pf.OnDemandAccess(1000, &out);
  expect_live(1, "demand allocation");
  pf.OnDemandAccess(1001, &out);
  pf.OnDemandAccess(1001, &out);
  expect_live(1, "extension and head re-access");
  pf.BeginRun(5000, 5008, &out);
  for (uint64_t line = 5001; line <= 5008; ++line) pf.OnRunAccess(line, &out);
  expect_live(2, "BeginRun allocation");
  pf.OnDemandAccess(9000, &out);
  pf.OnDemandAccess(13000, &out);
  expect_live(4, "filling every slot");
  pf.OnDemandAccess(17000, &out);
  pf.BeginRun(21000, 21003, &out);
  expect_live(4, "LRU evictions");
  pf.Reset();
  expect_live(0, "Reset");
  pf.BeginRun(30000, 30002, &out);
  expect_live(1, "BeginRun allocation after Reset");
  pf.OnDemandAccess(40000, &out);
  expect_live(2, "demand allocation after Reset");
  pf.Reset();
  expect_live(0, "second Reset");
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

// A prefetcher stamp tags its stream slot in six bits, so at most 64
// streams: 65 is rejected before the constructor's CHECK, 64 constructs.
TEST(MachineValidateConfigTest, RejectsMoreStreamsThanStampTagsHold) {
  sim::MachineConfig config;
  config.hierarchy.prefetcher.num_streams = 65;
  ExpectInvalidNaming(config, "prefetcher.num_streams");
  config.hierarchy.prefetcher.num_streams = 64;
  EXPECT_TRUE(sim::Machine::ValidateConfig(config).ok());
  StreamPrefetcher pf(config.hierarchy.prefetcher);
  EXPECT_EQ(pf.live_streams(), 0u);
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

// The minimum scans read way-tagged stamps (way_scan::TaggedStamp): the way
// they return is the minimum's low six bits, which must be the way the
// first-occurrence rule picks over the untagged counters. These oracles
// state that rule over raw counters: the first way holding the minimum
// counter, and the mask's bit walk (first empty allowed way, else the first
// allowed way with the minimum counter).
int FirstMinCounterWay(const uint64_t* counters, uint32_t n) {
  int best = 0;
  for (uint32_t w = 1; w < n; ++w) {
    if (counters[w] < counters[best]) best = static_cast<int>(w);
  }
  return best;
}

int FirstVictimWay(const uint64_t* tags, const uint64_t* counters,
                   uint64_t mask) {
  int victim = -1;
  for (uint64_t cand = mask; cand != 0; cand &= cand - 1) {
    const int w = __builtin_ctzll(cand);
    if (tags[w] == way_scan::kEmptyTag) return w;
    if (victim < 0 || counters[w] < counters[victim]) victim = w;
  }
  return victim;
}

// stamps[w] = TaggedStamp(counters[w], w) for every way of the run.
void TagStamps(const uint64_t* counters, uint32_t n, uint64_t* stamps) {
  for (uint32_t w = 0; w < n; ++w) {
    stamps[w] = way_scan::TaggedStamp(counters[w], w);
  }
}

// Counters fit 64 - kStampWayBits bits; this is the top one.
constexpr uint64_t kTopCounterBit = uint64_t{1}
                                    << (63 - way_scan::kStampWayBits);

// Min-stamp (LRU victim) scans and victim selection under an allocation
// mask, on way-tagged stamps: counters drawn from a 3-value range (ties,
// which the tag breaks to the lowest way), counters with the top usable bit
// set (the stamp's bit 63: the kernels must compare unsigned), random
// nonzero masks, and guard ways past the run holding the smallest stamp.
TEST(WayScanEquivalenceTest, MinStampMatchesScalarAtAllWayCounts) {
  using namespace way_scan;
  const bool avx512 = Avx512HalfRuns();
  (void)avx512;
  Rng rng(0xA11C);
  uint64_t counters[kMaxScanWays];
  uint64_t stamps[kMaxScanWays + kGuardWays];
  uint64_t tags[kMaxScanWays + kGuardWays];
  for (uint32_t n = 1; n <= kMaxScanWays; ++n) {
    const uint64_t full = MaskForWays(n);
    for (int iter = 0; iter < 1000; ++iter) {
      // Alternate wide-range counters (unique in practice, like the live
      // stamp counter) with a tiny value range that forces duplicates.
      const bool dup = (iter & 1) != 0;
      for (uint32_t w = 0; w < n; ++w) {
        counters[w] = dup ? 1 + rng.Next() % 3
                          : 1 + (rng.Next() >> (way_scan::kStampWayBits + 1));
        if (!dup && rng.Next() % 4 == 0) counters[w] |= kTopCounterBit;
        // Distinct valid tags with an occasional empty way; none at all in
        // half the sets, so the stamp minimum decides.
        tags[w] = (iter & 2) != 0 && rng.Next() % 8 == 0 ? kEmptyTag : w;
      }
      TagStamps(counters, n, stamps);
      FillGuards(stamps, n, 0, 0);
      FillGuards(tags, n, kEmptyTag, kEmptyTag);
      const int want_min = FirstMinCounterWay(counters, n);
      uint64_t mask = rng.Next() & full;
      if (iter % 4 == 0) mask = full;
      if (mask == 0) mask = uint64_t{1} << (rng.Next() % n);
      const int want_victim = FirstVictimWay(tags, counters, mask);
      ASSERT_GE(want_victim, 0);
      const std::string at = "n=" + std::to_string(n) +
                             " iter=" + std::to_string(iter) +
                             " mask=" + std::to_string(mask);
      ASSERT_EQ(MinStampWayScalar(stamps, n), want_min) << at;
      ASSERT_EQ(VictimWayMaskedScalar(tags, stamps, mask), want_victim) << at;
      // Scalar level: the full-mask decomposition picks the bit walk's way.
      ASSERT_EQ(VictimWay<SimdLevel::kScalar>(tags, stamps, n, full),
                FirstVictimWay(tags, counters, full))
          << at;
#if CATDB_WAY_SCAN_X86
      if (avx512) {
        ASSERT_EQ(MinStampWayAvx512(stamps, n), want_min) << at;
        ASSERT_EQ(VictimWayAvx512(tags, stamps, n, mask), want_victim) << at;
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
  uint64_t counters[kMaxScanWays];
  uint64_t stamps[kMaxScanWays];
  for (uint32_t n = 1; n <= kMaxScanWays; ++n) {
    const uint64_t full = MaskForWays(n);
    for (int iter = 0; iter < 300; ++iter) {
      const uint64_t needle = rng.Next() % 4;
      for (uint32_t w = 0; w < n; ++w) {
        const uint64_t r = rng.Next();
        tags[w] = (r & 8) != 0 ? kEmptyTag : r % 4;
        counters[w] = (iter & 1) != 0
                          ? r % 3
                          : rng.Next() >> way_scan::kStampWayBits;
      }
      TagStamps(counters, n, stamps);
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
      ASSERT_EQ(MinStampWay<L>(stamps, n), FirstMinCounterWay(counters, n))
          << at;
      ASSERT_EQ(VictimWay<L>(tags, stamps, n, mask),
                FirstVictimWay(tags, counters, mask))
          << at;
      ASSERT_EQ(VictimWay<L>(tags, stamps, n, full),
                FirstVictimWay(tags, counters, full))
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
