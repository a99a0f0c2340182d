// Tests for the RDT-style monitoring (CMT/MBM), the physical page
// allocator + OS page coloring, and the dynamic partitioning controller.

#include <gtest/gtest.h>

#include <set>

#include "engine/job_scheduler.h"
#include "engine/operators/aggregation.h"
#include "engine/operators/column_scan.h"
#include "obs/interval_sampler.h"
#include "policy/policy_engine.h"
#include "simcache/hierarchy.h"
#include "simcache/prefetcher.h"
#include "workloads/micro.h"

namespace catdb {
namespace {

simcache::HierarchyConfig TinyHierarchy() {
  simcache::HierarchyConfig cfg;
  cfg.num_cores = 2;
  cfg.l1 = simcache::CacheGeometry{4, 2};
  cfg.l2 = simcache::CacheGeometry{8, 2};
  cfg.llc = simcache::CacheGeometry{32, 4};
  cfg.prefetcher.enabled = false;
  return cfg;
}

uint64_t Full(const simcache::MemoryHierarchy& h) {
  return (uint64_t{1} << h.config().llc.num_ways) - 1;
}

TEST(CmtTest, OccupancyTracksFillsPerClos) {
  simcache::MemoryHierarchy h(TinyHierarchy());
  for (uint64_t line = 0; line < 8; ++line) {
    h.Access(0, line * 64, line, Full(h), /*clos=*/1);
  }
  for (uint64_t line = 100; line < 104; ++line) {
    h.Access(1, line * 64, line, Full(h), /*clos=*/2);
  }
  EXPECT_EQ(h.clos_monitor(1).occupancy_lines, 8u);
  EXPECT_EQ(h.clos_monitor(2).occupancy_lines, 4u);
  EXPECT_EQ(h.clos_monitor(0).occupancy_lines, 0u);
}

TEST(CmtTest, OccupancySumMatchesValidLinesUnderChurn) {
  simcache::MemoryHierarchy h(TinyHierarchy());
  Rng rng(5);
  uint64_t clock = 0;
  for (int i = 0; i < 20000; ++i) {
    const uint32_t clos = static_cast<uint32_t>(rng.Uniform(3));
    clock +=
        h.Access(static_cast<uint32_t>(rng.Uniform(2)),
                 rng.Uniform(1u << 15), clock, Full(h), clos)
            .latency_cycles;
  }
  uint64_t sum = 0;
  for (uint32_t c = 0; c < simcache::MemoryHierarchy::kMaxClos; ++c) {
    sum += h.clos_monitor(c).occupancy_lines;
  }
  EXPECT_EQ(sum, h.llc().ValidLineCount());
}

TEST(CmtTest, VictimLosesOccupancyToFiller) {
  simcache::MemoryHierarchy h(TinyHierarchy());
  // Fill one set completely as CLOS 1, then displace one way as CLOS 2.
  const auto& geo = h.llc().geometry();
  std::vector<uint64_t> lines;
  for (uint64_t line = 0; lines.size() < 5; ++line) {
    if (geo.SetOf(line) == geo.SetOf(0)) lines.push_back(line);
  }
  for (int i = 0; i < 4; ++i) {
    h.Access(0, lines[i] * 64, i, Full(h), 1);
  }
  h.Access(0, lines[4] * 64, 10, Full(h), 2);
  EXPECT_EQ(h.clos_monitor(1).occupancy_lines, 3u);
  EXPECT_EQ(h.clos_monitor(2).occupancy_lines, 1u);
}

TEST(MbmTest, CountsDramLinesPerClos) {
  simcache::MemoryHierarchy h(TinyHierarchy());
  for (uint64_t line = 0; line < 6; ++line) {
    h.Access(0, line * 64, line, Full(h), 3);
  }
  h.Access(0, 0, 100, Full(h), 3);  // hit: no DRAM traffic
  EXPECT_EQ(h.clos_monitor(3).mbm_lines, 6u);
}

TEST(MbmTest, PrefetchTrafficAttributedToClos) {
  simcache::HierarchyConfig cfg = TinyHierarchy();
  cfg.prefetcher.enabled = true;
  simcache::MemoryHierarchy h(cfg);
  uint64_t clock = 0;
  for (uint64_t line = 0; line < 60; ++line) {
    clock += h.Access(0, line * 64, clock, Full(h), 4).latency_cycles;
  }
  // Demand misses + prefetched lines all count as CLOS-4 bandwidth.
  EXPECT_GE(h.clos_monitor(4).mbm_lines, 50u);
}

TEST(CmtTest, StatsResetKeepsOccupancyClearsBandwidth) {
  simcache::MemoryHierarchy h(TinyHierarchy());
  for (uint64_t line = 0; line < 8; ++line) {
    h.Access(0, line * 64, line, Full(h), 1);
  }
  h.ResetStats();
  EXPECT_EQ(h.clos_monitor(1).occupancy_lines, 8u);  // cache state persists
  EXPECT_EQ(h.clos_monitor(1).mbm_lines, 0u);        // counters reset
  h.ResetAll();
  EXPECT_EQ(h.clos_monitor(1).occupancy_lines, 0u);
}

TEST(SetAssocCacheTest, OwnerTagFollowsFiller) {
  simcache::SetAssocCache cache(simcache::CacheGeometry{16, 4});
  cache.Insert(5, cache.FullMask(), /*owner=*/7);
  EXPECT_EQ(cache.OwnerOf(5), 7);
  // Promotion by another owner does not steal ownership.
  cache.Insert(5, cache.FullMask(), /*owner=*/3);
  EXPECT_EQ(cache.OwnerOf(5), 7);
  EXPECT_EQ(cache.OwnerOf(6), -1);
}

// --- Machine paging and coloring ---

TEST(PagingTest, TranslateIsPageGranularAndInjective) {
  sim::Machine m{sim::MachineConfig{}};
  const uint64_t base = m.AllocVirtual(8 * simcache::kPageBytes);
  std::set<uint64_t> ppages;
  for (int p = 0; p < 8; ++p) {
    const uint64_t vaddr = base + p * simcache::kPageBytes;
    const uint64_t paddr = m.Translate(vaddr);
    EXPECT_EQ(paddr & (simcache::kPageBytes - 1),
              vaddr & (simcache::kPageBytes - 1));
    // Offsets within a page are preserved.
    EXPECT_EQ(m.Translate(vaddr + 123) - paddr, 123u);
    ppages.insert(paddr >> simcache::kPageShift);
  }
  EXPECT_EQ(ppages.size(), 8u);  // no two vpages share a physical page
}

TEST(PagingTest, DefaultAllocationSpreadsColors) {
  sim::Machine m{sim::MachineConfig{}};
  ASSERT_GT(m.num_page_colors(), 1u);
  const uint64_t base = m.AllocVirtual(64 * simcache::kPageBytes);
  std::set<uint32_t> colors;
  for (int p = 0; p < 64; ++p) {
    colors.insert(m.PageColorOf(base + p * simcache::kPageBytes));
  }
  EXPECT_GT(colors.size(), m.num_page_colors() / 2);
}

TEST(ColoringTest, ColoredAllocationStaysInMask) {
  sim::Machine m{sim::MachineConfig{}};
  ASSERT_GE(m.num_page_colors(), 4u);
  const uint64_t mask = 0b1010;  // colors 1 and 3
  const uint64_t base = m.AllocVirtualColored(32 * simcache::kPageBytes,
                                              mask);
  for (int p = 0; p < 32; ++p) {
    const uint32_t color = m.PageColorOf(base + p * simcache::kPageBytes);
    EXPECT_TRUE(color == 1 || color == 3) << color;
  }
}

TEST(ColoringTest, ColoredDataConfinedToColorSets) {
  sim::Machine m{sim::MachineConfig{}};
  const uint32_t colors = m.num_page_colors();
  ASSERT_GT(colors, 1u);
  const uint64_t base = m.AllocVirtualColored(16 * simcache::kPageBytes,
                                              /*color 0 only=*/0x1);
  for (uint64_t off = 0; off < 16 * simcache::kPageBytes;
       off += simcache::kLineSize) {
    m.Access(0, base + off, false);
  }
  // Every cached line of the colored range maps to the color-0 set region.
  const uint32_t sets_per_color =
      m.config().hierarchy.llc.num_sets / colors;
  std::vector<uint64_t> lines;
  m.hierarchy().llc().CollectValidLines(&lines);
  ASSERT_FALSE(lines.empty());
  for (uint64_t line : lines) {
    const uint32_t set = m.config().hierarchy.llc.SetOf(line);
    EXPECT_LT(set, sets_per_color);
  }
}

TEST(ColoringTest, ScopedGuardRestoresMask) {
  sim::Machine m{sim::MachineConfig{}};
  {
    sim::ScopedPageColors guard(&m, 0x1);
    EXPECT_EQ(m.alloc_color_mask(), 0x1u);
    const uint64_t addr = m.AllocVirtual(simcache::kPageBytes);
    EXPECT_EQ(m.PageColorOf(addr), 0u);
  }
  EXPECT_EQ(m.alloc_color_mask(), 0u);
}

TEST(MonitoringApiTest, GroupAccessorsResolveClos) {
  sim::Machine m{sim::MachineConfig{}};
  ASSERT_TRUE(m.resctrl().CreateGroup("g").ok());
  ASSERT_TRUE(m.resctrl().AssignTask(0, "g").ok());
  m.resctrl().OnContextSwitch(0, 0);
  const uint64_t addr = m.AllocVirtual(1 << 14);
  for (uint64_t off = 0; off < (1 << 14); off += 64) {
    m.Access(0, addr + off, false);
  }
  auto occ = m.LlcOccupancyBytes("g");
  auto mbm = m.MbmTotalBytes("g");
  ASSERT_TRUE(occ.ok());
  ASSERT_TRUE(mbm.ok());
  EXPECT_GT(occ.value(), 0u);
  EXPECT_GT(mbm.value(), 0u);
  EXPECT_FALSE(m.LlcOccupancyBytes("missing").ok());
}

TEST(PrefetcherTest, StreamsStopAtPageBoundary) {
  simcache::PrefetcherConfig cfg;
  cfg.trigger_run = 2;
  cfg.depth = 8;
  simcache::StreamPrefetcher pf(cfg);
  std::vector<uint64_t> out;
  pf.OnDemandAccess(60, &out);
  pf.OnDemandAccess(61, &out);
  // Lines 62 and 63 are in this page; 64 starts the next page.
  for (uint64_t line : out) EXPECT_LT(line, 64u);
}

// --- Dynamic policy controller ---

TEST(DynamicPolicyTest, ClassifiesScanAsPolluterAndHelps) {
  sim::Machine machine{sim::MachineConfig{}};
  auto scan_data = workloads::MakeScanDataset(
      &machine, 1u << 21,
      workloads::DictEntriesForRatio(machine, workloads::kDictRatioSmall),
      61);
  auto agg_data = workloads::MakeAggDataset(
      &machine, 1u << 20,
      workloads::DictEntriesForRatio(machine, workloads::kDictRatioMedium),
      workloads::ScaledGroupCount(100000), 62);
  engine::ColumnScanQuery scan(&scan_data.column, 63);
  engine::AggregationQuery agg(&agg_data.v, &agg_data.g);
  scan.AttachSim(&machine);
  agg.AttachSim(&machine);

  const std::vector<engine::StreamSpec> specs = {{&agg, {0, 1, 2, 3}},
                                                 {&scan, {4, 5, 6, 7}}};
  const uint64_t horizon = 60'000'000;
  auto shared = engine::RunWorkload(&machine, specs, horizon,
                                    engine::PolicyConfig{});
  auto dynamic = policy::RunWorkloadDynamic(&machine, specs, horizon,
                                            policy::DynamicPolicyConfig{});

  EXPECT_FALSE(dynamic.restricted[0]);  // the aggregation keeps the cache
  EXPECT_TRUE(dynamic.restricted[1]);   // the scan is confined
  EXPECT_GT(dynamic.report.streams[0].iterations,
            shared.streams[0].iterations * 1.05);
}

TEST(DynamicPolicyTest, DeterministicAcrossRuns) {
  sim::Machine machine{sim::MachineConfig{}};
  auto scan_data = workloads::MakeScanDataset(&machine, 1u << 20, 1000, 71);
  engine::ColumnScanQuery scan(&scan_data.column, 72);
  scan.AttachSim(&machine);
  const std::vector<engine::StreamSpec> specs = {{&scan, {0, 1}}};
  auto r1 = policy::RunWorkloadDynamic(&machine, specs, 20'000'000,
                                       policy::DynamicPolicyConfig{});
  auto r2 = policy::RunWorkloadDynamic(&machine, specs, 20'000'000,
                                       policy::DynamicPolicyConfig{});
  EXPECT_DOUBLE_EQ(r1.report.streams[0].iterations,
                   r2.report.streams[0].iterations);
  EXPECT_EQ(r1.schemata_writes, r2.schemata_writes);
}

TEST(MonitoringApiTest, ClosReuseStartsWithFreshCounters) {
  sim::Machine m{sim::MachineConfig{}};
  ASSERT_TRUE(m.resctrl().CreateGroup("old").ok());
  ASSERT_TRUE(m.resctrl().AssignTask(0, "old").ok());
  m.resctrl().OnContextSwitch(0, 0);
  const uint64_t addr = m.AllocVirtual(1 << 14);
  for (uint64_t off = 0; off < (1 << 14); off += 64) {
    m.Access(0, addr + off, false);
  }
  ASSERT_GT(m.MbmTotalBytes("old").value(), 0u);
  ASSERT_TRUE(m.resctrl().RemoveGroup("old").ok());

  // The new group reuses the freed CLOS. Its cumulative counters must not
  // inherit the previous tenant's traffic...
  ASSERT_TRUE(m.resctrl().CreateGroup("fresh").ok());
  EXPECT_EQ(m.MbmTotalBytes("fresh").value(), 0u);
  // ...but occupancy is a level, not a counter: the old tenant's resident
  // lines still drain through victim accounting, so it stays non-zero.
  EXPECT_GT(m.LlcOccupancyBytes("fresh").value(), 0u);
}

TEST(DynamicPolicyTest, FinalShortIntervalIsSampledAtActualLength) {
  sim::Machine machine{sim::MachineConfig{}};
  auto scan_data = workloads::MakeScanDataset(&machine, 1u << 20, 1000, 81);
  engine::ColumnScanQuery scan(&scan_data.column, 82);
  scan.AttachSim(&machine);
  const std::vector<engine::StreamSpec> specs = {{&scan, {0, 1}}};

  policy::DynamicPolicyConfig cfg;
  cfg.interval_cycles = 10'000'000;
  // A horizon that is not a multiple of the interval leaves a 40 % tail.
  const uint64_t horizon = 2 * cfg.interval_cycles + 4'000'000;
  auto r = policy::RunWorkloadDynamic(&machine, specs, horizon, cfg);

  ASSERT_EQ(r.interval_series.size(), 3u);
  const auto& last = r.interval_series.back();
  EXPECT_EQ(last.cycle_end, horizon);
  EXPECT_EQ(last.cycle_end - last.cycle_begin, 4'000'000u);

  // Every sample's bandwidth share is judged against its *actual* length,
  // so a busy short tail reads as busy instead of being diluted by a
  // full-interval denominator.
  const uint64_t transfer =
      machine.config().hierarchy.latency.dram_transfer;
  for (const auto& sample : r.interval_series) {
    const uint64_t interval = sample.cycle_end - sample.cycle_begin;
    for (const auto& cs : sample.clos) {
      EXPECT_DOUBLE_EQ(cs.bandwidth_share,
                       obs::ChannelBandwidthShare(cs.mbm_lines_delta,
                                                  interval, transfer));
    }
  }
}

TEST(JobSchedulerTest, CoreGroupOverrideBypassesPolicy) {
  sim::Machine machine{sim::MachineConfig{}};
  engine::PolicyConfig cfg;
  cfg.enabled = true;
  engine::JobScheduler sched(&machine, cfg);
  ASSERT_TRUE(sched.SetupGroups().ok());
  ASSERT_TRUE(machine.resctrl().CreateGroup("pinned").ok());
  sched.SetCoreGroupOverride(1, "pinned");

  class DummyJob : public engine::Job {
   public:
    DummyJob() : Job("dummy", engine::CacheUsage::kPolluting) {}
    bool Step(sim::ExecContext&) override { return false; }
  } job;

  sched.OnDispatch(&job, 0);  // policy applies: polluting group
  sched.OnDispatch(&job, 1);  // override applies: pinned group
  EXPECT_EQ(machine.resctrl().GroupOfTask(0), engine::kPollutingGroup);
  EXPECT_EQ(machine.resctrl().GroupOfTask(1), "pinned");
}

}  // namespace
}  // namespace catdb
