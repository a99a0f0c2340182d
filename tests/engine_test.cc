#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "engine/composite_query.h"
#include "engine/coscheduler.h"
#include "engine/job_scheduler.h"
#include "engine/operators/aggregation.h"
#include "engine/operators/column_scan.h"
#include "engine/partitioning_policy.h"
#include "engine/row_partition.h"
#include "engine/runner.h"
#include "storage/datagen.h"

namespace catdb::engine {
namespace {

constexpr uint64_t kLlcBytes = 2 * 1024 * 1024;
constexpr uint32_t kLlcWays = 20;
constexpr uint64_t kL2Bytes = 32 * 1024;

class DummyJob : public Job {
 public:
  explicit DummyJob(CacheUsage cuid, uint64_t ws = 0) : Job("dummy", cuid) {
    set_adaptive_working_set(ws);
  }
  bool Step(sim::ExecContext&) override { return false; }
};

TEST(RowPartitionTest, BalancedAndComplete) {
  auto ranges = PartitionRows(10, 3);
  ASSERT_EQ(ranges.size(), 3u);
  EXPECT_EQ(ranges[0].size(), 4u);
  EXPECT_EQ(ranges[1].size(), 3u);
  EXPECT_EQ(ranges[2].size(), 3u);
  EXPECT_EQ(ranges[0].begin, 0u);
  EXPECT_EQ(ranges[2].end, 10u);
  for (size_t i = 1; i < ranges.size(); ++i) {
    EXPECT_EQ(ranges[i].begin, ranges[i - 1].end);
  }
}

TEST(RowPartitionTest, MoreWorkersThanRows) {
  auto ranges = PartitionRows(2, 4);
  ASSERT_EQ(ranges.size(), 4u);
  EXPECT_EQ(ranges[0].size() + ranges[1].size() + ranges[2].size() +
                ranges[3].size(),
            2u);
}

TEST(PartitioningPolicyTest, DisabledMapsEverythingToDefault) {
  PartitioningPolicy policy(PolicyConfig{}, kLlcBytes, kLlcWays, kL2Bytes);
  EXPECT_EQ(policy.GroupFor(DummyJob(CacheUsage::kPolluting)), "");
  EXPECT_EQ(policy.GroupFor(DummyJob(CacheUsage::kSensitive)), "");
  EXPECT_EQ(policy.GroupFor(DummyJob(CacheUsage::kAdaptive)), "");
}

TEST(PartitioningPolicyTest, EnabledMapsByCuid) {
  PolicyConfig cfg;
  cfg.enabled = true;
  PartitioningPolicy policy(cfg, kLlcBytes, kLlcWays, kL2Bytes);
  EXPECT_EQ(policy.GroupFor(DummyJob(CacheUsage::kPolluting)),
            kPollutingGroup);
  EXPECT_EQ(policy.GroupFor(DummyJob(CacheUsage::kSensitive)), "");
}

TEST(PartitioningPolicyTest, AdaptiveHeuristicUsesWorkingSetBounds) {
  PolicyConfig cfg;
  cfg.enabled = true;
  cfg.adaptive_l2_fit = 0.5;
  cfg.adaptive_high = 2.0;
  PartitioningPolicy policy(cfg, kLlcBytes, kLlcWays, kL2Bytes);
  // L2-resident bit vector: the join streams, pollutes.
  EXPECT_EQ(policy.GroupFor(DummyJob(CacheUsage::kAdaptive, kL2Bytes / 4)),
            kPollutingGroup);
  // Larger than the L2, comparable to the LLC: cache-sensitive, shared
  // 60 % mask.
  EXPECT_EQ(policy.GroupFor(DummyJob(CacheUsage::kAdaptive, kL2Bytes * 2)),
            kSharedGroup);
  EXPECT_EQ(policy.GroupFor(DummyJob(CacheUsage::kAdaptive, kLlcBytes / 4)),
            kSharedGroup);
  // Far exceeding the LLC: pollutes again.
  EXPECT_EQ(policy.GroupFor(DummyJob(CacheUsage::kAdaptive, kLlcBytes * 3)),
            kPollutingGroup);
}

TEST(PartitioningPolicyTest, ForcedAdaptiveOverridesHeuristic) {
  PolicyConfig cfg;
  cfg.enabled = true;
  cfg.adaptive_heuristic = false;
  cfg.adaptive_force_polluting = true;
  PartitioningPolicy policy(cfg, kLlcBytes, kLlcWays, kL2Bytes);
  EXPECT_EQ(policy.GroupFor(DummyJob(CacheUsage::kAdaptive, kLlcBytes / 4)),
            kPollutingGroup);
  cfg.adaptive_force_polluting = false;
  PartitioningPolicy policy2(cfg, kLlcBytes, kLlcWays, kL2Bytes);
  EXPECT_EQ(policy2.GroupFor(DummyJob(CacheUsage::kAdaptive, 1)),
            kSharedGroup);
}

TEST(PartitioningPolicyTest, MasksMatchPaperBitmasks) {
  PolicyConfig cfg;
  cfg.enabled = true;
  PartitioningPolicy policy(cfg, kLlcBytes, kLlcWays, kL2Bytes);
  EXPECT_EQ(policy.polluting_mask(), 0x3u);   // "0x3": 10 % of 20 ways
  EXPECT_EQ(policy.shared_mask(), 0xFFFu);    // "0xfff": 60 % of 20 ways
  EXPECT_EQ(policy.MaskForWays(20), 0xFFFFFu);
}

sim::MachineConfig SmallMachine() {
  sim::MachineConfig cfg;
  cfg.hierarchy.num_cores = 4;
  cfg.hierarchy.l1 = simcache::CacheGeometry{4, 2};
  cfg.hierarchy.l2 = simcache::CacheGeometry{8, 2};
  cfg.hierarchy.llc = simcache::CacheGeometry{64, 8};
  return cfg;
}

TEST(JobSchedulerTest, SetupCreatesGroupsWithSchemata) {
  sim::Machine m(SmallMachine());
  PolicyConfig cfg;
  cfg.enabled = true;
  cfg.polluting_ways = 2;
  cfg.shared_ways = 5;
  JobScheduler sched(&m, cfg);
  ASSERT_TRUE(sched.SetupGroups().ok());
  auto line = m.resctrl().ReadSchemata(kPollutingGroup);
  ASSERT_TRUE(line.ok());
  EXPECT_EQ(line.value(), "L3:0=3");
  auto shared = m.resctrl().ReadSchemata(kSharedGroup);
  ASSERT_TRUE(shared.ok());
  EXPECT_EQ(shared.value(), "L3:0=1f");
}

TEST(JobSchedulerTest, InstanceWaysLimitsDefaultClos) {
  sim::Machine m(SmallMachine());
  PolicyConfig cfg;
  cfg.instance_ways = 2;
  JobScheduler sched(&m, cfg);
  ASSERT_TRUE(sched.SetupGroups().ok());
  EXPECT_EQ(m.cat().CoreMask(0), 0x3u);
}

TEST(JobSchedulerTest, SkipsRedundantAssignments) {
  sim::Machine m(SmallMachine());
  PolicyConfig cfg;
  cfg.enabled = true;
  cfg.shared_ways = 5;  // SmallMachine has an 8-way LLC
  JobScheduler sched(&m, cfg);
  ASSERT_TRUE(sched.SetupGroups().ok());

  DummyJob polluting(CacheUsage::kPolluting);
  DummyJob sensitive(CacheUsage::kSensitive);
  sched.OnDispatch(&polluting, 0);  // move -> charged
  sched.OnDispatch(&polluting, 0);  // same group -> skipped
  sched.OnDispatch(&polluting, 0);
  EXPECT_EQ(sched.group_moves(), 1u);
  EXPECT_EQ(sched.skipped_moves(), 2u);
  sched.OnDispatch(&sensitive, 0);  // back to the default group
  EXPECT_EQ(sched.group_moves(), 2u);
}

TEST(JobSchedulerTest, DisabledSkipAlwaysCallsKernel) {
  sim::Machine m(SmallMachine());
  PolicyConfig cfg;
  cfg.enabled = true;
  cfg.shared_ways = 5;  // SmallMachine has an 8-way LLC
  cfg.skip_redundant_assign = false;
  JobScheduler sched(&m, cfg);
  ASSERT_TRUE(sched.SetupGroups().ok());
  DummyJob polluting(CacheUsage::kPolluting);
  sched.OnDispatch(&polluting, 0);
  sched.OnDispatch(&polluting, 0);
  EXPECT_EQ(sched.group_moves(), 2u);
  EXPECT_EQ(sched.skipped_moves(), 0u);
}

TEST(JobSchedulerTest, DispatchCostChargedToCore) {
  sim::Machine m(SmallMachine());
  PolicyConfig cfg;
  cfg.enabled = true;
  cfg.shared_ways = 5;  // SmallMachine has an 8-way LLC
  JobScheduler sched(&m, cfg);
  ASSERT_TRUE(sched.SetupGroups().ok());
  DummyJob polluting(CacheUsage::kPolluting);
  sched.OnDispatch(&polluting, 2);
  EXPECT_GE(m.clock(2), m.config().reassociation_cycles);
  EXPECT_EQ(m.clock(0), 0u);
}

// --- QueryStream / runner ---

TEST(RunnerTest, IterationCountingAndDeterminism) {
  sim::Machine m(SmallMachine());
  storage::DictColumn col = storage::MakeUniformDomainColumn(20000, 50, 9);
  col.AttachSim(&m);
  ColumnScanQuery query(&col, 10);
  query.AttachSim(&m);

  auto r1 = RunWorkload(&m, {{&query, {0, 1}}}, 2'000'000, PolicyConfig{});
  auto r2 = RunWorkload(&m, {{&query, {0, 1}}}, 2'000'000, PolicyConfig{});
  EXPECT_GT(r1.streams[0].iterations, 1.0);
  EXPECT_DOUBLE_EQ(r1.streams[0].iterations, r2.streams[0].iterations);
  EXPECT_EQ(r1.stats.dram_accesses, r2.stats.dram_accesses);
}

TEST(RunnerTest, RunQueryIterationsProducesMonotoneClocks) {
  sim::Machine m(SmallMachine());
  storage::DictColumn col = storage::MakeUniformDomainColumn(5000, 50, 9);
  col.AttachSim(&m);
  ColumnScanQuery query(&col, 10);
  query.AttachSim(&m);

  auto rep = RunQueryIterations(&m, &query, {0, 1, 2, 3}, 4, PolicyConfig{});
  const auto& clocks = rep.streams[0].iteration_end_clocks;
  ASSERT_EQ(clocks.size(), 4u);
  for (size_t i = 1; i < clocks.size(); ++i) {
    EXPECT_GT(clocks[i], clocks[i - 1]);
  }
  EXPECT_DOUBLE_EQ(rep.streams[0].iterations, 4.0);
}

TEST(RunnerTest, TwoStreamsShareTheMachine) {
  sim::Machine m(SmallMachine());
  storage::DictColumn col_a = storage::MakeUniformDomainColumn(10000, 50, 1);
  storage::DictColumn col_b = storage::MakeUniformDomainColumn(10000, 50, 2);
  col_a.AttachSim(&m);
  col_b.AttachSim(&m);
  ColumnScanQuery qa(&col_a, 3);
  ColumnScanQuery qb(&col_b, 4);
  qa.AttachSim(&m);
  qb.AttachSim(&m);

  auto rep = RunWorkload(&m, {{&qa, {0, 1}}, {&qb, {2, 3}}}, 2'000'000,
                         PolicyConfig{});
  ASSERT_EQ(rep.streams.size(), 2u);
  EXPECT_GT(rep.streams[0].iterations, 0.5);
  EXPECT_GT(rep.streams[1].iterations, 0.5);
}

TEST(CompositeQueryTest, PhasesMapToStagesInOrder) {
  sim::Machine m(SmallMachine());
  storage::DictColumn v = storage::MakeUniformDomainColumn(1000, 20, 1);
  storage::DictColumn g = storage::MakeUniformDomainColumn(1000, 5, 2);
  storage::DictColumn s = storage::MakeUniformDomainColumn(1000, 20, 3);
  v.AttachSim(&m);
  g.AttachSim(&m);
  s.AttachSim(&m);

  CompositeQuery composite("combo");
  composite.AddStage(std::make_unique<ColumnScanQuery>(&s, 5));
  composite.AddStage(std::make_unique<AggregationQuery>(&v, &g));
  composite.AttachSim(&m);
  EXPECT_EQ(composite.num_phases(), 3u);  // scan + (local, merge)

  std::vector<std::unique_ptr<Job>> jobs;
  composite.MakePhaseJobs(0, 2, &jobs);
  EXPECT_EQ(jobs[0]->cache_usage(), CacheUsage::kPolluting);
  jobs.clear();
  composite.MakePhaseJobs(1, 2, &jobs);
  EXPECT_EQ(jobs[0]->cache_usage(), CacheUsage::kSensitive);
  jobs.clear();
  composite.MakePhaseJobs(2, 2, &jobs);
  EXPECT_EQ(jobs[0]->name(), "agg_merge");

  // And it runs end to end.
  auto rep = RunQueryIterations(&m, &composite, {0, 1}, 2, PolicyConfig{});
  EXPECT_DOUBLE_EQ(rep.streams[0].iterations, 2.0);
}

TEST(RunnerTest, FractionalIterationAccounting) {
  sim::Machine m(SmallMachine());
  storage::DictColumn col = storage::MakeUniformDomainColumn(200000, 50, 9);
  col.AttachSim(&m);
  ColumnScanQuery query(&col, 10);
  query.AttachSim(&m);
  // A horizon far too short for a full iteration: the stream must report a
  // fraction strictly between 0 and 1 that grows with the horizon.
  auto run = [&](uint64_t horizon) {
    return RunWorkload(&m, {{&query, {0, 1}}}, horizon, PolicyConfig{})
        .streams[0]
        .iterations;
  };
  const double small = run(50'000);
  const double bigger = run(200'000);
  EXPECT_GT(small, 0.0);
  EXPECT_LT(small, 1.0);
  EXPECT_GT(bigger, small);
}

TEST(RunnerTest, PerStreamStatsAttributedToCores) {
  sim::Machine m(SmallMachine());
  storage::DictColumn col_a = storage::MakeUniformDomainColumn(20000, 50, 1);
  storage::DictColumn col_b = storage::MakeUniformDomainColumn(20000, 50, 2);
  col_a.AttachSim(&m);
  col_b.AttachSim(&m);
  ColumnScanQuery qa(&col_a, 3);
  ColumnScanQuery qb(&col_b, 4);
  qa.AttachSim(&m);
  qb.AttachSim(&m);
  auto rep = RunWorkload(&m, {{&qa, {0, 1}}, {&qb, {2, 3}}}, 2'000'000,
                         PolicyConfig{});
  // Each stream has hardware activity, and their sum matches the machine
  // total (all traffic is attributed to some stream core).
  EXPECT_GT(rep.streams[0].stats.llc.lookups(), 0u);
  EXPECT_GT(rep.streams[1].stats.llc.lookups(), 0u);
  EXPECT_EQ(rep.streams[0].stats.dram_accesses +
                rep.streams[1].stats.dram_accesses,
            rep.stats.dram_accesses);
}

// --- Co-scheduling planner ---

std::vector<BatchItem> MakeBatch(std::vector<CacheUsage> usages) {
  std::vector<BatchItem> batch;
  for (CacheUsage u : usages) {
    batch.push_back(BatchItem{nullptr, u, 1});
  }
  return batch;
}

TEST(CoschedulerTest, PairsPollutersAndIsolatesSensitives) {
  auto rounds = PlanCacheAwareRounds(MakeBatch(
      {CacheUsage::kPolluting, CacheUsage::kSensitive,
       CacheUsage::kPolluting, CacheUsage::kSensitive}));
  ASSERT_EQ(rounds.size(), 3u);
  EXPECT_EQ(rounds[0].items, (std::vector<size_t>{0, 2}));  // both scans
  EXPECT_EQ(rounds[1].items, (std::vector<size_t>{1}));     // agg alone
  EXPECT_EQ(rounds[2].items, (std::vector<size_t>{3}));     // agg alone
}

TEST(CoschedulerTest, LeftoverPolluterJoinsSensitiveUnderCat) {
  auto rounds = PlanCacheAwareRounds(MakeBatch(
      {CacheUsage::kPolluting, CacheUsage::kSensitive,
       CacheUsage::kSensitive}));
  ASSERT_EQ(rounds.size(), 2u);
  EXPECT_EQ(rounds[0].items, (std::vector<size_t>{1, 0}));
  EXPECT_EQ(rounds[1].items, (std::vector<size_t>{2}));
}

TEST(CoschedulerTest, AdaptiveTreatedAsPolluterForPairing) {
  auto rounds = PlanCacheAwareRounds(
      MakeBatch({CacheUsage::kAdaptive, CacheUsage::kPolluting}));
  ASSERT_EQ(rounds.size(), 1u);
  EXPECT_EQ(rounds[0].items.size(), 2u);
}

TEST(CoschedulerTest, FifoPairsInSubmissionOrder) {
  auto rounds = PlanFifoRounds(MakeBatch(
      {CacheUsage::kPolluting, CacheUsage::kSensitive,
       CacheUsage::kSensitive}));
  ASSERT_EQ(rounds.size(), 2u);
  EXPECT_EQ(rounds[0].items, (std::vector<size_t>{0, 1}));
  EXPECT_EQ(rounds[1].items, (std::vector<size_t>{2}));
}

TEST(CoschedulerTest, AllPollutersPairCleanly) {
  auto rounds = PlanCacheAwareRounds(MakeBatch(
      {CacheUsage::kPolluting, CacheUsage::kPolluting,
       CacheUsage::kPolluting}));
  ASSERT_EQ(rounds.size(), 2u);
  EXPECT_EQ(rounds[0].items.size(), 2u);
  EXPECT_EQ(rounds[1].items.size(), 1u);
}

TEST(CoschedulerTest, RoundCoreSplitCoversAllCoresEvenly) {
  // Even core counts: a straight half split in every round.
  EXPECT_EQ(RoundCoreSplit(4, 0), 2u);
  EXPECT_EQ(RoundCoreSplit(4, 1), 2u);
  EXPECT_EQ(RoundCoreSplit(8, 3), 4u);
  // Odd core counts: the extra core alternates between the two streams
  // round by round instead of always favouring the second one.
  EXPECT_EQ(RoundCoreSplit(5, 0), 3u);
  EXPECT_EQ(RoundCoreSplit(5, 1), 2u);
  EXPECT_EQ(RoundCoreSplit(5, 2), 3u);
  EXPECT_EQ(RoundCoreSplit(7, 0), 4u);
  EXPECT_EQ(RoundCoreSplit(7, 1), 3u);
  // Both parts are always non-empty and cover all cores.
  for (uint32_t cores = 2; cores <= 9; ++cores) {
    for (size_t round = 0; round < 4; ++round) {
      const uint32_t first = RoundCoreSplit(cores, round);
      EXPECT_GE(first, 1u);
      EXPECT_GE(cores - first, 1u);
    }
  }
}

TEST(CoschedulerTest, ExecuteRoundsReportCapturesPerRoundStats) {
  sim::Machine m(SmallMachine());
  storage::DictColumn col = storage::MakeUniformDomainColumn(20000, 50, 9);
  col.AttachSim(&m);
  ColumnScanQuery q1(&col, 10);
  ColumnScanQuery q2(&col, 11);
  q1.AttachSim(&m);
  q2.AttachSim(&m);
  std::vector<BatchItem> batch = {
      {&q1, CacheUsage::kPolluting, 2},
      {&q2, CacheUsage::kPolluting, 2},
  };
  PolicyConfig cat;
  cat.enabled = true;
  cat.shared_ways = 5;  // SmallMachine has an 8-way LLC
  const auto rep =
      ExecuteRoundsReport(&m, batch, PlanCacheAwareRounds(batch), cat);
  EXPECT_GT(rep.makespan_cycles, 0u);
  ASSERT_EQ(rep.round_cycles.size(), rep.round_reports.size());
  uint64_t sum = 0;
  for (uint64_t c : rep.round_cycles) sum += c;
  EXPECT_EQ(sum, rep.makespan_cycles);
  for (const auto& round : rep.round_reports) {
    EXPECT_FALSE(round.streams.empty());
  }
}

TEST(CoschedulerTest, ExecuteRoundsRunsToCompletion) {
  sim::Machine m(SmallMachine());
  storage::DictColumn col = storage::MakeUniformDomainColumn(20000, 50, 9);
  col.AttachSim(&m);
  ColumnScanQuery q1(&col, 10);
  ColumnScanQuery q2(&col, 11);
  q1.AttachSim(&m);
  q2.AttachSim(&m);
  std::vector<BatchItem> batch = {
      {&q1, CacheUsage::kPolluting, 2},
      {&q2, CacheUsage::kPolluting, 2},
  };
  PolicyConfig cat;
  cat.enabled = true;
  cat.shared_ways = 5;  // SmallMachine has an 8-way LLC
  const uint64_t makespan =
      ExecuteRoundsReport(&m, batch, PlanCacheAwareRounds(batch), cat)
          .makespan_cycles;
  EXPECT_GT(makespan, 0u);
}

}  // namespace
}  // namespace catdb::engine
