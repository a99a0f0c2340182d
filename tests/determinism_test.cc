// Determinism goldens for the event-driven executor rework: (1) the
// simulated schedule must match a naive smallest-clock scan executor
// step for step, and (2) full workload reports must be bit-identical across
// freshly constructed machines — the property every reproduced figure in
// this repository rests on.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "engine/operators/aggregation.h"
#include "engine/operators/column_scan.h"
#include "engine/runner.h"
#include "obs/trace.h"
#include "plan/fuzz.h"
#include "policy/policy_engine.h"
#include "sim/executor.h"
#include "sim/machine.h"
#include "workloads/micro.h"
#include "workloads/s4hana.h"
#include "workloads/tpch_gen.h"
#include "workloads/tpch_queries.h"

namespace catdb {
namespace {

const std::vector<uint32_t> kA = {0, 1, 2, 3};
const std::vector<uint32_t> kB = {4, 5, 6, 7};

// --- Executor equivalence fuzz -------------------------------------------

// Reference implementation of the scheduling rule: rescan every core each
// step, advance the runnable core with the smallest clock (ties: lowest
// id). The production executor reaches the same schedule through a ready
// min-heap; this model is the spec it must match.
class NaiveScanExecutor {
 public:
  explicit NaiveScanExecutor(sim::Machine* machine) : machine_(machine) {
    cores_.resize(machine_->num_cores());
  }

  void Attach(uint32_t core, sim::TaskSource* source) {
    cores_[core].source = source;
  }

  void RunUntil(uint64_t horizon) {
    for (;;) {
      int best = -1;
      uint64_t best_clock = horizon;
      for (uint32_t c = 0; c < cores_.size(); ++c) {
        if (!Replenish(c)) continue;
        const uint64_t clock = machine_->clock(c);
        if (clock < best_clock) {
          best_clock = clock;
          best = static_cast<int>(c);
        }
      }
      if (best < 0) return;
      const uint32_t core = static_cast<uint32_t>(best);
      CoreState& cs = cores_[core];
      sim::ExecContext ctx(machine_, core);
      if (!cs.current->Step(ctx)) {
        sim::Task* done = cs.current;
        cs.current = nullptr;
        cs.source->TaskFinished(done, core, machine_->clock(core));
      }
    }
  }

  void RunUntilIdle() { RunUntil(~uint64_t{0}); }

 private:
  struct CoreState {
    sim::TaskSource* source = nullptr;
    sim::Task* current = nullptr;
  };

  bool Replenish(uint32_t core) {
    CoreState& cs = cores_[core];
    if (cs.current != nullptr) return true;
    if (cs.source == nullptr) return false;
    sim::Task* task = cs.source->NextTask(core);
    if (task == nullptr) return false;
    machine_->AdvanceClockTo(core, task->ready_time());
    cs.source->TaskDispatched(task, core);
    cs.current = task;
    return true;
  }

  sim::Machine* machine_;
  std::vector<CoreState> cores_;
};

// A task mixing simulated memory traffic (so DRAM-queue ordering matters)
// with compute, logging (task id, clock) per step.
class MemTask : public sim::Task {
 public:
  MemTask(uint64_t base, uint64_t span_bytes, uint64_t seed,
          std::vector<std::pair<int, uint64_t>>* log, int id)
      : base_(base),
        span_(span_bytes),
        rng_(seed),
        steps_(1 + rng_.Uniform(12)),
        log_(log),
        id_(id) {}

  bool Step(sim::ExecContext& ctx) override {
    const uint64_t reads = 1 + rng_.Uniform(4);
    for (uint64_t i = 0; i < reads; ++i) {
      ctx.Read(base_ + rng_.Uniform(span_));
    }
    ctx.Compute(1 + rng_.Uniform(50));
    log_->emplace_back(id_, ctx.now());
    return --steps_ > 0;
  }

 private:
  uint64_t base_;
  uint64_t span_;
  Rng rng_;
  uint64_t steps_;
  std::vector<std::pair<int, uint64_t>>* log_;
  int id_;
};

class FuzzSource : public sim::TaskSource {
 public:
  sim::Task* NextTask(uint32_t) override {
    if (next_ >= tasks_.size()) return nullptr;
    return tasks_[next_++].get();
  }
  void TaskFinished(sim::Task*, uint32_t, uint64_t) override {}
  std::vector<std::unique_ptr<sim::Task>> tasks_;
  size_t next_ = 0;
};

sim::MachineConfig FuzzMachine() {
  sim::MachineConfig cfg;
  cfg.hierarchy.num_cores = 4;
  cfg.hierarchy.l1 = simcache::CacheGeometry{4, 2};
  cfg.hierarchy.l2 = simcache::CacheGeometry{8, 2};
  cfg.hierarchy.llc = simcache::CacheGeometry{64, 8};
  return cfg;
}

// Builds the rig and runs it with the given executor in several
// resume-exercising horizon segments; returns the step log.
template <typename ExecutorT>
std::vector<std::pair<int, uint64_t>> RunFuzz(uint64_t seed,
                                              std::vector<uint64_t>* clocks,
                                              uint64_t* dram) {
  sim::Machine m(FuzzMachine());
  const uint64_t span = 1 << 14;
  const uint64_t base = m.AllocVirtual(span);
  std::vector<std::pair<int, uint64_t>> log;
  FuzzSource sources[4];
  Rng rng(seed);
  for (int t = 0; t < 32; ++t) {
    const uint32_t core = static_cast<uint32_t>(rng.Uniform(4));
    auto task =
        std::make_unique<MemTask>(base, span, seed * 1000 + t, &log, t);
    if (rng.Uniform(3) == 0) {
      task->set_ready_time(rng.Uniform(4000));
    }
    sources[core].tasks_.push_back(std::move(task));
  }
  ExecutorT ex(&m);
  for (uint32_t c = 0; c < 4; ++c) ex.Attach(c, &sources[c]);
  for (uint64_t h = 500; h <= 4000; h += 700) ex.RunUntil(h);
  ex.RunUntilIdle();
  for (uint32_t c = 0; c < 4; ++c) clocks->push_back(m.clock(c));
  *dram = m.hierarchy().stats().dram_accesses;
  return log;
}

class ExecutorEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExecutorEquivalenceTest, MatchesNaiveScanExecutorStepForStep) {
  std::vector<uint64_t> clocks_fast, clocks_naive;
  uint64_t dram_fast = 0, dram_naive = 0;
  const auto log_fast =
      RunFuzz<sim::Executor>(GetParam(), &clocks_fast, &dram_fast);
  const auto log_naive =
      RunFuzz<NaiveScanExecutor>(GetParam(), &clocks_naive, &dram_naive);
  ASSERT_EQ(log_fast.size(), log_naive.size());
  EXPECT_EQ(log_fast, log_naive);
  EXPECT_EQ(clocks_fast, clocks_naive);
  EXPECT_EQ(dram_fast, dram_naive);
  EXPECT_GT(dram_fast, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecutorEquivalenceTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

// --- Full-report goldens --------------------------------------------------

void ExpectReportsIdentical(const engine::RunReport& a,
                            const engine::RunReport& b) {
  ASSERT_EQ(a.streams.size(), b.streams.size());
  for (size_t i = 0; i < a.streams.size(); ++i) {
    EXPECT_EQ(a.streams[i].query_name, b.streams[i].query_name);
    EXPECT_DOUBLE_EQ(a.streams[i].iterations, b.streams[i].iterations);
    EXPECT_EQ(a.streams[i].iteration_end_clocks,
              b.streams[i].iteration_end_clocks);
    EXPECT_EQ(a.streams[i].stats.l1.hits, b.streams[i].stats.l1.hits);
    EXPECT_EQ(a.streams[i].stats.llc.misses, b.streams[i].stats.llc.misses);
  }
  EXPECT_EQ(a.stats.l1.hits, b.stats.l1.hits);
  EXPECT_EQ(a.stats.l1.misses, b.stats.l1.misses);
  EXPECT_EQ(a.stats.l2.hits, b.stats.l2.hits);
  EXPECT_EQ(a.stats.l2.misses, b.stats.l2.misses);
  EXPECT_EQ(a.stats.llc.hits, b.stats.llc.hits);
  EXPECT_EQ(a.stats.llc.misses, b.stats.llc.misses);
  EXPECT_EQ(a.stats.dram_accesses, b.stats.dram_accesses);
  EXPECT_EQ(a.stats.dram_wait_cycles, b.stats.dram_wait_cycles);
  EXPECT_EQ(a.stats.prefetches_issued, b.stats.prefetches_issued);
  EXPECT_EQ(a.stats.prefetches_dropped, b.stats.prefetches_dropped);
  EXPECT_EQ(a.stats.prefetch_hits, b.stats.prefetch_hits);
  EXPECT_EQ(a.stats.llc_back_invalidations, b.stats.llc_back_invalidations);
  EXPECT_EQ(a.stats.instructions, b.stats.instructions);
  EXPECT_EQ(a.group_moves, b.group_moves);
  EXPECT_EQ(a.skipped_moves, b.skipped_moves);
  EXPECT_EQ(a.clos_reassociations, b.clos_reassociations);
}

// fig01-shaped golden: constructing the whole stack twice from scratch
// (machine, datasets, queries) must reproduce the report exactly,
// scheduler counters included. `regime` indexes the plan fuzzer's executor
// regimes (plan::FuzzRegimeConfig; 0 is the default machine).
engine::RunReport RunOltpScanGolden(size_t regime = 0, bool traced = false) {
  sim::Machine machine{plan::FuzzRegimeConfig(regime)};
  if (traced) machine.EnableTracing();
  auto acdoca = workloads::MakeAcdocaData(&machine, {});
  auto scan_data = workloads::MakeScanDataset(
      &machine, 1u << 20,
      workloads::DictEntriesForRatio(machine, workloads::kDictRatioSmall),
      /*seed=*/41);
  auto oltp = workloads::MakeOltpQuery(*acdoca, /*big_projection=*/true,
                                       /*num_columns=*/13, /*seed=*/42);
  engine::ColumnScanQuery scan(&scan_data.column, /*seed=*/43);
  oltp->AttachSim(&machine);
  scan.AttachSim(&machine);
  engine::PolicyConfig on;
  on.enabled = true;
  return engine::RunWorkload(&machine, {{oltp.get(), kA}, {&scan, kB}},
                             20'000'000, on);
}

// fig11-shaped golden: TPC-H Q1, which decodes the LLC-sized
// L_EXTENDEDPRICE dictionary, against a column scan confined by
// partitioning. The row counts are reduced; the dictionary is not.
engine::RunReport RunTpchScanGolden(size_t regime) {
  sim::Machine machine{plan::FuzzRegimeConfig(regime)};
  workloads::TpchConfig tpch_cfg;
  tpch_cfg.lineitem_rows = 1u << 16;
  tpch_cfg.orders_rows = 1u << 14;
  tpch_cfg.part_count = 2000;
  tpch_cfg.supplier_count = 100;
  tpch_cfg.customer_count = 1500;
  auto tpch = workloads::MakeTpchData(&machine, tpch_cfg);
  auto scan_data = workloads::MakeScanDataset(
      &machine, 1u << 20,
      workloads::DictEntriesForRatio(machine, workloads::kDictRatioSmall),
      /*seed=*/61);
  auto q1 = workloads::MakeTpchQuery(1, *tpch, /*seed=*/62);
  engine::ColumnScanQuery scan(&scan_data.column, /*seed=*/63);
  q1->AttachSim(&machine);
  scan.AttachSim(&machine);
  engine::PolicyConfig on;
  on.enabled = true;
  return engine::RunWorkload(&machine, {{q1.get(), kA}, {&scan, kB}},
                             10'000'000, on);
}

TEST(DeterminismGoldenTest, OltpScanReportIdenticalAcrossFreshMachines) {
  const engine::RunReport r1 = RunOltpScanGolden();
  const engine::RunReport r2 = RunOltpScanGolden();
  ExpectReportsIdentical(r1, r2);
  EXPECT_GT(r1.stats.dram_accesses, 0u);
  EXPECT_GT(r1.clos_reassociations, 0u);
}

// Host-side execution regimes must not move a single counter of a full
// workload run: the scalar access loop (batched_runs off) and the scalar
// way-scan path (hierarchy simd off; on a host with AVX-512F the default
// runs the AVX-512 twins) reproduce the default machine's report end to
// end, operators and scheduler included, on both the fig01 and the fig11
// shape. The per-access equivalence lives in batched_access_test.cc and
// the model-hierarchy tests; this golden pins the whole stack.
TEST(DeterminismGoldenTest, BatchedRunsReportIdenticalToScalarRuns) {
  const std::pair<const char*, std::function<engine::RunReport(size_t)>>
      shapes[] = {
          {"oltp_scan", [](size_t r) { return RunOltpScanGolden(r); }},
          {"tpch_q1_scan", RunTpchScanGolden},
      };
  for (const auto& [shape, run] : shapes) {
    const engine::RunReport reference = run(0);
    EXPECT_GT(reference.stats.dram_accesses, 0u) << shape;
    EXPECT_GT(reference.clos_reassociations, 0u) << shape;
    for (size_t r = 1; r < plan::kNumFuzzRegimes; ++r) {
      SCOPED_TRACE(std::string(shape) + " under " + plan::FuzzRegimeName(r));
      ExpectReportsIdentical(reference, run(r));
    }
  }
}

policy::DynamicRunReport RunDynamicGolden(bool traced = false) {
  sim::Machine machine{sim::MachineConfig{}};
  if (traced) machine.EnableTracing();
  auto scan_data = workloads::MakeScanDataset(
      &machine, 1u << 20,
      workloads::DictEntriesForRatio(machine, workloads::kDictRatioSmall),
      /*seed=*/51);
  auto agg_data = workloads::MakeAggDataset(
      &machine, 1u << 18,
      workloads::DictEntriesForRatio(machine, workloads::kDictRatioMedium),
      workloads::ScaledGroupCount(100000), /*seed=*/52);
  engine::ColumnScanQuery scan(&scan_data.column, /*seed=*/53);
  engine::AggregationQuery agg(&agg_data.v, &agg_data.g);
  scan.AttachSim(&machine);
  agg.AttachSim(&machine);
  policy::DynamicPolicyConfig cfg;
  cfg.interval_cycles = 1'000'000;
  return policy::RunWorkloadDynamic(&machine, {{&agg, kA}, {&scan, kB}},
                                    10'000'000, cfg);
}

TEST(DeterminismGoldenTest, DynamicPolicyReportIdenticalAcrossFreshMachines) {
  const policy::DynamicRunReport r1 = RunDynamicGolden();
  const policy::DynamicRunReport r2 = RunDynamicGolden();
  ExpectReportsIdentical(r1.report, r2.report);
  EXPECT_EQ(r1.intervals, r2.intervals);
  EXPECT_EQ(r1.schemata_writes, r2.schemata_writes);
  EXPECT_EQ(r1.restricted, r2.restricted);
  EXPECT_EQ(r1.restricted_at_interval, r2.restricted_at_interval);
}

// --- Tracing must be observation-only -------------------------------------

// Enabling the event trace must not perturb the simulation by a single
// cycle: traced and untraced runs of the same workload produce
// bit-identical reports.
TEST(TracingDeterminismTest, TracedOltpScanMatchesUntraced) {
  const engine::RunReport untraced = RunOltpScanGolden();
  const engine::RunReport traced =
      RunOltpScanGolden(/*regime=*/0, /*traced=*/true);
  ExpectReportsIdentical(untraced, traced);
}

TEST(TracingDeterminismTest, TracedDynamicRunMatchesUntraced) {
  const policy::DynamicRunReport untraced = RunDynamicGolden(false);
  const policy::DynamicRunReport traced = RunDynamicGolden(true);
  ExpectReportsIdentical(untraced.report, traced.report);
  EXPECT_EQ(untraced.intervals, traced.intervals);
  EXPECT_EQ(untraced.schemata_writes, traced.schemata_writes);
  EXPECT_EQ(untraced.restricted, traced.restricted);
  EXPECT_EQ(untraced.restricted_at_interval, traced.restricted_at_interval);
}

// A dynamic run's restriction-flip trace must replay exactly from its
// interval series: feeding the sampled (bandwidth share, hit ratio) pairs
// back through a fresh classifier reproduces every flip the run recorded.
TEST(TracingDeterminismTest, RestrictionFlipsReplayFromIntervalSeries) {
  sim::Machine machine{sim::MachineConfig{}};
  machine.EnableTracing();
  auto scan_data = workloads::MakeScanDataset(
      &machine, 1u << 20,
      workloads::DictEntriesForRatio(machine, workloads::kDictRatioSmall),
      /*seed=*/51);
  auto agg_data = workloads::MakeAggDataset(
      &machine, 1u << 18,
      workloads::DictEntriesForRatio(machine, workloads::kDictRatioMedium),
      workloads::ScaledGroupCount(100000), /*seed=*/52);
  engine::ColumnScanQuery scan(&scan_data.column, /*seed=*/53);
  engine::AggregationQuery agg(&agg_data.v, &agg_data.g);
  scan.AttachSim(&machine);
  agg.AttachSim(&machine);
  policy::DynamicPolicyConfig cfg;
  cfg.interval_cycles = 1'000'000;
  const auto r = policy::RunWorkloadDynamic(
      &machine, {{&agg, kA}, {&scan, kB}}, 10'000'000, cfg);

  std::vector<obs::TraceEvent> flips;
  for (const obs::TraceEvent& ev : machine.trace()->Events()) {
    if (ev.kind == obs::EventKind::kRestrictionFlip) flips.push_back(ev);
  }
  ASSERT_FALSE(flips.empty());
  EXPECT_EQ(flips.size(), r.schemata_writes);

  policy::ThresholdAllocator replay(cfg, /*num_streams=*/2);
  size_t next = 0;
  for (const obs::IntervalSample& sample : r.interval_series) {
    for (size_t i = 0; i < sample.clos.size(); ++i) {
      const auto d = replay.OnInterval(i, sample.clos[i].bandwidth_share,
                                       sample.clos[i].hit_ratio,
                                       sample.clos[i].llc_hits_delta +
                                           sample.clos[i].llc_misses_delta);
      if (!d.changed) continue;
      ASSERT_LT(next, flips.size());
      EXPECT_EQ(flips[next].cycle, sample.cycle_end);
      EXPECT_EQ(flips[next].arg2, i);
      EXPECT_EQ(flips[next].arg, d.restricted ? 1u : 0u);
      EXPECT_EQ(flips[next].label, r.group_names[i]);
      ++next;
    }
  }
  EXPECT_EQ(next, flips.size());
}

}  // namespace
}  // namespace catdb
