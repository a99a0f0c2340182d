// Tests for the parallel sweep harness: every cell runs, a failing cell
// neither cancels its siblings nor hides a lower-indexed failure, the
// CATDB_JOBS override, and the SweepRunner determinism contract — the
// merged run report must be byte-identical for every thread count, because
// each cell owns its machine and RNG state and gathering is by cell index,
// not completion order.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "engine/operators/aggregation.h"
#include "engine/runner.h"
#include "harness/sweep_runner.h"
#include "workloads/micro.h"

namespace catdb {
namespace {

harness::SweepRunner::Options Jobs(unsigned jobs) {
  harness::SweepRunner::Options options;
  options.jobs = jobs;
  return options;
}

// --- SweepRunner ---------------------------------------------------------

TEST(SweepRunnerTest, CellFailurePropagatesFromRun) {
  harness::SweepRunner::Options options;
  options.jobs = 2;
  harness::SweepRunner runner("harness_test", options);
  runner.AddCell("ok", [](harness::SweepCell& cell) {
    cell.report().AddScalar("ok", 1.0);
  });
  runner.AddCell("bad", [](harness::SweepCell&) {
    throw std::runtime_error("bad cell");
  });
  EXPECT_THROW(runner.Run(), std::runtime_error);
}

TEST(SweepRunnerTest, RunsEveryCell) {
  constexpr int kCells = 200;
  harness::SweepRunner runner("harness_test", Jobs(4));
  std::atomic<int> count{0};
  for (int i = 0; i < kCells; ++i) {
    runner.AddCell("cell" + std::to_string(i), [&count](harness::SweepCell&) {
      count.fetch_add(1, std::memory_order_relaxed);
    });
  }
  runner.Run();
  EXPECT_EQ(count.load(), kCells);
  EXPECT_EQ(runner.num_cells(), static_cast<size_t>(kCells));
}

TEST(SweepRunnerTest, GatherByIndexIsDeterministic) {
  // Completion order is unspecified, but a cell writing into the slot of
  // its own index gathers deterministically.
  constexpr int kCells = 64;
  harness::SweepRunner runner("harness_test", Jobs(3));
  std::vector<int> out(kCells, -1);
  for (int i = 0; i < kCells; ++i) {
    const size_t index = runner.AddCell(
        "cell" + std::to_string(i),
        [&out, i](harness::SweepCell&) { out[static_cast<size_t>(i)] = i * i; });
    EXPECT_EQ(index, static_cast<size_t>(i));
  }
  runner.Run();
  for (int i = 0; i < kCells; ++i) {
    EXPECT_EQ(out[static_cast<size_t>(i)], i * i);
  }
}

TEST(SweepRunnerTest, FailingCellDoesNotCancelSiblings) {
  harness::SweepRunner runner("harness_test", Jobs(2));
  std::atomic<int> ran{0};
  for (int i = 0; i < 8; ++i) {
    runner.AddCell("cell" + std::to_string(i),
                   [&ran, i](harness::SweepCell&) {
                     ran.fetch_add(1, std::memory_order_relaxed);
                     if (i == 3) throw std::runtime_error("cell failure");
                   });
  }
  EXPECT_THROW(runner.Run(), std::runtime_error);
  EXPECT_EQ(ran.load(), 8);
}

// Cells 2 and 5 fail. With more than one thread, cell 2 holds its failure
// until cell 5 has thrown, so the lower-indexed failure is also the later
// one; Run() must still report cell 2.
TEST(SweepRunnerTest, RethrowsLowestIndexedFailure) {
  for (unsigned jobs : {1u, 2u, 4u}) {
    harness::SweepRunner runner("harness_test", Jobs(jobs));
    std::atomic<bool> cell5_failed{false};
    for (int i = 0; i < 8; ++i) {
      runner.AddCell(
          "cell" + std::to_string(i),
          [&cell5_failed, i, jobs](harness::SweepCell&) {
            if (i == 2) {
              const auto deadline =
                  std::chrono::steady_clock::now() + std::chrono::seconds(30);
              while (jobs > 1 && !cell5_failed.load() &&
                     std::chrono::steady_clock::now() < deadline) {
                std::this_thread::yield();
              }
              throw std::runtime_error("cell 2 failed");
            }
            if (i == 5) {
              cell5_failed.store(true);
              throw std::runtime_error("cell 5 failed");
            }
          });
    }
    try {
      runner.Run();
      ADD_FAILURE() << "jobs=" << jobs << ": Run() did not throw";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "cell 2 failed") << "jobs=" << jobs;
    }
  }
}

TEST(SweepRunnerTest, SingleJobRunsCellsInIndexOrder) {
  harness::SweepRunner runner("harness_test", Jobs(1));
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    runner.AddCell("cell" + std::to_string(i),
                   [&order, i](harness::SweepCell&) { order.push_back(i); });
  }
  runner.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SweepRunnerTest, DefaultJobsHonorsEnvOverride) {
  ASSERT_EQ(setenv("CATDB_JOBS", "3", /*overwrite=*/1), 0);
  EXPECT_EQ(harness::DefaultJobs(), 3u);
  EXPECT_EQ(harness::SweepRunner("harness_test", Jobs(0)).jobs(), 3u);

  ASSERT_EQ(unsetenv("CATDB_JOBS"), 0);
  const unsigned host = harness::DefaultJobs();
  EXPECT_GE(host, 1u);

  // Malformed and out-of-range values fall back to the host count: strtol
  // saturates the first out-of-range value at LONG_MAX, and the second
  // would wrap to 1 in a cast to unsigned.
  for (const char* bad :
       {"not-a-number", "99999999999999999999", "4294967297"}) {
    ASSERT_EQ(setenv("CATDB_JOBS", bad, 1), 0);
    EXPECT_EQ(harness::DefaultJobs(), host) << bad;
    EXPECT_EQ(harness::SweepRunner("harness_test", Jobs(0)).jobs(), host)
        << bad;
  }
  ASSERT_EQ(unsetenv("CATDB_JOBS"), 0);
}

// A job count far past the cell count runs with one thread per cell (never
// 2^30 threads) and reports exactly what a serial sweep reports.
TEST(SweepRunnerTest, HugeJobCountMatchesSerialReport) {
  std::string serial;
  for (unsigned jobs : {1u, 1u << 30}) {
    harness::SweepRunner::Options options;
    options.jobs = jobs;
    harness::SweepRunner runner("harness_test", options);
    for (int i = 0; i < 3; ++i) {
      runner.AddCell("cell" + std::to_string(i),
                     [i](harness::SweepCell& cell) {
                       cell.report().AddScalar(cell.name(),
                                               static_cast<double>(i));
                     });
    }
    runner.Run();
    if (jobs == 1) {
      serial = runner.report().Json();
    } else {
      EXPECT_EQ(runner.report().Json(), serial);
    }
  }
}

TEST(SweepRunnerTest, ShardsMergeInCellIndexOrder) {
  // Cells record in reverse-cost order so later cells tend to finish first
  // under parallelism; the merged report must still follow cell index.
  for (unsigned jobs : {1u, 4u}) {
    harness::SweepRunner::Options options;
    options.jobs = jobs;
    harness::SweepRunner runner("harness_test", options);
    constexpr int kCells = 12;
    for (int i = 0; i < kCells; ++i) {
      runner.AddCell("cell" + std::to_string(i),
                     [i](harness::SweepCell& cell) {
                       // Unequal cell cost: early cells spin longest.
                       volatile uint64_t sink = 0;
                       for (int k = 0; k < (kCells - i) * 20000; ++k) {
                         sink = sink + static_cast<uint64_t>(k);
                       }
                       cell.report().AddScalar(cell.name(),
                                               static_cast<double>(i));
                     });
    }
    runner.Run();
    const std::string json = runner.report().Json();
    size_t pos = 0;
    for (int i = 0; i < kCells; ++i) {
      const size_t at = json.find("\"cell" + std::to_string(i) + "\"", pos);
      ASSERT_NE(at, std::string::npos) << "jobs=" << jobs << " cell " << i;
      pos = at;
    }
  }
}

// Cycles of one warm query iteration at an LLC-way restriction (the sweep
// benches' measurement kernel, inlined here to keep the test on the public
// library surface).
uint64_t WarmIterationCycles(sim::Machine* machine, engine::Query* query,
                             uint32_t ways) {
  engine::PolicyConfig cfg;
  cfg.instance_ways = ways;
  const auto rep = engine::RunQueryIterations(machine, query, {0, 1, 2, 3},
                                              /*iterations=*/3, cfg);
  const auto& clocks = rep.streams[0].iteration_end_clocks;
  return clocks.back() - clocks[clocks.size() - 2];
}

// A miniature fig05-style sweep cell: its own machine, dataset and query,
// an explicit full-LLC baseline, then a two-point way sweep.
void AddMiniCells(harness::SweepRunner* runner) {
  static constexpr uint32_t kGroups[] = {1000, 100000};
  for (size_t gi = 0; gi < std::size(kGroups); ++gi) {
    const uint32_t groups = kGroups[gi];
    runner->AddCell(
        "groups" + std::to_string(groups),
        [groups, gi](harness::SweepCell& cell) {
          sim::Machine& machine = cell.MakeMachine();
          auto data = workloads::MakeAggDataset(
              &machine, workloads::kDefaultAggRows / 8,
              workloads::DictEntriesForRatio(machine,
                                             workloads::kDictRatioSmall),
              workloads::ScaledGroupCount(groups), 9900 + gi);
          engine::AggregationQuery query(&data.v, &data.g);
          query.AttachSim(&machine);
          const uint32_t full_ways =
              machine.config().hierarchy.llc.num_ways;
          const uint64_t full =
              WarmIterationCycles(&machine, &query, full_ways);
          for (uint32_t ways : {8u, 2u}) {
            const uint64_t cycles =
                WarmIterationCycles(&machine, &query, ways);
            cell.report().AddScalar(
                cell.name() + "/ways" + std::to_string(ways),
                static_cast<double>(full) / static_cast<double>(cycles));
          }
        });
  }
}

TEST(SweepRunnerTest, ReportByteIdenticalAcrossJobCounts) {
  std::string reference;
  for (unsigned jobs : {1u, 2u, 3u, 5u}) {
    harness::SweepRunner::Options options;
    options.jobs = jobs;
    harness::SweepRunner runner("harness_minisweep", options);
    AddMiniCells(&runner);
    runner.Run();
    EXPECT_EQ(runner.jobs(), jobs);
    const std::string json = runner.report().Json();
    if (reference.empty()) {
      reference = json;
      EXPECT_NE(reference.find("\"groups1000/ways8\""), std::string::npos);
    } else {
      EXPECT_EQ(json, reference) << "jobs=" << jobs;
    }
  }
}

}  // namespace
}  // namespace catdb
