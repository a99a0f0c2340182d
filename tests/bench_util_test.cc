// Tests for the shared bench helpers (bench/bench_util.h): the strict
// ERANGE-checked flag parsers, ParseBenchArgs' rejection of anything that
// is not one of its four flags, and WarmIterationCycles' single-iteration
// behaviour (an off-by-one that used to index out of bounds when a bench
// asked for fewer than two iterations).

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "bench_util.h"
#include "engine/operators/column_scan.h"
#include "sim/machine.h"
#include "storage/datagen.h"

namespace catdb {
namespace {

// --- Strict numeric parsers ---

TEST(BenchArgParsingTest, PositiveUnsignedAcceptsInRangeIntegers) {
  unsigned v = 0;
  EXPECT_TRUE(bench::ParsePositiveUnsigned("1", &v));
  EXPECT_EQ(v, 1u);
  EXPECT_TRUE(bench::ParsePositiveUnsigned("64", &v));
  EXPECT_EQ(v, 64u);
  EXPECT_TRUE(bench::ParsePositiveUnsigned("4294967295", &v));
  EXPECT_EQ(v, std::numeric_limits<unsigned>::max());
}

TEST(BenchArgParsingTest, PositiveUnsignedRejectsGarbageZeroAndOverflow) {
  unsigned v = 0;
  EXPECT_FALSE(bench::ParsePositiveUnsigned("", &v));
  EXPECT_FALSE(bench::ParsePositiveUnsigned("abc", &v));
  EXPECT_FALSE(bench::ParsePositiveUnsigned("12x", &v));  // trailing junk
  EXPECT_FALSE(bench::ParsePositiveUnsigned("0", &v));
  EXPECT_FALSE(bench::ParsePositiveUnsigned("-3", &v));
  EXPECT_FALSE(bench::ParsePositiveUnsigned("4294967296", &v));  // > UINT_MAX
  // ERANGE territory: strtoll would clamp to LLONG_MAX; the parser must
  // fail instead of running with a silently clamped value.
  EXPECT_FALSE(bench::ParsePositiveUnsigned("99999999999999999999", &v));
}

TEST(BenchArgParsingTest, PositiveU64AcceptsFullRange) {
  uint64_t v = 0;
  EXPECT_TRUE(bench::ParsePositiveU64("200000000", &v));
  EXPECT_EQ(v, 200'000'000u);
  EXPECT_TRUE(bench::ParsePositiveU64("18446744073709551615", &v));
  EXPECT_EQ(v, std::numeric_limits<uint64_t>::max());
}

TEST(BenchArgParsingTest, PositiveU64RejectsNegativeZeroAndOverflow) {
  uint64_t v = 0;
  EXPECT_FALSE(bench::ParsePositiveU64("", &v));
  EXPECT_FALSE(bench::ParsePositiveU64("0", &v));
  // strtoull parses "-1" as 2^64 - 1 (wraps modulo 2^64); the parser must
  // see the sign and reject, not accept the wrapped value.
  EXPECT_FALSE(bench::ParsePositiveU64("-1", &v));
  EXPECT_FALSE(bench::ParsePositiveU64("18446744073709551616", &v));
  EXPECT_FALSE(bench::ParsePositiveU64("1e5", &v));  // not an integer
}

// --- ParseBenchArgs ---

// Runs ParseBenchArgs on `args`, supplying argv[0].
bench::BenchOptions ParseArgs(std::vector<std::string> args) {
  args.insert(args.begin(), "bench");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  return bench::ParseBenchArgs(static_cast<int>(argv.size()), argv.data());
}

TEST(BenchArgParsingTest, AcceptsTheFourSharedFlags) {
  const bench::BenchOptions opts = ParseArgs(
      {"--report-out=r.json", "--trace-out=t.json", "--jobs=3", "--smoke"});
  EXPECT_EQ(opts.report_out, "r.json");
  EXPECT_EQ(opts.trace_out, "t.json");
  EXPECT_EQ(opts.jobs, 3u);
  EXPECT_TRUE(opts.smoke);
}

// A report path given without "--report-out=" must fail loudly instead of
// running to completion and writing nothing.
TEST(BenchArgParsingDeathTest, StrayArgumentIsAUsageError) {
  EXPECT_EXIT(ParseArgs({"--smoke", "report.json"}),
              ::testing::ExitedWithCode(2),
              "unknown argument: report\\.json");
}

TEST(BenchArgParsingDeathTest, UnknownFlagIsAUsageError) {
  EXPECT_EXIT(ParseArgs({"--selfperf-horizon=5"}),
              ::testing::ExitedWithCode(2),
              "unknown argument: --selfperf-horizon=5");
}

// --- WarmIterationCycles ---

sim::MachineConfig SmallMachine() {
  sim::MachineConfig cfg;
  cfg.hierarchy.num_cores = 4;
  cfg.hierarchy.l1 = simcache::CacheGeometry{4, 2};
  cfg.hierarchy.l2 = simcache::CacheGeometry{8, 2};
  cfg.hierarchy.llc = simcache::CacheGeometry{64, 8};
  return cfg;
}

TEST(WarmIterationCyclesTest, SingleIterationReturnsItsFullCycles) {
  // One iteration has no warm predecessor; the helper must return that
  // iteration's cycles instead of indexing clocks[-1].
  sim::Machine m(SmallMachine());
  storage::DictColumn col = storage::MakeUniformDomainColumn(5000, 50, 9);
  col.AttachSim(&m);
  engine::ColumnScanQuery query(&col, 10);
  query.AttachSim(&m);

  const uint64_t single =
      bench::WarmIterationCycles(&m, &query, /*ways=*/4, /*iterations=*/1);
  EXPECT_GT(single, 0u);

  // Pin the exact semantics: equal to the first iteration-end clock of the
  // same run configuration.
  engine::PolicyConfig cfg;
  cfg.instance_ways = 4;
  const auto rep =
      engine::RunQueryIterations(&m, &query, bench::kCoresA, 1, cfg);
  EXPECT_EQ(single, rep.streams[0].iteration_end_clocks[0]);
}

TEST(WarmIterationCyclesTest, WarmIterationIsDeterministicAndBounded) {
  sim::Machine m(SmallMachine());
  storage::DictColumn col = storage::MakeUniformDomainColumn(5000, 50, 9);
  col.AttachSim(&m);
  engine::ColumnScanQuery query(&col, 10);
  query.AttachSim(&m);

  const uint64_t warm1 =
      bench::WarmIterationCycles(&m, &query, /*ways=*/4, /*iterations=*/3);
  const uint64_t warm2 =
      bench::WarmIterationCycles(&m, &query, /*ways=*/4, /*iterations=*/3);
  EXPECT_GT(warm1, 0u);
  EXPECT_EQ(warm1, warm2);

  // The warm iteration can only be as slow as the cold first iteration.
  const uint64_t cold =
      bench::WarmIterationCycles(&m, &query, /*ways=*/4, /*iterations=*/1);
  EXPECT_LE(warm1, cold);
}

}  // namespace
}  // namespace catdb
