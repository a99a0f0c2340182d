// Tests of the benchmark's own arithmetic and checks: span self times, the
// golden comparison, the serving cells it re-executes for tracing, and the
// host-speed scaling of its times.

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "goldens.h"
#include "host_speed.h"
#include "plan/scenario_exec.h"
#include "spans.h"
#include "workloads.h"

namespace hostbench {
namespace {

Span MakeSpan(const char* row, int parent, double start, double end,
              unsigned threads = 1) {
  Span s;
  s.name = row;
  s.row = row;
  s.parent = parent;
  s.start = start;
  s.end = end;
  s.threads = threads;
  return s;
}

double Row(const std::vector<SelfTimeRow>& rows, const std::string& name) {
  for (const SelfTimeRow& r : rows) {
    if (r.row == name) return r.seconds;
  }
  ADD_FAILURE() << "no row " << name;
  return -1;
}

TEST(SelfTimes, BooksSelfTimeSumsAndUnattributedRemainder) {
  // Root holds 2 threads for 10 s: a serial phase, then a sweep whose two
  // cells run one per thread, one of them with 2 s of summed Step calls.
  std::vector<Span> spans = {
      MakeSpan("unattributed", -1, 0, 10, 2),  // 0
      MakeSpan("plan", 0, 1, 4, 2),            // 1
      MakeSpan("harness", 0, 4, 9, 2),         // 2
      MakeSpan("serve", 2, 4, 8),              // 3
      MakeSpan("serve", 2, 4, 9),              // 4
      MakeSpan("other run", -1, 20, 30),       // 5: not in the subtree
  };
  spans[4].sums.emplace_back("engine.step", 2.0);

  const std::vector<SelfTimeRow> rows = SelfTimes(spans, 0);
  EXPECT_DOUBLE_EQ(Row(rows, "unattributed"), 20 - 6 - 10);
  EXPECT_DOUBLE_EQ(Row(rows, "plan"), 6);
  EXPECT_DOUBLE_EQ(Row(rows, "harness"), 10 - 4 - 5);
  EXPECT_DOUBLE_EQ(Row(rows, "serve"), 4 + (5 - 2));
  EXPECT_DOUBLE_EQ(Row(rows, "engine.step"), 2);
  double total = 0;
  for (const SelfTimeRow& r : rows) total += r.seconds;
  EXPECT_DOUBLE_EQ(total, 20);
  EXPECT_EQ(rows.size(), 5u);  // the other run's span is not booked
  EXPECT_EQ(rows.front().row, "unattributed");
}

TEST(SelfTimes, RecordedSpansAddUpToTheRoot) {
  SpanRecorder rec;
  int root = -1;
  {
    ScopedSpan r({&rec, -1, 1}, "root", "unattributed");
    root = r.id();
    ScopedSpan a(r.child(), "a", "layer_a");
    {
      ScopedSpan b(a.child(), "b", "layer_b");
      rec.AddSum(b.id(), "summed", 0.0);
    }
  }
  const std::vector<Span> spans = rec.Snapshot();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].parent, 1);
  EXPECT_EQ(spans[2].run, 1);
  double total = 0;
  for (const SelfTimeRow& r : SelfTimes(spans, root)) total += r.seconds;
  EXPECT_NEAR(total, rec.Duration(root), 1e-12);
}

/// The serving sweep at the scenario's smoke configuration, re-executed.
ServeCells SmokeCells(const catdb::plan::Scenario& scenario) {
  ServeCells cells;
  RunServeCells(scenario, /*jobs=*/2, /*smoke=*/true, /*profile=*/false, {},
                &cells);
  return cells;
}

catdb::plan::Scenario SmokeScenario() {
  catdb::plan::Scenario scenario;
  const catdb::Status st =
      LoadServeScenario(HOSTBENCH_SCENARIO, ServeInputs(0), &scenario);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return scenario;
}

TEST(ServeCells, RebuiltCellsMatchRunScenarioOnSmokeConfig) {
  const catdb::plan::Scenario scenario = SmokeScenario();
  catdb::plan::ExecOptions exec;
  exec.jobs = 2;
  exec.smoke = true;
  catdb::plan::ScenarioRunResult result;
  ASSERT_TRUE(catdb::plan::RunScenario(scenario, exec, &result).ok());

  SpanRecorder rec;
  int sweep = -1;
  ServeCells cells;
  {
    ScopedSpan span({&rec, -1, 1}, "sweep", "harness", /*threads=*/2);
    sweep = span.id();
    RunServeCells(scenario, /*jobs=*/2, /*smoke=*/true, /*profile=*/false,
                  span.child(), &cells);
  }
  const SimOutputs expected = ServeOutputs(scenario, result.serving);
  ASSERT_EQ(expected.size(), 8u);  // 2 smoke loads x 4 policies
  const CheckResult check = CheckOutputs(cells.outputs, expected);
  EXPECT_EQ(check.attempted, 8u);
  EXPECT_EQ(check.failed, 0u);
  EXPECT_EQ(cells.runner->report().Json(), result.runner->report().Json());
  EXPECT_GT(TotalAccesses(cells.outputs), 0);

  // Every cell, run on a pool thread, left one span under the sweep.
  const std::vector<Span> spans = rec.Snapshot();
  ASSERT_EQ(spans.size(), 9u);
  for (size_t i = 1; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].parent, sweep);
    EXPECT_GE(spans[i].end, spans[i].start);
  }
}

TEST(Goldens, PerturbedGoldenCountsFailedSimulations) {
  const catdb::plan::Scenario scenario = SmokeScenario();
  const SimOutputs observed = SmokeCells(scenario).outputs;

  CheckResult same = CheckOutputs(observed, observed);
  EXPECT_EQ(same.attempted, 8u);
  EXPECT_EQ(same.failed, 0u);

  // One value off by one fails exactly its simulation.
  SimOutputs perturbed = observed;
  perturbed.begin()->second["p99"] += 1;
  const CheckResult one = CheckOutputs(perturbed, observed);
  EXPECT_EQ(one.attempted, 8u);
  EXPECT_EQ(one.failed, 1u);
  ASSERT_EQ(one.mismatches.size(), 1u);
  EXPECT_NE(one.mismatches[0].find("/p99"), std::string::npos);

  // A simulation the golden lacks, and one the run lacks, fail too.
  SimOutputs missing = observed;
  missing.erase(missing.begin());
  EXPECT_EQ(CheckOutputs(missing, observed).failed, 1u);
  EXPECT_EQ(CheckOutputs(observed, missing).failed, 1u);

  // Outputs the golden does not know fail; outputs a pass cannot observe
  // do not.
  SimOutputs fewer_keys = observed;
  fewer_keys.begin()->second.erase("llc_hits");
  EXPECT_EQ(CheckOutputs(fewer_keys, observed).failed, 1u);
  EXPECT_EQ(CheckOutputs(observed, fewer_keys).failed, 0u);
}

TEST(Goldens, GoldenRunScenarioDoesNotReturnFailsTheObservingPass) {
  // RunScenario returns no hierarchy counters, so the measured run checks
  // them in its first pass, which re-executes the cells and reports every
  // golden output.
  const catdb::plan::Scenario scenario = SmokeScenario();
  catdb::plan::ExecOptions exec;
  exec.jobs = 2;
  exec.smoke = true;
  catdb::plan::ScenarioRunResult result;
  ASSERT_TRUE(catdb::plan::RunScenario(scenario, exec, &result).ok());
  const SimOutputs measured = ServeOutputs(scenario, result.serving);
  const SimOutputs all = SmokeCells(scenario).outputs;
  ASSERT_EQ(measured.begin()->second.count("l1_misses"), 0u);

  SimOutputs perturbed = all;
  perturbed.begin()->second["l1_misses"] += 1;
  EXPECT_EQ(CheckOutputs(perturbed, measured).failed, 0u);
  const CheckResult r = CheckAllOutputs(perturbed, all);
  EXPECT_EQ(r.attempted, 8u);
  EXPECT_EQ(r.failed, 1u);
  ASSERT_EQ(r.mismatches.size(), 1u);
  EXPECT_NE(r.mismatches[0].find("/l1_misses"), std::string::npos);

  // A golden output the pass does not report fails its simulation.
  SimOutputs fewer_keys = all;
  fewer_keys.begin()->second.erase("l1_misses");
  EXPECT_EQ(CheckAllOutputs(all, fewer_keys).failed, 1u);
  EXPECT_EQ(CheckAllOutputs(all, all).failed, 0u);
}

TEST(HostSpeed, ScalesSectionTimeToTheReferenceSpeed) {
  const double ref = kProbeReferenceSeconds;
  EXPECT_DOUBLE_EQ(RelativeSpeed({ref, ref, ref}), 1.0);
  // Half the section at half speed, half at full speed.
  EXPECT_DOUBLE_EQ(RelativeSpeed({2 * ref, ref}), 0.75);
  // 10.5 s measured, of which the probes took 0.5 s, at 0.75 speed.
  EXPECT_DOUBLE_EQ(AtReferenceSpeed(10.5, 0.5, 0.75), 7.5);
}

TEST(HostSpeed, ProbeDoesTheSameWorkOnEveryRun) {
  // The probe is the yardstick of every scaled time: a change to its work
  // changes every result, so its hit count is pinned.
  ProbeModel a;
  ProbeModel b;
  const uint64_t hits = RunProbe(&a);
  EXPECT_EQ(hits, 12859u);
  EXPECT_EQ(RunProbe(&a), hits);
  EXPECT_EQ(RunProbe(&b), hits);
}

TEST(HostSpeed, SamplerProbesEveryCpuUntilEnd) {
  const std::vector<int> cpus = AllowedCpus();
  ASSERT_FALSE(cpus.empty());
  HostSpeedSampler sampler({cpus.front()});
  for (int section = 0; section < 2; ++section) {
    sampler.Begin();
    std::this_thread::sleep_for(std::chrono::duration<double>(
        2.5 * kProbePeriodSeconds));
    const HostSpeedSection s = sampler.End();
    EXPECT_EQ(s.cpus, 1u);
    EXPECT_GE(s.runs, 2u);
    EXPECT_LE(s.runs, 4u);
    EXPECT_GT(s.probe_cpu_s, 0);
    EXPECT_GT(s.speed, 0);
  }
}

TEST(Goldens, RecordedFileMatchesTheBenchmarkInputsAndRoundTrips) {
  Goldens goldens;
  const catdb::Status st = LoadGoldens(HOSTBENCH_GOLDENS, &goldens);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_EQ(goldens.at(kPairWorkload).size(), kVariants);
  ASSERT_EQ(goldens.at(kServeWorkload).size(), kVariants);
  for (uint32_t v = 0; v < kVariants; ++v) {
    EXPECT_EQ(goldens[kPairWorkload][v].inputs, PairInputs(v));
    EXPECT_EQ(goldens[kPairWorkload][v].sims.size(), 4u);
    EXPECT_EQ(goldens[kServeWorkload][v].inputs, ServeInputs(v));
    EXPECT_EQ(goldens[kServeWorkload][v].sims.size(), 20u);
  }
  // fig01's headline numbers at the default seed.
  const SimOutputs& fig01 = goldens[kPairWorkload][0].sims;
  const double iso = fig01.at("iso_a").at("iterations_a");
  EXPECT_NEAR(fig01.at("concurrent").at("iterations_a") / iso, 0.2443, 5e-5);
  EXPECT_NEAR(fig01.at("partitioned").at("iterations_a") / iso, 0.9730, 5e-5);

  Goldens reparsed;
  ASSERT_TRUE(ParseGoldens(GoldensToJson(goldens), &reparsed).ok());
  for (const char* w : {kPairWorkload, kServeWorkload}) {
    for (uint32_t v = 0; v < kVariants; ++v) {
      EXPECT_EQ(CheckOutputs(goldens[w][v].sims, reparsed[w][v].sims).failed,
                0u);
    }
  }
}

}  // namespace
}  // namespace hostbench
