// Tests for the operator-plan subsystem (src/plan/): scenario execution is
// report-byte-identical to the hand-coded workload construction it replaces
// (fig04/fig09 shapes), scenario files round-trip through parse/serialize
// stably, validation errors name the offending JSON path, the random plan
// generator is deterministic, and the differential fuzz harness agrees
// across executor regimes and job counts.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "engine/operators/aggregation.h"
#include "engine/operators/column_scan.h"
#include "engine/runner.h"
#include "plan/builtin_scenarios.h"
#include "plan/fuzz.h"
#include "plan/plan_gen.h"
#include "plan/plan_query.h"
#include "plan/scenario.h"
#include "plan/scenario_exec.h"
#include "workloads/micro.h"

namespace catdb {
namespace {

// --- Byte-identity with the hand-coded workload construction -------------

// Replica of the original hand-coded fig04 cell (before the bench was
// ported to the scenario executor): direct MakeScanDataset +
// ColumnScanQuery + RunQueryIterations.
struct HandCell {
  double cycles = 0;
  engine::RunReport rep;
};

auto MakeHandScanCell(uint32_t ways, HandCell* out) {
  return [ways, out](harness::SweepCell& cell) {
    sim::Machine& machine = cell.MakeMachine();
    auto data = workloads::MakeScanDataset(
        &machine, workloads::kDefaultScanRows,
        workloads::DictEntriesForRatio(machine, workloads::kDictRatioSmall),
        /*seed=*/41);
    engine::ColumnScanQuery scan(&data.column, /*seed=*/42);
    scan.AttachSim(&machine);
    engine::PolicyConfig cfg;
    cfg.instance_ways = ways;
    out->rep = engine::RunQueryIterations(&machine, &scan, bench::kCoresA, 3,
                                          cfg);
    const auto& clocks = out->rep.streams[0].iteration_end_clocks;
    out->cycles = static_cast<double>(clocks[2] - clocks[1]);
  };
}

std::string HandCodedFig04Json(unsigned jobs) {
  sim::Machine meta{sim::MachineConfig{}};
  const uint32_t full_ways = bench::FullLlcWays(meta);
  harness::SweepRunner::Options o;
  o.jobs = jobs;
  harness::SweepRunner runner("fig04_scan_cache_size", o);
  HandCell baseline;
  runner.AddCell("baseline", MakeHandScanCell(full_ways, &baseline));
  HandCell restricted;  // the --smoke axis is the single entry {2}
  runner.AddCell("ways2", MakeHandScanCell(2, &restricted));
  runner.Run();
  runner.report().AddScalar("ways2/norm_tput",
                            baseline.cycles / restricted.cycles);
  runner.report().AddRun("ways2", restricted.rep);
  plan::AddScenarioSection(&runner.report(), plan::Fig04Scenario());
  return runner.report().Json();
}

std::string ScenarioFig04Json(unsigned jobs) {
  plan::ExecOptions exec;
  exec.jobs = jobs;
  exec.smoke = true;
  plan::ScenarioRunResult result;
  const Status st = plan::RunScenario(plan::Fig04Scenario(), exec, &result);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return result.runner->report().Json();
}

TEST(PlanScenarioTest, Fig04LoweringMatchesHandCodedReportBytes) {
  const std::string hand = HandCodedFig04Json(1);
  EXPECT_EQ(hand, ScenarioFig04Json(1));
  EXPECT_EQ(hand, ScenarioFig04Json(4));
}

// Replica of the original hand-coded fig09 smoke run: one pair cell
// (scenario (a), 100 groups) at the short horizon.
std::string HandCodedFig09Json() {
  harness::SweepRunner runner("fig09_scan_vs_agg",
                              harness::SweepRunner::Options{});
  runner.AddCell("a/groups100", [](harness::SweepCell& cell) {
    sim::Machine& machine = cell.MakeMachine();
    auto scan_data = workloads::MakeScanDataset(
        &machine, workloads::kDefaultScanRows,
        workloads::DictEntriesForRatio(machine, workloads::kDictRatioSmall),
        /*seed=*/900);
    auto agg_data = workloads::MakeAggDataset(
        &machine, workloads::kDefaultAggRows,
        workloads::DictEntriesForRatio(machine, workloads::kDictRatioSmall),
        workloads::ScaledGroupCount(100), /*seed=*/910);
    engine::AggregationQuery agg(&agg_data.v, &agg_data.g);
    agg.AttachSim(&machine);
    engine::ColumnScanQuery scan(&scan_data.column, /*seed=*/1010);
    const bench::PairResult r = bench::RunPair(
        &machine, &agg, &scan, engine::PolicyConfig{}, bench::kSmokeHorizon);
    bench::AddPairResult(&cell.report(), "a/groups100", r);
  });
  runner.Run();
  plan::AddScenarioSection(&runner.report(), plan::Fig09Scenario());
  return runner.report().Json();
}

TEST(PlanScenarioTest, Fig09LoweringMatchesHandCodedReportBytes) {
  plan::ExecOptions exec;
  exec.smoke = true;  // one cell at the short horizon
  plan::ScenarioRunResult result;
  const Status st = plan::RunScenario(plan::Fig09Scenario(), exec, &result);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(HandCodedFig09Json(), result.runner->report().Json());
}

// --- Round-trip stability -------------------------------------------------

TEST(PlanScenarioTest, BuiltinScenariosRoundTripStable) {
  for (const std::string& name : plan::BuiltinScenarioNames()) {
    plan::Scenario scenario;
    ASSERT_TRUE(plan::BuiltinScenario(name, &scenario).ok()) << name;
    const std::string text = plan::ScenarioToText(scenario);
    plan::Scenario reparsed;
    const Status st = plan::ScenarioFromText(text, &reparsed);
    ASSERT_TRUE(st.ok()) << name << ": " << st.ToString();
    EXPECT_EQ(text, plan::ScenarioToText(reparsed)) << name;
  }
}

// --- Strict validation errors name the JSON path --------------------------

std::string ParseError(const std::string& text) {
  plan::Scenario scenario;
  const Status st = plan::ScenarioFromText(text, &scenario);
  EXPECT_FALSE(st.ok());
  return st.message();
}

// A minimal valid latency scenario, as mutable JSON text pieces.
std::string LatencyScenarioText(const std::string& node_extra,
                                const std::string& sweep_extra) {
  return std::string(R"({
    "schema": "catdb.scenario/v1",
    "benchmark": "t",
    "kind": "latency_sweep",
    "datasets": [
      {"name": "d", "type": "scan", "rows": 1024, "seed": 1, "distinct": 16}
    ],
    "plans": [
      {"name": "p", "query": "q", "nodes": [
        {"id": "n0", "op": "scan", "cuid": "default", "dataset": "d",
         "seed": 1)") +
         node_extra + R"(}
      ]}
    ],
    "latency_sweep": {"plan": "p", "iterations": 2, "ways": [2],
                      "smoke_ways": [2])" +
         sweep_extra + "}\n  }";
}

TEST(PlanScenarioTest, UnknownKeyErrorNamesPath) {
  const std::string msg = ParseError(LatencyScenarioText("", ", \"bogus\": 1"));
  EXPECT_NE(msg.find("$.latency_sweep.bogus"), std::string::npos) << msg;
  EXPECT_NE(msg.find("unknown key"), std::string::npos) << msg;
}

TEST(PlanScenarioTest, RowsPerChunkRangeErrorNamesPath) {
  const std::string msg =
      ParseError(LatencyScenarioText(", \"rows_per_chunk\": 4", ""));
  EXPECT_NE(msg.find("$.plans[0].nodes[0].rows_per_chunk"), std::string::npos)
      << msg;
  EXPECT_NE(msg.find("out of range"), std::string::npos) << msg;
}

TEST(PlanScenarioTest, CyclicPlanIsRejected) {
  plan::Scenario scenario;
  ASSERT_TRUE(
      plan::BuiltinScenario("fig04_scan_cache_size", &scenario).ok());
  auto& nodes = scenario.plans[0].nodes;
  plan::PlanNode second = nodes[0];
  second.id = "scan2";
  second.inputs = {"scan"};
  nodes[0].inputs = {"scan2"};
  nodes.push_back(second);
  const Status st = plan::ValidateScenario(scenario);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("cycle"), std::string::npos) << st.message();
}

TEST(PlanScenarioTest, ServingClassWithoutConcreteCuidIsRejected) {
  plan::Scenario scenario = plan::ServingMixScenario();
  scenario.serving.classes[0].cuid = plan::CuidAnnotation::kDefault;
  const Status st = plan::ValidateScenario(scenario);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("concrete annotation"), std::string::npos)
      << st.message();
}

TEST(PlanScenarioTest, UnknownDatasetReferenceNamesPath) {
  plan::Scenario scenario;
  ASSERT_TRUE(
      plan::BuiltinScenario("fig04_scan_cache_size", &scenario).ok());
  scenario.plans[0].nodes[0].dataset = "nope";
  const Status st = plan::ValidateScenario(scenario);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("$.plans[0].nodes[0].dataset"),
            std::string::npos)
      << st.message();
  EXPECT_NE(st.message().find("'nope'"), std::string::npos) << st.message();
}

// --- Sizes must fit the machine every sweep cell builds --------------------

void ExpectRejectedAt(const plan::Scenario& scenario, const std::string& path) {
  const Status st = plan::ValidateScenario(scenario);
  ASSERT_EQ(st.code(), StatusCode::kInvalidArgument) << path;
  EXPECT_NE(st.message().find(path), std::string::npos) << st.message();
}

TEST(PlanScenarioTest, ServingCoresBeyondMachineAreRejected) {
  plan::Scenario scenario = plan::ServingMixScenario();
  scenario.serving.cores = sim::MachineConfig{}.hierarchy.num_cores + 1;
  ExpectRejectedAt(scenario, "$.serving_sweep.cores");
}

TEST(PlanScenarioTest, ServingMaxClustersOutsideClosRangeAreRejected) {
  // The default group holds one of the CLOS, so at most 15 of 16 clusters
  // are programmable.
  plan::Scenario scenario = plan::ServingMixScenario();
  for (const uint32_t clusters : {0u, 16u, 40u}) {
    scenario.serving.max_clusters = clusters;
    ExpectRejectedAt(scenario, "$.serving_sweep.max_clusters");
  }
  scenario.serving.max_clusters = 15;
  EXPECT_TRUE(plan::ValidateScenario(scenario).ok());
}

TEST(PlanScenarioTest, LatencyWaysBeyondLlcAreRejected) {
  plan::Scenario scenario;
  ASSERT_TRUE(
      plan::BuiltinScenario("fig04_scan_cache_size", &scenario).ok());
  const uint32_t llc_ways = sim::MachineConfig{}.hierarchy.llc.num_ways;
  scenario.latency.smoke_ways = {llc_ways + 1};
  ExpectRejectedAt(scenario, "$.latency_sweep.smoke_ways[0]");
  scenario.latency.smoke_ways = {llc_ways};
  scenario.latency.ways.back() = llc_ways + 1;
  ExpectRejectedAt(scenario,
                   "$.latency_sweep.ways[" +
                       std::to_string(scenario.latency.ways.size() - 1) +
                       "]");
}

TEST(PlanScenarioTest, PairPolicyInvalidWhenEnabledIsRejected) {
  // RunPair forces the scheme on, so the override must pass validation as
  // an enabled policy.
  plan::Scenario scenario;
  ASSERT_TRUE(plan::BuiltinScenario("fig09_scan_vs_agg", &scenario).ok());
  scenario.pair.has_policy = true;
  scenario.pair.policy.has_polluting_ways = true;
  scenario.pair.policy.polluting_ways = 0;
  ExpectRejectedAt(scenario, "$.pair_sweep.policy");
}

// --- Generator determinism ------------------------------------------------

std::string CaseFingerprint(const plan::GeneratedCase& c) {
  std::string s = obs::JsonPretty(plan::PlanToJson(c.plan));
  for (const plan::DatasetSpec& d : c.datasets) {
    s += obs::JsonPretty(plan::DatasetToJson(d));
  }
  s += c.policy_label;
  s += std::to_string(c.iterations);
  return s;
}

TEST(PlanGenTest, DeterministicAcrossStreams) {
  Rng a(12345), b(12345);
  for (size_t i = 0; i < 8; ++i) {
    const plan::GeneratedCase ca = plan::GeneratePlanCase(&a, i);
    const plan::GeneratedCase cb = plan::GeneratePlanCase(&b, i);
    EXPECT_EQ(CaseFingerprint(ca), CaseFingerprint(cb)) << "case " << i;
  }
}

TEST(PlanGenTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  std::string fa, fb;
  for (size_t i = 0; i < 4; ++i) {
    fa += CaseFingerprint(plan::GeneratePlanCase(&a, i));
    fb += CaseFingerprint(plan::GeneratePlanCase(&b, i));
  }
  EXPECT_NE(fa, fb);
}

// --- Differential fuzz harness --------------------------------------------

TEST(PlanFuzzTest, MiniFuzzAgreesAcrossRegimesAndJobs) {
  plan::FuzzOptions opts;
  opts.seed = 7;
  opts.plans = 3;
  opts.jobs = 1;
  plan::FuzzResult serial;
  const Status st = plan::RunPlanFuzz(opts, &serial);
  ASSERT_TRUE(st.ok()) << st.ToString();
  opts.jobs = 2;
  plan::FuzzResult parallel;
  ASSERT_TRUE(plan::RunPlanFuzz(opts, &parallel).ok());
  EXPECT_EQ(serial.runner->report().Json(),
            parallel.runner->report().Json());
}

// --- CUID overrides reach the emitted jobs --------------------------------

TEST(PlanQueryTest, CuidAnnotationOverridesEmittedJobs) {
  sim::Machine machine{sim::MachineConfig{}};
  plan::DatasetSpec spec;
  spec.name = "d";
  spec.type = plan::DatasetType::kScan;
  spec.rows = 4096;
  spec.distinct = 64;
  spec.seed = 3;
  const plan::BuiltDataset data = plan::BuildDataset(&machine, spec);
  std::map<std::string, const plan::BuiltDataset*> catalog{{"d", &data}};

  plan::Plan plan;
  plan.name = "p";
  plan.query = "q";
  plan::PlanNode node;
  node.id = "n0";
  node.op = plan::OpKind::kScan;
  node.cuid = plan::CuidAnnotation::kPolluting;
  node.dataset = "d";
  plan.nodes.push_back(node);

  std::unique_ptr<plan::PlanQuery> q;
  ASSERT_TRUE(plan::PlanQuery::Create(plan, catalog, &q).ok());
  q->AttachSim(&machine);
  std::vector<std::unique_ptr<engine::Job>> jobs;
  q->MakePhaseJobs(0, 2, &jobs);
  ASSERT_FALSE(jobs.empty());
  for (const auto& job : jobs) {
    EXPECT_EQ(job->cache_usage(), engine::CacheUsage::kPolluting);
  }
}

}  // namespace
}  // namespace catdb
