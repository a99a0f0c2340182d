// Tests for the operator-plan subsystem (src/plan/): scenario execution is
// report-byte-identical to the hand-coded workload construction it replaces
// (fig04/fig09 shapes), the checked-in scenario files parse and are in
// canonical form, validation errors name the offending JSON path, the
// random plan generator is deterministic, and the differential fuzz harness
// agrees across executor regimes and job counts.

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench_util.h"
#include "engine/operators/aggregation.h"
#include "engine/operators/column_scan.h"
#include "engine/runner.h"
#include "plan/fuzz.h"
#include "plan/plan_gen.h"
#include "plan/plan_query.h"
#include "plan/scenario.h"
#include "plan/scenario_exec.h"
#include "workloads/micro.h"

namespace catdb {
namespace {

// The checked-in scenario file the bench `name` runs.
plan::Scenario CheckedInScenario(const std::string& name) {
  return bench::LoadScenarioFile(std::string(CATDB_SCENARIO_DIR) + "/" +
                                 name + ".json");
}

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
  plan::AddScenarioSection(&runner.report(),
                           CheckedInScenario("fig04_scan_cache_size"));
  return runner.report().Json();
}

std::string ScenarioFig04Json(unsigned jobs) {
  plan::ExecOptions exec;
  exec.jobs = jobs;
  exec.smoke = true;
  plan::ScenarioRunResult result;
  const Status st = plan::RunScenario(
      CheckedInScenario("fig04_scan_cache_size"), exec, &result);
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
  plan::AddScenarioSection(&runner.report(),
                           CheckedInScenario("fig09_scan_vs_agg"));
  return runner.report().Json();
}

TEST(PlanScenarioTest, Fig09LoweringMatchesHandCodedReportBytes) {
  plan::ExecOptions exec;
  exec.smoke = true;  // one cell at the short horizon
  plan::ScenarioRunResult result;
  const Status st = plan::RunScenario(CheckedInScenario("fig09_scan_vs_agg"),
                                      exec, &result);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(HandCodedFig09Json(), result.runner->report().Json());
}

// --- Checked-in scenario files ------------------------------------------

// Every file under scenarios/ parses, validates, names its own benchmark and
// is byte-identical to the canonical serialization of its parse; the five
// files the scenario-backed benches load must all be there.
TEST(PlanScenarioTest, CheckedInScenariosAreCanonical) {
  std::set<std::string> found;
  for (const auto& entry :
       std::filesystem::directory_iterator(CATDB_SCENARIO_DIR)) {
    if (entry.path().extension() != ".json") continue;
    const std::string path = entry.path().string();
    std::string text;
    plan::Scenario scenario;
    Status st = plan::ReadTextFile(path, &text);
    if (st.ok()) st = plan::ScenarioFromText(text, &scenario);
    ASSERT_TRUE(st.ok()) << path << ": " << st.ToString();
    EXPECT_EQ(scenario.benchmark, entry.path().stem().string()) << path;
    const std::string canonical = plan::ScenarioToText(scenario);
    EXPECT_EQ(text, canonical) << path << " is not in canonical form; "
                               << "canonical text:\n" << canonical;
    found.insert(entry.path().stem().string());
  }
  for (const char* name :
       {"fig04_scan_cache_size", "fig05_agg_cache_size",
        "fig06_join_cache_size", "fig09_scan_vs_agg", "ext_serving_tail"}) {
    EXPECT_EQ(found.count(name), 1u) << "missing scenarios/" << name
                                     << ".json";
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
  plan::Scenario scenario = CheckedInScenario("fig04_scan_cache_size");
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
  plan::Scenario scenario = CheckedInScenario("ext_serving_tail");
  scenario.serving.classes[0].cuid = plan::CuidAnnotation::kDefault;
  const Status st = plan::ValidateScenario(scenario);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("concrete annotation"), std::string::npos)
      << st.message();
}

TEST(PlanScenarioTest, UnknownDatasetReferenceNamesPath) {
  plan::Scenario scenario = CheckedInScenario("fig04_scan_cache_size");
  scenario.plans[0].nodes[0].dataset = "nope";
  const Status st = plan::ValidateScenario(scenario);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("$.plans[0].nodes[0].dataset"),
            std::string::npos)
      << st.message();
  EXPECT_NE(st.message().find("'nope'"), std::string::npos) << st.message();
}

// One mutation of a checked-in file per structural rule of the format:
// schema tag, one sweep section, unique dataset and plan names, exact
// fractions, nonempty nodes and benchmark. Each must fail the parser with a
// message that starts at the mutated JSON path.
TEST(PlanScenarioTest, MutatedCheckedInFileErrorsNamePath) {
  const std::string path =
      std::string(CATDB_SCENARIO_DIR) + "/fig04_scan_cache_size.json";
  std::string text;
  ASSERT_TRUE(plan::ReadTextFile(path, &text).ok()) << path;
  // `text` from `open` through the first `close` after it.
  auto span = [&](const std::string& open, const std::string& close) {
    const size_t at = text.find(open);
    EXPECT_NE(at, std::string::npos) << open;
    const size_t end = text.find(close, at + open.size());
    EXPECT_NE(end, std::string::npos) << close;
    return text.substr(at, end + close.size() - at);
  };
  // `text` with the first `from` replaced by `to`.
  auto mutate = [&](const std::string& from, const std::string& to) {
    std::string out = text;
    const size_t at = out.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return at == std::string::npos ? out : out.replace(at, from.size(), to);
  };
  const std::string dataset_json =
      span("{\n      \"name\": \"scan_small\"", "}");
  const std::string plan_json = span("{\n      \"name\": \"q1\"", "\n    }");
  const std::pair<std::string, std::string> kMutations[] = {
      {mutate("catdb.scenario/v1", "catdb.scenario/v2"), "$.schema"},
      {mutate("\"latency_sweep\": {",
              "\"pair_sweep\": {},\n  \"latency_sweep\": {"),
       "$.pair_sweep"},
      {mutate(dataset_json, dataset_json + ", " + dataset_json),
       "$.datasets[1].name"},
      {mutate(plan_json, plan_json + ", " + plan_json), "$.plans[1].name"},
      {mutate("[4, 55]", "[4, 0]"), "$.datasets[0].dict_ratio"},
      {mutate("[4, 55]", "0.0727"), "$.datasets[0].dict_ratio"},
      {mutate(span("\"nodes\": [", "]"), "\"nodes\": []"),
       "$.plans[0].nodes"},
      {mutate("\"fig04_scan_cache_size\"", "\"\""), "$.benchmark"},
  };
  for (const auto& [mutated, json_path] : kMutations) {
    const std::string msg = ParseError(mutated);
    EXPECT_EQ(msg.rfind(json_path + ": ", 0), 0u) << json_path << " -> "
                                                  << msg;
  }
}

// --- Sizes must fit the machine every sweep cell builds --------------------

void ExpectRejectedAt(const plan::Scenario& scenario, const std::string& path) {
  const Status st = plan::ValidateScenario(scenario);
  ASSERT_EQ(st.code(), StatusCode::kInvalidArgument) << path;
  EXPECT_NE(st.message().find(path), std::string::npos) << st.message();
}

TEST(PlanScenarioTest, ServingCoresBeyondMachineAreRejected) {
  plan::Scenario scenario = CheckedInScenario("ext_serving_tail");
  scenario.serving.cores = sim::MachineConfig{}.hierarchy.num_cores + 1;
  ExpectRejectedAt(scenario, "$.serving_sweep.cores");
}

TEST(PlanScenarioTest, ServingMaxClustersOutsideClosRangeAreRejected) {
  // The default group holds one of the CLOS, so at most 15 of 16 clusters
  // are programmable.
  plan::Scenario scenario = CheckedInScenario("ext_serving_tail");
  for (const uint32_t clusters : {0u, 16u, 40u}) {
    scenario.serving.max_clusters = clusters;
    ExpectRejectedAt(scenario, "$.serving_sweep.max_clusters");
  }
  scenario.serving.max_clusters = 15;
  EXPECT_TRUE(plan::ValidateScenario(scenario).ok());
}

// Each of the next three sweeps would hand some tenant a mean interarrival
// gap of 0 cycles, which the arrival generator aborts on mid-run.
TEST(PlanScenarioTest, ServingClassWithoutServiceCyclesIsRejected) {
  plan::Scenario scenario = CheckedInScenario("ext_serving_tail");
  scenario.serving.classes[0].compute_per_line = 0;
  scenario.serving.classes[0].mem_cycles_per_line = 0;
  // Every load fails; the error names the highest one, [55, 100].
  ExpectRejectedAt(scenario, "$.serving_sweep.loads[4]");
}

TEST(PlanScenarioTest, ServingClassWithZeroPassesAndNoStreamIsRejected) {
  plan::Scenario scenario = CheckedInScenario("ext_serving_tail");
  ASSERT_EQ(scenario.serving.classes[0].stream_lines, 0u);
  scenario.serving.classes[0].passes = 0;
  ExpectRejectedAt(scenario, "$.serving_sweep.classes[0]");
}

TEST(PlanScenarioTest, ServingLoadTooHighForArrivalGapsIsRejected) {
  plan::Scenario scenario = CheckedInScenario("ext_serving_tail");
  scenario.serving.smoke_loads = {plan::Fraction{100000000, 1}};
  ExpectRejectedAt(scenario, "$.serving_sweep.smoke_loads[0]");
}

// Each of the next three classes has one size that wraps in uint64 and
// would run as a much smaller class (or allocate a wrapped region).
void ExpectClassOverflowRejected(const plan::ServeClassSpec& klass) {
  plan::Scenario scenario = CheckedInScenario("ext_serving_tail");
  scenario.serving.classes[0] = klass;
  const Status st = plan::ValidateScenario(scenario);
  ASSERT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message().rfind("$.serving_sweep.classes[0]: a size overflows",
                               0),
            0u)
      << st.message();
}

TEST(PlanScenarioTest, ServingClassLineTotalOverflowIsRejected) {
  plan::ServeClassSpec klass =
      CheckedInScenario("ext_serving_tail").serving.classes[0];
  // 256 * (2^57 + 1) = 2^65 + 256 lines wraps to 256; the private region
  // of (2^57 + 1) * 64 bytes still fits.
  klass.private_lines = (uint64_t{1} << 57) + 1;
  klass.passes = 256;
  klass.stream_lines = 0;
  ExpectClassOverflowRejected(klass);
  // A total of exactly 2^64 through the stream term.
  klass.private_lines = 1;
  klass.passes = 1;
  klass.stream_lines = ~uint64_t{0};
  ExpectClassOverflowRejected(klass);
}

TEST(PlanScenarioTest, ServingClassServiceCycleOverflowIsRejected) {
  plan::ServeClassSpec klass =
      CheckedInScenario("ext_serving_tail").serving.classes[0];
  // 2^56 lines fit; 2^56 * (2^20 + 16) cycles wrap to 2^60.
  klass.private_lines = uint64_t{1} << 40;
  klass.passes = uint32_t{1} << 16;
  klass.stream_lines = 0;
  klass.compute_per_line = uint32_t{1} << 20;
  klass.mem_cycles_per_line = 16;
  ExpectClassOverflowRejected(klass);
}

TEST(PlanScenarioTest, ServingClassPrivateRegionOverflowIsRejected) {
  plan::ServeClassSpec klass =
      CheckedInScenario("ext_serving_tail").serving.classes[0];
  // 2^58 lines and 2^58 cycles fit; 2^58 * 64 bytes wraps to 0.
  klass.private_lines = uint64_t{1} << 58;
  klass.passes = 1;
  klass.stream_lines = 0;
  klass.compute_per_line = 1;
  klass.mem_cycles_per_line = 0;
  ExpectClassOverflowRejected(klass);
}

TEST(PlanScenarioTest, LatencyWaysBeyondLlcAreRejected) {
  plan::Scenario scenario = CheckedInScenario("fig04_scan_cache_size");
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
  plan::Scenario scenario = CheckedInScenario("fig09_scan_vs_agg");
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
