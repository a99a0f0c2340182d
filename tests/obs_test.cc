// Tests for the observability layer: JSON writer and parser, event-trace
// ring buffer and Chrome export, interval sampler math, and the unified
// run-report writer.

#include <gtest/gtest.h>

#include "engine/runner.h"
#include "obs/interval_sampler.h"
#include "obs/json.h"
#include "obs/json_value.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "simcache/hierarchy.h"

namespace catdb {
namespace {

// --- JsonWriter / JsonParse ---

bool ParsesAsJson(const std::string& text) {
  obs::JsonValue value;
  return obs::JsonParse(text, &value).ok();
}

TEST(JsonWriterTest, ObjectsArraysAndEscaping) {
  obs::JsonWriter w;
  w.BeginObject();
  w.KV("name", "a\"b\\c\n");
  w.KV("count", uint64_t{42});
  w.KV("ratio", 0.5);
  w.KV("on", true);
  w.Key("xs").BeginArray().Value(1).Value(2).Value(3).EndArray();
  w.Key("nested").BeginObject().KV("k", "v").EndObject();
  w.Key("nothing").Null();
  w.EndObject();
  ASSERT_TRUE(w.complete());
  EXPECT_TRUE(ParsesAsJson(w.str()));
  EXPECT_NE(w.str().find("\\\"b\\\\c\\n"), std::string::npos);
}

TEST(JsonWriterTest, NonFiniteDoublesBecomeNull) {
  obs::JsonWriter w;
  w.BeginArray().Value(1.0 / 0.0).Value(0.0 / 0.0).EndArray();
  EXPECT_EQ(w.str(), "[null,null]");
  EXPECT_TRUE(ParsesAsJson(w.str()));
}

TEST(JsonSyntaxTest, AcceptsValidRejectsInvalid) {
  EXPECT_TRUE(ParsesAsJson("{}"));
  EXPECT_TRUE(ParsesAsJson("[1, 2.5e-3, \"x\", null, true]"));
  EXPECT_TRUE(ParsesAsJson("{\"a\": {\"b\": [false]}}"));
  EXPECT_FALSE(ParsesAsJson(""));
  EXPECT_FALSE(ParsesAsJson("{"));
  EXPECT_FALSE(ParsesAsJson("{\"a\":}"));
  EXPECT_FALSE(ParsesAsJson("[1,]"));
  EXPECT_FALSE(ParsesAsJson("{} {}"));
  EXPECT_FALSE(ParsesAsJson("{'a': 1}"));
  EXPECT_FALSE(ParsesAsJson("[01]"));
  EXPECT_FALSE(ParsesAsJson("nul"));
}

// --- EventTrace ring buffer ---

obs::TraceEvent Ev(uint64_t cycle, obs::EventKind kind, uint32_t core) {
  obs::TraceEvent ev;
  ev.cycle = cycle;
  ev.kind = kind;
  ev.core = core;
  return ev;
}

TEST(EventTraceTest, RingWrapsAndCountsDrops) {
  obs::EventTrace trace(4);
  for (uint64_t i = 0; i < 6; ++i) {
    trace.Record(Ev(i, obs::EventKind::kTaskDispatch, 0));
  }
  EXPECT_EQ(trace.size(), 4u);
  EXPECT_EQ(trace.capacity(), 4u);
  EXPECT_EQ(trace.dropped(), 2u);
  EXPECT_EQ(trace.recorded(), 6u);
  const auto events = trace.Events();
  ASSERT_EQ(events.size(), 4u);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].cycle, i + 2);  // oldest two rotated out
  }
  trace.Clear();
  EXPECT_EQ(trace.size(), 0u);
  EXPECT_EQ(trace.dropped(), 0u);
}

TEST(EventTraceTest, ChromeTraceJsonIsValidAndPairsSpans) {
  obs::EventTrace trace;
  auto task = Ev(100, obs::EventKind::kTaskDispatch, 0);
  task.label = "scan_chunk";
  trace.Record(task);
  trace.Record(Ev(250, obs::EventKind::kTaskFinish, 0));

  obs::TraceEvent sw;
  sw.cycle = 300;
  sw.kind = obs::EventKind::kSchemataWrite;
  sw.clos = 2;
  sw.arg = 0x3;
  sw.label = "stream1";
  trace.Record(sw);

  obs::TraceEvent flip;
  flip.cycle = 400;
  flip.kind = obs::EventKind::kRestrictionFlip;
  flip.clos = 2;
  flip.arg = 1;
  flip.arg2 = 1;
  trace.Record(flip);

  const std::string json = trace.ChromeTraceJson();
  EXPECT_TRUE(ParsesAsJson(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"scan_chunk\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(json.find("schemata_write"), std::string::npos);
  EXPECT_NE(json.find("restriction_flip"), std::string::npos);
}

TEST(EventTraceTest, UnmatchedDispatchEmitsNoOpenSpan) {
  obs::EventTrace trace;
  trace.Record(Ev(100, obs::EventKind::kTaskDispatch, 0));
  // No finish recorded: the exporter must not leave an unclosed B event.
  const std::string json = trace.ChromeTraceJson();
  EXPECT_TRUE(ParsesAsJson(json));
  EXPECT_EQ(json.find("\"ph\":\"B\""), std::string::npos);
}

// --- Interval sampler ---

TEST(IntervalSamplerTest, BandwidthShareUsesActualIntervalLength) {
  // 100 lines transferred with a 10-cycle transfer time saturate a
  // 1000-cycle window (share 1.0). The same traffic judged against a
  // full 10000-cycle denominator would read as 0.1 — the bug that let
  // polluters coast through a short final interval.
  EXPECT_DOUBLE_EQ(obs::ChannelBandwidthShare(100, 1000, 10), 1.0);
  EXPECT_DOUBLE_EQ(obs::ChannelBandwidthShare(100, 10000, 10), 0.1);
  EXPECT_DOUBLE_EQ(obs::ChannelBandwidthShare(0, 1000, 10), 0.0);
  EXPECT_DOUBLE_EQ(obs::ChannelBandwidthShare(5, 0, 10), 0.0);
}

simcache::HierarchyConfig TinyHierarchy() {
  simcache::HierarchyConfig cfg;
  cfg.num_cores = 2;
  cfg.l1 = simcache::CacheGeometry{4, 2};
  cfg.l2 = simcache::CacheGeometry{8, 2};
  cfg.llc = simcache::CacheGeometry{32, 4};
  cfg.prefetcher.enabled = false;
  return cfg;
}

TEST(IntervalSamplerTest, SamplesPerClosDeltas) {
  simcache::MemoryHierarchy h(TinyHierarchy());
  const uint64_t full = (uint64_t{1} << h.config().llc.num_ways) - 1;

  obs::IntervalSampler sampler(&h, /*dram_transfer_cycles=*/10);
  sampler.Watch(1, "one");
  sampler.Watch(2, "two");

  // 64 lines: larger than L1 (8 lines) + L2 (16 lines), smaller than the
  // 128-line LLC, so a second pass produces genuine LLC hits.
  for (uint64_t line = 0; line < 64; ++line) {
    h.Access(0, line * 64, line, full, /*clos=*/1);
  }
  const auto& s1 = sampler.Sample(1000);
  ASSERT_EQ(s1.clos.size(), 2u);
  EXPECT_EQ(s1.cycle_begin, 0u);
  EXPECT_EQ(s1.cycle_end, 1000u);
  EXPECT_EQ(s1.clos[0].group, "one");
  EXPECT_EQ(s1.clos[0].mbm_lines_delta, 64u);
  EXPECT_EQ(s1.clos[0].llc_misses_delta, 64u);
  EXPECT_DOUBLE_EQ(s1.clos[0].hit_ratio, 0.0);
  EXPECT_DOUBLE_EQ(s1.clos[0].bandwidth_share, 64.0 / (1000.0 / 10.0));
  // CLOS 2 was idle: hit_ratio defaults to 1.0 (certainly not a polluter).
  EXPECT_EQ(s1.clos[1].mbm_lines_delta, 0u);
  EXPECT_DOUBLE_EQ(s1.clos[1].hit_ratio, 1.0);

  // Second interval: re-touch the same lines. The ones evicted from
  // L1/L2 hit the LLC; nothing misses, so no new DRAM traffic.
  for (uint64_t line = 0; line < 64; ++line) {
    h.Access(0, line * 64, 1000 + line, full, /*clos=*/1);
  }
  const auto& s2 = sampler.Sample(1500);
  EXPECT_EQ(s2.cycle_begin, 1000u);
  EXPECT_EQ(s2.clos[0].mbm_lines_delta, 0u);
  EXPECT_GT(s2.clos[0].llc_hits_delta, 0u);
  EXPECT_EQ(s2.clos[0].llc_misses_delta, 0u);
  EXPECT_DOUBLE_EQ(s2.clos[0].hit_ratio, 1.0);
  EXPECT_EQ(sampler.series().size(), 2u);
}

// --- Run report writer ---

TEST(RunReportTest, EmitsSchemaValidJson) {
  engine::RunReport run;
  run.sim_seconds = 0.5;
  run.llc_hit_ratio = 0.25;
  engine::StreamResult sr;
  sr.query_name = "q1";
  sr.iterations = 3.5;
  sr.iteration_end_clocks = {10, 20, 30};
  run.streams.push_back(sr);

  obs::RunReportWriter report("unit_test");
  report.AddParam("horizon_cycles", uint64_t{123});
  report.AddParam("note", "quotes \" and backslash \\");
  report.AddParam("ratio", 0.75);
  report.AddRun("baseline", run);
  report.AddScalar("speedup", 1.25);
  EXPECT_EQ(report.num_results(), 2u);

  const std::string json = report.Json();
  EXPECT_TRUE(ParsesAsJson(json)) << json;
  EXPECT_NE(json.find("\"schema\":\"catdb.report/v1\""), std::string::npos);
  EXPECT_NE(json.find("\"benchmark\":\"unit_test\""), std::string::npos);
  EXPECT_NE(json.find("\"q1\""), std::string::npos);
  EXPECT_NE(json.find("\"speedup\""), std::string::npos);
}

TEST(RunReportTest, DynamicAndRoundsSectionsSerialize) {
  policy::DynamicRunReport dyn;
  dyn.intervals = 2;
  dyn.schemata_writes = 1;
  dyn.group_names = {"stream0"};
  dyn.restricted = {true};
  dyn.restricted_at_interval = {2};
  obs::IntervalSample sample;
  sample.cycle_end = 1000;
  obs::ClosIntervalSample cs;
  cs.clos = 1;
  cs.group = "stream0";
  cs.bandwidth_share = 0.4;
  sample.clos.push_back(cs);
  dyn.interval_series.push_back(sample);

  engine::RoundsReport rounds;
  rounds.makespan_cycles = 500;
  rounds.round_cycles = {500};
  rounds.round_reports.push_back(engine::RunReport{});

  obs::RunReportWriter report("unit_test");
  report.AddDynamicRun("dynamic", dyn);
  report.AddRounds("rounds", rounds);
  const std::string json = report.Json();
  EXPECT_TRUE(ParsesAsJson(json)) << json;
  EXPECT_NE(json.find("\"interval_series\""), std::string::npos);
  EXPECT_NE(json.find("\"makespan_cycles\":500"), std::string::npos);
}

}  // namespace
}  // namespace catdb
