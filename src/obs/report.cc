#include "obs/report.h"

#include <utility>

#include "common/check.h"

namespace catdb::obs {

void AppendLevelStats(JsonWriter& w, const simcache::LevelStats& s) {
  w.BeginObject();
  w.KV("hits", s.hits);
  w.KV("misses", s.misses);
  w.KV("hit_ratio", s.hit_ratio());
  w.EndObject();
}

void AppendHierarchyStats(JsonWriter& w, const simcache::HierarchyStats& s) {
  w.BeginObject();
  w.Key("l1");
  AppendLevelStats(w, s.l1);
  w.Key("l2");
  AppendLevelStats(w, s.l2);
  w.Key("llc");
  AppendLevelStats(w, s.llc);
  w.KV("dram_accesses", s.dram_accesses);
  w.KV("dram_wait_cycles", s.dram_wait_cycles);
  w.KV("prefetches_issued", s.prefetches_issued);
  w.KV("prefetches_dropped", s.prefetches_dropped);
  w.KV("prefetch_hits", s.prefetch_hits);
  w.KV("llc_back_invalidations", s.llc_back_invalidations);
  w.KV("instructions", s.instructions);
  w.KV("llc_hit_ratio", s.llc_hit_ratio());
  w.KV("llc_mpi", s.llc_misses_per_instruction());
  w.EndObject();
}

void AppendRunReport(JsonWriter& w, const engine::RunReport& report) {
  w.BeginObject();
  w.KV("sim_seconds", report.sim_seconds);
  w.KV("llc_hit_ratio", report.llc_hit_ratio);
  w.KV("llc_mpi", report.llc_mpi);
  w.KV("group_moves", report.group_moves);
  w.KV("skipped_moves", report.skipped_moves);
  w.KV("clos_reassociations", report.clos_reassociations);
  w.Key("stats");
  AppendHierarchyStats(w, report.stats);
  w.Key("streams").BeginArray();
  for (const engine::StreamResult& s : report.streams) {
    w.BeginObject();
    w.KV("query", s.query_name);
    w.KV("iterations", s.iterations);
    w.KV("iterations_per_second", s.iterations_per_second);
    w.Key("stats");
    AppendHierarchyStats(w, s.stats);
    w.Key("iteration_end_clocks").BeginArray();
    for (uint64_t c : s.iteration_end_clocks) w.Value(c);
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
}

void AppendIntervalSample(JsonWriter& w, const IntervalSample& sample) {
  w.BeginObject();
  w.KV("cycle_begin", sample.cycle_begin);
  w.KV("cycle_end", sample.cycle_end);
  w.Key("llc_delta");
  AppendLevelStats(w, sample.llc_delta);
  w.KV("dram_accesses_delta", sample.dram_accesses_delta);
  w.Key("clos").BeginArray();
  for (const ClosIntervalSample& cs : sample.clos) {
    w.BeginObject();
    w.KV("clos", cs.clos);
    w.KV("group", cs.group);
    w.KV("llc_occupancy_lines", cs.occupancy_lines);
    w.KV("mbm_lines_total", cs.mbm_lines_total);
    w.KV("mbm_lines_delta", cs.mbm_lines_delta);
    w.KV("llc_hits_delta", cs.llc_hits_delta);
    w.KV("llc_misses_delta", cs.llc_misses_delta);
    w.KV("hit_ratio", cs.hit_ratio);
    w.KV("bandwidth_share", cs.bandwidth_share);
    // Shadow-tag MRC snapshot: present only when a profiler was attached,
    // so reports of unprofiled runs keep their pre-existing layout.
    if (!cs.mrc_hits_at_ways.empty()) {
      w.KV("mrc_accesses", cs.mrc_accesses);
      w.Key("mrc_hits_at_ways").BeginArray();
      for (uint64_t h : cs.mrc_hits_at_ways) w.Value(h);
      w.EndArray();
    }
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
}

void AppendDynamicRunReport(JsonWriter& w,
                            const policy::DynamicRunReport& report) {
  w.BeginObject();
  w.KV("intervals", static_cast<uint64_t>(report.intervals));
  w.KV("schemata_writes", report.schemata_writes);
  w.Key("group_names").BeginArray();
  for (const std::string& g : report.group_names) w.Value(g);
  w.EndArray();
  w.Key("restricted").BeginArray();
  for (const bool r : report.restricted) w.Value(r);
  w.EndArray();
  w.Key("restricted_at_interval").BeginArray();
  for (const uint32_t i : report.restricted_at_interval) {
    w.Value(static_cast<uint64_t>(i));
  }
  w.EndArray();
  w.Key("interval_series").BeginArray();
  for (const IntervalSample& s : report.interval_series) {
    AppendIntervalSample(w, s);
  }
  w.EndArray();
  w.Key("report");
  AppendRunReport(w, report.report);
  w.EndObject();
}

void AppendPolicyRunReport(JsonWriter& w,
                           const policy::PolicyRunReport& report) {
  w.BeginObject();
  w.KV("allocator", report.allocator_name);
  w.KV("intervals", static_cast<uint64_t>(report.intervals));
  w.KV("schemata_writes", report.schemata_writes);
  w.Key("group_names").BeginArray();
  for (const std::string& g : report.group_names) w.Value(g);
  w.EndArray();
  w.Key("final_masks").BeginArray();
  for (const uint64_t m : report.final_masks) w.Value(m);
  w.EndArray();
  w.Key("interval_series").BeginArray();
  for (const IntervalSample& s : report.interval_series) {
    AppendIntervalSample(w, s);
  }
  w.EndArray();
  w.Key("report");
  AppendRunReport(w, report.report);
  w.EndObject();
}

void AppendLatencySummary(JsonWriter& w, const serve::LatencySummary& s) {
  w.BeginObject();
  w.KV("count", s.count);
  w.KV("p50", s.p50);
  w.KV("p95", s.p95);
  w.KV("p99", s.p99);
  w.KV("max", s.max);
  w.KV("mean", s.mean);
  w.EndObject();
}

void AppendServingReport(JsonWriter& w,
                         const serve::ServingRunReport& report) {
  w.BeginObject();
  w.KV("policy", report.policy);
  w.KV("horizon_cycles", report.horizon_cycles);
  w.KV("arrivals", report.arrivals);
  w.KV("admitted", report.admitted);
  w.KV("completed", report.completed);
  w.KV("rejected", report.rejected);
  w.KV("in_flight_at_horizon", report.in_flight_at_horizon);
  w.KV("max_queue_depth", report.max_queue_depth);
  w.KV("intervals", report.intervals);
  w.KV("schemata_writes", report.schemata_writes);
  w.KV("group_moves", report.group_moves);
  w.KV("num_clusters", static_cast<uint64_t>(report.num_clusters));
  w.Key("cluster_of_tenant").BeginArray();
  for (uint32_t c : report.cluster_of_tenant) {
    w.Value(static_cast<uint64_t>(c));
  }
  w.EndArray();
  w.Key("cluster_masks").BeginArray();
  for (const uint64_t m : report.cluster_masks) w.Value(m);
  w.EndArray();
  w.Key("latency");
  AppendLatencySummary(w, report.latency);
  w.Key("queue_wait");
  AppendLatencySummary(w, report.queue_wait);
  w.Key("classes").BeginArray();
  for (size_t c = 0; c < report.class_names.size(); ++c) {
    w.BeginObject();
    w.KV("name", report.class_names[c]);
    w.KV("completed", report.class_completed[c]);
    w.KV("rejected", report.class_rejected[c]);
    w.Key("latency");
    AppendLatencySummary(w, report.class_latency[c]);
    // Log2 latency histogram, trimmed to the occupied prefix (bucket b =
    // samples with latency in [2^b, 2^(b+1))).
    size_t used = report.class_histogram[c].size();
    while (used > 0 && report.class_histogram[c][used - 1] == 0) --used;
    w.Key("latency_log2_histogram").BeginArray();
    for (size_t b = 0; b < used; ++b) w.Value(report.class_histogram[c][b]);
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  w.Key("tenants").BeginArray();
  for (size_t t = 0; t < report.tenant_latency.size(); ++t) {
    w.BeginObject();
    w.KV("tenant", static_cast<uint64_t>(t));
    w.KV("rejected", report.tenant_rejected[t]);
    w.Key("latency");
    AppendLatencySummary(w, report.tenant_latency[t]);
    w.EndObject();
  }
  w.EndArray();
  w.KV("llc_hit_ratio", report.llc_hit_ratio);
  w.EndObject();
}

void AppendRoundsReport(JsonWriter& w, const engine::RoundsReport& report) {
  CATDB_CHECK(report.round_cycles.size() == report.round_reports.size());
  w.BeginObject();
  w.KV("makespan_cycles", report.makespan_cycles);
  w.Key("rounds").BeginArray();
  for (size_t i = 0; i < report.round_reports.size(); ++i) {
    w.BeginObject();
    w.KV("round", static_cast<uint64_t>(i));
    w.KV("cycles", report.round_cycles[i]);
    w.Key("report");
    AppendRunReport(w, report.round_reports[i]);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
}

namespace {

void AppendScenarioSummary(JsonWriter& w, const ScenarioSummary& s) {
  w.BeginObject();
  w.KV("scenario", s.scenario);
  w.KV("sweep_kind", s.sweep_kind);
  w.KV("datasets", s.num_datasets);
  w.KV("plans", s.num_plans);
  w.KV("cells", s.num_cells);
  w.KV("digest", s.digest);
  w.EndObject();
}

/// Renders one value with its Append* serializer.
template <typename T>
std::string Render(void (*append)(JsonWriter&, const T&), const T& value) {
  JsonWriter w;
  append(w, value);
  return w.str();
}

/// Renders one scalar JSON value.
template <typename T>
std::string RenderValue(const T& value) {
  JsonWriter w;
  w.Value(value);
  return w.str();
}

}  // namespace

RunReportWriter::RunReportWriter(std::string benchmark)
    : benchmark_(std::move(benchmark)) {}

void RunReportWriter::AddParam(const std::string& key,
                               const std::string& value) {
  params_.emplace_back(key, RenderValue(value));
}

void RunReportWriter::AddParam(const std::string& key, uint64_t value) {
  params_.emplace_back(key, RenderValue(value));
}

void RunReportWriter::AddParam(const std::string& key, double value) {
  params_.emplace_back(key, RenderValue(value));
}

void RunReportWriter::AddEntry(std::string name, const char* kind,
                               const char* payload_key, std::string payload) {
  entries_.push_back(
      Entry{std::move(name), kind, payload_key, std::move(payload)});
}

void RunReportWriter::AddRun(std::string name,
                             const engine::RunReport& report) {
  AddEntry(std::move(name), "run", "run", Render(AppendRunReport, report));
}

void RunReportWriter::AddDynamicRun(std::string name,
                                    const policy::DynamicRunReport& report) {
  AddEntry(std::move(name), "dynamic", "dynamic",
           Render(AppendDynamicRunReport, report));
}

void RunReportWriter::AddRounds(std::string name,
                                const engine::RoundsReport& report) {
  AddEntry(std::move(name), "rounds", "rounds",
           Render(AppendRoundsReport, report));
}

void RunReportWriter::AddPolicyRun(std::string name,
                                   const policy::PolicyRunReport& report) {
  AddEntry(std::move(name), "policy", "policy",
           Render(AppendPolicyRunReport, report));
}

void RunReportWriter::AddServingRun(std::string name,
                                    const serve::ServingRunReport& report) {
  AddEntry(std::move(name), "serving", "serving",
           Render(AppendServingReport, report));
}

void RunReportWriter::AddScenario(std::string name,
                                  const ScenarioSummary& summary) {
  AddEntry(std::move(name), "scenario", "scenario",
           Render(AppendScenarioSummary, summary));
}

void RunReportWriter::AddScalar(std::string name, double value) {
  AddEntry(std::move(name), "scalar", "value", RenderValue(value));
}

void RunReportWriter::MergeFrom(RunReportWriter&& shard) {
  for (auto& param : shard.params_) params_.push_back(std::move(param));
  for (Entry& entry : shard.entries_) entries_.push_back(std::move(entry));
  shard.params_.clear();
  shard.entries_.clear();
}

std::string RunReportWriter::Json() const {
  JsonWriter w;
  w.BeginObject();
  w.KV("schema", kReportSchema);
  w.KV("benchmark", benchmark_);
  w.Key("params").BeginObject();
  for (const auto& [key, value] : params_) {
    w.Key(key).RawValue(value);
  }
  w.EndObject();
  w.Key("results").BeginArray();
  for (const Entry& e : entries_) {
    w.BeginObject();
    w.KV("name", e.name);
    w.KV("kind", e.kind);
    w.Key(e.payload_key).RawValue(e.payload);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  CATDB_CHECK(w.complete());
  return w.str();
}

Status RunReportWriter::WriteFile(const std::string& path) const {
  return WriteTextFile(path, Json());
}

}  // namespace catdb::obs
