#include <cstdio>
#include <utility>

#include "engine/partitioning_policy.h"
#include "serve/serving_engine.h"
#include "timing.h"
#include "workloads.h"

namespace hostbench {

namespace {

using namespace catdb;

// The ServeConfig construction below mirrors plan/scenario_exec.cc, which
// keeps it private; the rebuilt cells are checked against RunScenario's
// report byte for byte on every traced run.

std::string LoadKey(double load) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "load%.2f", load);
  return buf;
}

engine::CacheUsage CacheUsageOf(plan::CuidAnnotation cuid) {
  switch (cuid) {
    case plan::CuidAnnotation::kPolluting:
      return engine::CacheUsage::kPolluting;
    case plan::CuidAnnotation::kAdaptive:
      return engine::CacheUsage::kAdaptive;
    case plan::CuidAnnotation::kSensitive:
    case plan::CuidAnnotation::kDefault:
      break;
  }
  return engine::CacheUsage::kSensitive;
}

serve::ServePolicyKind PolicyOf(const std::string& name) {
  if (name == "shared") return serve::ServePolicyKind::kShared;
  if (name == "static") return serve::ServePolicyKind::kStatic;
  if (name == "lookahead") return serve::ServePolicyKind::kLookahead;
  CATDB_CHECK(name == "mrc_cluster");  // the scenario parser rejects others
  return serve::ServePolicyKind::kMrcCluster;
}

serve::ServeConfig RebuildServeConfig(const plan::ServingSweepSpec& spec,
                                      double load, uint64_t num_tenants,
                                      uint64_t horizon, uint64_t seed) {
  serve::ServeConfig config;
  for (const plan::ServeClassSpec& c : spec.classes) {
    serve::RequestClass rc;
    rc.name = c.name;
    rc.cuid = CacheUsageOf(c.cuid);
    rc.private_lines = c.private_lines;
    rc.passes = c.passes;
    rc.stream_lines = c.stream_lines;
    rc.compute_per_line = c.compute_per_line;
    config.classes.push_back(std::move(rc));
  }
  config.horizon_cycles = horizon;
  config.seed = seed;
  config.max_clusters = spec.max_clusters;
  config.shared_region_lines = spec.shared_region_lines;
  const size_t num_classes = config.classes.size();
  for (uint32_t core = 0; core < spec.cores; ++core) {
    config.cores.push_back(core);
  }
  for (size_t t = 0; t < num_tenants; ++t) {
    serve::TenantSpec tenant;
    tenant.class_id = spec.class_deal[t % spec.class_deal.size()] %
                      static_cast<uint32_t>(num_classes);
    const plan::ServeClassSpec& c = spec.classes[tenant.class_id];
    const uint64_t est =
        (static_cast<uint64_t>(c.passes) * c.private_lines + c.stream_lines) *
        (c.compute_per_line + c.mem_cycles_per_line);
    const uint64_t interarrival = static_cast<uint64_t>(
        static_cast<double>(est) * num_tenants / (spec.cores * load));
    if ((t / num_classes) % 2 == 0) {
      tenant.arrival.kind = serve::ArrivalKind::kPoisson;
      tenant.arrival.mean_interarrival_cycles = interarrival;
    } else {
      tenant.arrival.kind = serve::ArrivalKind::kOnOff;
      tenant.arrival.mean_interarrival_cycles = interarrival / 2;
      tenant.arrival.mean_on_cycles = spec.burst_on_cycles;
      tenant.arrival.mean_off_cycles = spec.burst_off_cycles;
    }
    config.tenants.push_back(tenant);
  }
  return config;
}

}  // namespace

Inputs ServeInputs(uint32_t variant) {
  return {{"seed_base", 9000 + 1000ull * variant}};
}

Status LoadServeScenario(const std::string& path, const Inputs& inputs,
                         plan::Scenario* out) {
  std::string text;
  CATDB_RETURN_IF_ERROR(plan::ReadTextFile(path, &text));
  CATDB_RETURN_IF_ERROR(plan::ScenarioFromText(text, out));
  if (out->kind != plan::SweepKind::kServing) {
    return Status::InvalidArgument(path + ": not a serving_sweep scenario");
  }
  out->serving.seed_base = inputs.at("seed_base");
  return Status::OK();
}

SimOutputs ServeOutputs(const plan::Scenario& scenario,
                        const plan::ServingOutcome& outcome) {
  const std::vector<std::string>& policies = scenario.serving.policies;
  SimOutputs out;
  for (size_t li = 0; li < outcome.loads.size(); ++li) {
    for (size_t pi = 0; pi < policies.size(); ++pi) {
      const plan::ServingOutcome::Cell& c =
          outcome.cells.at(li * policies.size() + pi);
      SimValues& v =
          out[LoadKey(outcome.loads[li].value()) + "/" + policies[pi]];
      v["arrivals"] = static_cast<double>(c.arrivals);
      v["completed"] = static_cast<double>(c.completed);
      v["rejected"] = static_cast<double>(c.rejected);
      v["max_queue_depth"] = static_cast<double>(c.max_queue_depth);
      v["p50"] = static_cast<double>(c.p50);
      v["p95"] = static_cast<double>(c.p95);
      v["p99"] = static_cast<double>(c.p99);
      v["num_clusters"] = static_cast<double>(c.num_clusters);
      v["llc_hit_ratio"] = c.llc_hit_ratio;
      v["sustained_load"] = outcome.sustained.at(pi);
    }
  }
  return out;
}

void RunServeCells(const plan::Scenario& scenario, unsigned jobs, bool smoke,
                   bool profile, const TraceCtx& trace, ServeCells* out) {
  const plan::ServingSweepSpec& spec = scenario.serving;
  plan::ServingOutcome& o = out->outcome;
  o.tenants = smoke ? spec.smoke_tenants : spec.tenants;
  o.horizon = smoke ? spec.smoke_horizon : spec.horizon;
  o.loads = smoke ? spec.smoke_loads : spec.loads;
  const size_t num_policies = spec.policies.size();
  o.cells.assign(o.loads.size() * num_policies, {});
  out->cells.assign(o.cells.size(), {});
  std::vector<simcache::HierarchyStats> stats(o.cells.size());

  harness::SweepRunner::Options options;
  options.jobs = jobs;
  out->runner.emplace(scenario.benchmark, options);
  for (size_t li = 0; li < o.loads.size(); ++li) {
    for (size_t pi = 0; pi < num_policies; ++pi) {
      const size_t index = li * num_policies + pi;
      const double load = o.loads[li].value();
      const std::string key = LoadKey(load) + "/" + spec.policies[pi];
      const uint64_t seed = spec.seed_base + li;
      plan::ServingOutcome::Cell* cell_out = &o.cells[index];
      ServeCellTrace* cell_trace = &out->cells[index];
      simcache::HierarchyStats* cell_stats = &stats[index];
      cell_trace->policy = spec.policies[pi];
      const uint64_t num_tenants = o.tenants;
      const uint64_t horizon = o.horizon;
      out->runner->AddCell(key, [&spec, &trace, key, load, num_tenants,
                                 horizon, seed, profile, cell_out, cell_trace,
                                 cell_stats](harness::SweepCell& cell) {
        const double t0 = WallNow();
        ScopedSpan span(trace, "serve." + key,
                        "serve (" + cell_trace->policy + " cells)");
        sim::Machine& machine = cell.MakeMachine();
        if (profile) {
          machine.hierarchy().AttachHostProfiler(&cell_trace->profile);
        }
        serve::ServingRunReport rep = serve::ServeWorkload(
            &machine,
            RebuildServeConfig(spec, load, num_tenants, horizon, seed),
            PolicyOf(cell_trace->policy));
        machine.hierarchy().AttachHostProfiler(nullptr);

        cell_out->arrivals = rep.arrivals;
        cell_out->completed = rep.completed;
        cell_out->rejected = rep.rejected;
        cell_out->max_queue_depth = rep.max_queue_depth;
        cell_out->p50 = rep.latency.p50;
        cell_out->p95 = rep.latency.p95;
        cell_out->p99 = rep.latency.p99;
        cell_out->num_clusters = rep.num_clusters;
        cell_out->llc_hit_ratio = rep.llc_hit_ratio;
        *cell_stats = machine.hierarchy().stats();
        cell_trace->completed = rep.completed;
        cell_trace->intervals = rep.intervals;
        cell_trace->group_moves = rep.group_moves;
        cell_trace->clos_reassociations = machine.resctrl().reassociations();
        cell_trace->schemata_writes =
            rep.schemata_writes + machine.resctrl().GroupNames().size();

        cell.report().AddScalar(key + "/p50",
                                static_cast<double>(rep.latency.p50));
        cell.report().AddScalar(key + "/p95",
                                static_cast<double>(rep.latency.p95));
        cell.report().AddScalar(key + "/p99",
                                static_cast<double>(rep.latency.p99));
        cell.report().AddScalar(key + "/rejected_ratio",
                                cell_out->rejected_ratio());
        cell.report().AddServingRun(key, std::move(rep));
        cell_trace->seconds = WallNow() - t0;
      });
    }
  }
  out->runner->Run();

  obs::RunReportWriter& report = out->runner->report();
  report.AddParam("tenants", o.tenants);
  report.AddParam("horizon_cycles", o.horizon);
  report.AddParam("slo_p99_cycles", spec.slo_p99_cycles);
  const double max_rejected = spec.max_rejected_ratio.value();
  o.meets_slo.assign(o.cells.size(), false);
  for (size_t i = 0; i < o.cells.size(); ++i) {
    const plan::ServingOutcome::Cell& c = o.cells[i];
    o.meets_slo[i] = c.completed > 0 && c.p99 <= spec.slo_p99_cycles &&
                     c.rejected_ratio() <= max_rejected;
  }
  o.sustained.clear();
  for (size_t pi = 0; pi < num_policies; ++pi) {
    double sustained = 0;
    for (size_t li = 0; li < o.loads.size(); ++li) {
      if (o.meets_slo[li * num_policies + pi]) sustained = o.loads[li].value();
    }
    o.sustained.push_back(sustained);
    report.AddScalar("sustained_load/" + spec.policies[pi], sustained);
  }
  plan::AddScenarioSection(&report, scenario);

  out->outputs = ServeOutputs(scenario, o);
  for (size_t li = 0; li < o.loads.size(); ++li) {
    for (size_t pi = 0; pi < num_policies; ++pi) {
      const size_t i = li * num_policies + pi;
      const ServeCellTrace& t = out->cells[i];
      SimValues& v =
          out->outputs[LoadKey(o.loads[li].value()) + "/" + spec.policies[pi]];
      AddHierarchyStats(stats[i], &v);
      v["intervals"] = static_cast<double>(t.intervals);
      v["group_moves"] = static_cast<double>(t.group_moves);
      v["clos_reassociations"] = static_cast<double>(t.clos_reassociations);
      v["schemata_writes"] = static_cast<double>(t.schemata_writes);
    }
  }
}

}  // namespace hostbench
