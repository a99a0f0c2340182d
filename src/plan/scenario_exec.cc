#include "plan/scenario_exec.h"

#include <cstdio>
#include <map>
#include <utility>

#include "common/check.h"
#include "engine/partitioning_policy.h"
#include "plan/plan_query.h"
#include "serve/serving_engine.h"

namespace catdb::plan {

namespace {

const Plan* FindPlan(const Scenario& scenario, const std::string& name) {
  for (const Plan& plan : scenario.plans) {
    if (plan.name == name) return &plan;
  }
  return nullptr;
}

/// Builds the named datasets in listed order (the allocation sequence on the
/// simulated machine is part of byte-identity) and lowers `plan` against
/// them. Aborts on failure: ValidateScenario already proved the references
/// and types, so a lowering error here is a programming bug.
struct CellWorkload {
  std::vector<BuiltDataset> datasets;
  std::map<std::string, const BuiltDataset*> catalog;

  void Build(sim::Machine* machine, const Scenario& scenario,
             const std::vector<std::string>& names) {
    datasets.reserve(names.size());
    for (const std::string& name : names) {
      const DatasetSpec* spec = FindDataset(scenario, name);
      CATDB_CHECK(spec != nullptr);
      datasets.push_back(BuildDataset(machine, *spec));
      catalog[name] = &datasets.back();
    }
  }

  std::unique_ptr<PlanQuery> Lower(sim::Machine* machine, const Plan& plan) {
    std::unique_ptr<PlanQuery> q;
    const Status st = PlanQuery::Create(plan, catalog, &q);
    if (!st.ok()) {
      std::fprintf(stderr, "plan '%s' lowering failed: %s\n",
                   plan.name.c_str(), st.ToString().c_str());
    }
    CATDB_CHECK(st.ok());
    q->AttachSim(machine);
    return q;
  }
};

std::vector<std::string> AllDatasetNames(const Scenario& scenario) {
  std::vector<std::string> names;
  for (const DatasetSpec& spec : scenario.datasets) names.push_back(spec.name);
  return names;
}

/// Cell-mode latency sweep (fig05/fig06 shape): every scenario cell is one
/// independent column — own machine, datasets and plan — that computes its
/// full-LLC baseline explicitly and then sweeps the way axis with
/// WarmIterationCycles on the same (warm) machine, exactly like the
/// hand-coded column cells.
void RunLatencyCells(const Scenario& scenario, const ExecOptions& opts,
                     harness::SweepRunner* runner, LatencyOutcome* out) {
  const LatencySweepSpec& spec = scenario.latency;
  out->ways = opts.smoke ? spec.smoke_ways : spec.ways;
  const size_t num_cells = opts.smoke ? static_cast<size_t>(spec.smoke_cells)
                                      : spec.cells.size();
  out->columns.resize(num_cells);
  for (size_t ci = 0; ci < num_cells; ++ci) {
    const LatencyCellSpec* cs = &spec.cells[ci];
    LatencyOutcome::ColumnCell* col = &out->columns[ci];
    col->name = cs->name;
    const std::vector<uint32_t>* ways = &out->ways;
    runner->AddCell(cs->name, [&scenario, cs, ways,
                               col](harness::SweepCell& cell) {
      sim::Machine& machine = cell.MakeMachine();
      CellWorkload wl;
      wl.Build(&machine, scenario, cs->datasets);
      const Plan* plan = FindPlan(scenario, cs->plan);
      CATDB_CHECK(plan != nullptr);
      std::unique_ptr<PlanQuery> q = wl.Lower(&machine, *plan);

      // Full-LLC baseline first, independent of the sweep axis contents.
      const uint32_t full_ways = harness::FullLlcWays(machine);
      col->full_cycles = static_cast<double>(
          harness::WarmIterationCycles(&machine, q.get(), full_ways));
      for (const uint32_t w : *ways) {
        const double cycles =
            w == full_ways
                ? col->full_cycles
                : static_cast<double>(
                      harness::WarmIterationCycles(&machine, q.get(), w));
        col->norm.push_back(col->full_cycles / cycles);
        cell.report().AddScalar(cs->name + "/ways" + std::to_string(w),
                                col->norm.back());
      }
    });
  }
  runner->Run();
}

void RunLatency(const Scenario& scenario, const ExecOptions& opts,
                harness::SweepRunner* runner, LatencyOutcome* out) {
  const LatencySweepSpec& spec = scenario.latency;
  if (!spec.cells.empty()) {
    RunLatencyCells(scenario, opts, runner, out);
    return;
  }
  const Plan* plan = FindPlan(scenario, spec.plan);
  CATDB_CHECK(plan != nullptr);

  // Config-only machine for the full-LLC way count (mirrors fig04's meta
  // machine; the cells build their own).
  sim::Machine meta{sim::MachineConfig{}};
  const uint32_t full_ways = harness::FullLlcWays(meta);

  auto make_cell = [&scenario, plan, &spec](uint32_t ways,
                                            LatencyOutcome::Cell* cell_out) {
    const uint64_t iterations = spec.iterations;
    return [&scenario, plan, ways, iterations,
            cell_out](harness::SweepCell& cell) {
      sim::Machine& machine = cell.MakeMachine();
      CellWorkload w;
      w.Build(&machine, scenario, AllDatasetNames(scenario));
      std::unique_ptr<PlanQuery> q = w.Lower(&machine, *plan);
      engine::PolicyConfig cfg;
      cfg.instance_ways = ways;
      cell_out->rep = engine::RunQueryIterations(&machine, q.get(),
                                                 harness::kCoresA, iterations,
                                                 cfg);
      const auto& clocks = cell_out->rep.streams[0].iteration_end_clocks;
      cell_out->cycles = static_cast<double>(clocks[iterations - 1] -
                                             clocks[iterations - 2]);
    };
  };

  // The full-LLC baseline is its own cell, exactly like the hand-coded
  // sweeps: normalization never depends on the axis containing the
  // unrestricted entry.
  LatencyOutcome::Cell baseline;
  out->ways = opts.smoke ? spec.smoke_ways : spec.ways;
  out->cells.resize(out->ways.size());
  runner->AddCell("baseline", make_cell(full_ways, &baseline));
  for (size_t i = 0; i < out->ways.size(); ++i) {
    runner->AddCell("ways" + std::to_string(out->ways[i]),
                    make_cell(out->ways[i], &out->cells[i]));
  }
  runner->Run();
  out->baseline_cycles = baseline.cycles;

  obs::RunReportWriter& report = runner->report();
  for (size_t i = 0; i < out->ways.size(); ++i) {
    const std::string key = "ways" + std::to_string(out->ways[i]);
    report.AddScalar(key + "/norm_tput",
                     out->baseline_cycles / out->cells[i].cycles);
    report.AddRun(key, out->cells[i].rep);
  }
}

void RunPairSweep(const Scenario& scenario, const ExecOptions& opts,
                  harness::SweepRunner* runner, PairOutcome* out) {
  const PairSweepSpec& spec = scenario.pair;
  const uint64_t horizon = opts.smoke ? spec.smoke_horizon : spec.horizon;
  const size_t num_cells =
      opts.smoke ? static_cast<size_t>(spec.smoke_cells) : spec.cells.size();

  const engine::PolicyConfig policy = PairPolicyConfig(spec.policy);

  out->results.resize(num_cells);
  for (size_t ci = 0; ci < num_cells; ++ci) {
    const PairCellSpec* cs = &spec.cells[ci];
    out->cell_names.push_back(cs->name);
    harness::PairResult* cell_out = &out->results[ci];
    runner->AddCell(cs->name, [&scenario, cs, policy, horizon,
                               cell_out](harness::SweepCell& cell) {
      sim::Machine& machine = cell.MakeMachine();
      CellWorkload w;
      w.Build(&machine, scenario, cs->datasets);
      const Plan* plan_a = FindPlan(scenario, cs->a);
      const Plan* plan_b = FindPlan(scenario, cs->b);
      CATDB_CHECK(plan_a != nullptr && plan_b != nullptr);
      std::unique_ptr<PlanQuery> a = w.Lower(&machine, *plan_a);
      std::unique_ptr<PlanQuery> b = w.Lower(&machine, *plan_b);
      *cell_out = harness::RunPair(&machine, a.get(), b.get(), policy,
                                   horizon);
      harness::AddPairResult(&cell.report(), cs->name, *cell_out);
    });
  }
  runner->Run();
}

engine::CacheUsage ServeCacheUsageOf(CuidAnnotation cuid) {
  switch (cuid) {
    case CuidAnnotation::kPolluting:
      return engine::CacheUsage::kPolluting;
    case CuidAnnotation::kAdaptive:
      return engine::CacheUsage::kAdaptive;
    case CuidAnnotation::kSensitive:
    case CuidAnnotation::kDefault:
      break;
  }
  return engine::CacheUsage::kSensitive;  // kDefault rejected by validation
}

serve::ServePolicyKind ServePolicyOf(const std::string& name) {
  if (name == "shared") return serve::ServePolicyKind::kShared;
  if (name == "static") return serve::ServePolicyKind::kStatic;
  if (name == "lookahead") return serve::ServePolicyKind::kLookahead;
  CATDB_CHECK(name == "mrc_cluster");  // validation rejected everything else
  return serve::ServePolicyKind::kMrcCluster;
}

serve::ServeConfig MakeServeConfig(const ServingSweepSpec& spec, double load,
                                   uint64_t num_tenants, uint64_t horizon,
                                   uint64_t seed) {
  serve::ServeConfig config;
  for (const ServeClassSpec& c : spec.classes) {
    serve::RequestClass rc;
    rc.name = c.name;
    rc.cuid = ServeCacheUsageOf(c.cuid);
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

  for (uint32_t core = 0; core < spec.cores; ++core) {
    config.cores.push_back(core);
  }

  for (uint64_t t = 0; t < num_tenants; ++t) {
    serve::TenantSpec tenant;
    tenant.class_id = TenantClass(spec, t);
    tenant.arrival = TenantArrival(spec, t, num_tenants, load);
    config.tenants.push_back(tenant);
  }
  return config;
}

std::string LoadKey(double load) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "load%.2f", load);
  return buf;
}

void RunServing(const Scenario& scenario, const ExecOptions& opts,
                harness::SweepRunner* runner, ServingOutcome* out) {
  const ServingSweepSpec& spec = scenario.serving;
  out->tenants = opts.smoke ? spec.smoke_tenants : spec.tenants;
  out->horizon = opts.smoke ? spec.smoke_horizon : spec.horizon;
  out->loads = opts.smoke ? spec.smoke_loads : spec.loads;
  const size_t num_policies = spec.policies.size();

  out->cells.resize(out->loads.size() * num_policies);
  for (size_t li = 0; li < out->loads.size(); ++li) {
    for (size_t pi = 0; pi < num_policies; ++pi) {
      const double load = out->loads[li].value();
      const std::string key = LoadKey(load) + "/" + spec.policies[pi];
      // Same seed for every policy at a load: identical arrival traces.
      const uint64_t seed = spec.seed_base + li;
      const serve::ServePolicyKind policy = ServePolicyOf(spec.policies[pi]);
      ServingOutcome::Cell* cell_out = &out->cells[li * num_policies + pi];
      const uint64_t num_tenants = out->tenants;
      const uint64_t horizon = out->horizon;
      runner->AddCell(key, [&spec, key, load, num_tenants, horizon, seed,
                            policy, cell_out](harness::SweepCell& cell) {
        sim::Machine& machine = cell.MakeMachine();
        const serve::ServeConfig config =
            MakeServeConfig(spec, load, num_tenants, horizon, seed);
        serve::ServingRunReport rep =
            serve::ServeWorkload(&machine, config, policy);

        cell_out->arrivals = rep.arrivals;
        cell_out->completed = rep.completed;
        cell_out->rejected = rep.rejected;
        cell_out->max_queue_depth = rep.max_queue_depth;
        cell_out->p50 = rep.latency.p50;
        cell_out->p95 = rep.latency.p95;
        cell_out->p99 = rep.latency.p99;
        cell_out->num_clusters = rep.num_clusters;
        cell_out->llc_hit_ratio = rep.llc_hit_ratio;

        cell.report().AddScalar(key + "/p50",
                                static_cast<double>(rep.latency.p50));
        cell.report().AddScalar(key + "/p95",
                                static_cast<double>(rep.latency.p95));
        cell.report().AddScalar(key + "/p99",
                                static_cast<double>(rep.latency.p99));
        cell.report().AddScalar(key + "/rejected_ratio",
                                cell_out->rejected_ratio());
        cell.report().AddServingRun(key, rep);
      });
    }
  }
  runner->Run();

  obs::RunReportWriter& report = runner->report();
  report.AddParam("tenants", out->tenants);
  report.AddParam("horizon_cycles", out->horizon);
  report.AddParam("slo_p99_cycles", spec.slo_p99_cycles);

  const double max_rejected = spec.max_rejected_ratio.value();
  out->meets_slo.resize(out->cells.size());
  for (size_t i = 0; i < out->cells.size(); ++i) {
    const ServingOutcome::Cell& c = out->cells[i];
    out->meets_slo[i] = c.completed > 0 && c.p99 <= spec.slo_p99_cycles &&
                        c.rejected_ratio() <= max_rejected;
  }
  // Sustained load: the highest offered load whose run met the SLO (0 =
  // nowhere). One summary scalar per policy, in scenario policy order.
  for (size_t pi = 0; pi < num_policies; ++pi) {
    double sustained = 0;
    for (size_t li = 0; li < out->loads.size(); ++li) {
      if (out->meets_slo[li * num_policies + pi]) {
        sustained = out->loads[li].value();
      }
    }
    out->sustained.push_back(sustained);
    report.AddScalar("sustained_load/" + spec.policies[pi], sustained);
  }
}

}  // namespace

void AddScenarioSection(obs::RunReportWriter* report,
                        const Scenario& scenario) {
  obs::ScenarioSummary s;
  s.scenario = scenario.benchmark;
  s.sweep_kind = SweepKindName(scenario.kind);
  s.num_datasets = scenario.datasets.size();
  s.num_plans = scenario.plans.size();
  switch (scenario.kind) {
    case SweepKind::kLatency:
      // Single-plan mode: sweep entries plus the explicit full-LLC baseline
      // cell. Cell mode: one runner cell per scenario cell (each cell's
      // baseline is internal).
      s.num_cells = scenario.latency.cells.empty()
                        ? scenario.latency.ways.size() + 1
                        : scenario.latency.cells.size();
      break;
    case SweepKind::kPair:
      s.num_cells = scenario.pair.cells.size();
      break;
    case SweepKind::kServing:
      s.num_cells =
          scenario.serving.loads.size() * scenario.serving.policies.size();
      break;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "fnv1a:%016llx",
                static_cast<unsigned long long>(
                    Fnv1a64(ScenarioToText(scenario))));
  s.digest = buf;
  report->AddScenario(scenario.benchmark, s);
}

Status RunScenario(const Scenario& scenario, const ExecOptions& opts,
                   ScenarioRunResult* result) {
  CATDB_RETURN_IF_ERROR(ValidateScenario(scenario));

  harness::SweepRunner::Options o;
  o.jobs = opts.jobs;
  o.tracing = opts.tracing;
  result->runner.emplace(scenario.benchmark, o);

  switch (scenario.kind) {
    case SweepKind::kLatency:
      RunLatency(scenario, opts, &*result->runner, &result->latency);
      break;
    case SweepKind::kPair:
      RunPairSweep(scenario, opts, &*result->runner, &result->pair);
      break;
    case SweepKind::kServing:
      RunServing(scenario, opts, &*result->runner, &result->serving);
      break;
  }
  AddScenarioSection(&result->runner->report(), scenario);
  return Status::OK();
}

}  // namespace catdb::plan
