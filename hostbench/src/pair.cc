#include <initializer_list>
#include <utility>

#include "common/units.h"
#include "engine/runner.h"
#include "obs/report.h"
#include "sim/executor.h"
#include "storage/dataset_cache.h"
#include "timing.h"
#include "workloads.h"

namespace hostbench {

namespace {

using namespace catdb;

/// The serial executor with every Step call timed.
class TimedExecutor final : public sim::Executor {
 public:
  using sim::Executor::Executor;

  uint64_t ticks = 0;
  uint64_t steps = 0;

 protected:
  bool StepTask(sim::Task* task, uint32_t core) override {
    const uint64_t t0 = simcache::HostTimerNow();
    const bool more = sim::Executor::StepTask(task, core);
    ticks += simcache::HostTimerNow() - t0;
    steps += 1;
    return more;
  }
};

/// Forwards to a QueryStream, timing each callback: NextTask builds the
/// next phase's jobs, TaskDispatched runs JobScheduler::OnDispatch.
class TimedSource final : public sim::TaskSource {
 public:
  explicit TimedSource(sim::TaskSource* inner) : inner_(inner) {}

  sim::Task* NextTask(uint32_t core) override {
    const uint64_t t0 = simcache::HostTimerNow();
    sim::Task* task = inner_->NextTask(core);
    ticks += simcache::HostTimerNow() - t0;
    return task;
  }
  void TaskFinished(sim::Task* task, uint32_t core, uint64_t clock) override {
    const uint64_t t0 = simcache::HostTimerNow();
    inner_->TaskFinished(task, core, clock);
    ticks += simcache::HostTimerNow() - t0;
  }
  void TaskDispatched(sim::Task* task, uint32_t core) override {
    const uint64_t t0 = simcache::HostTimerNow();
    inner_->TaskDispatched(task, core);
    ticks += simcache::HostTimerNow() - t0;
    tasks += 1;
  }

  uint64_t ticks = 0;
  uint64_t tasks = 0;

 private:
  sim::TaskSource* inner_;
};

/// Host ticks of one simulation, converted once the pass is calibrated.
struct SimTicks {
  int run_until_span = -1;
  double run_until_s = 0;
  uint64_t step = 0;
  uint64_t source = 0;
};

/// engine::RunWorkload, step for step, on a TimedExecutor with TimedSources.
engine::RunReport RunWorkloadTimed(sim::Machine* machine,
                                   const std::vector<engine::StreamSpec>& specs,
                                   uint64_t horizon,
                                   const engine::PolicyConfig& policy,
                                   const TraceCtx& trace,
                                   EngineCounters* counters, SimTicks* ticks) {
  {
    ScopedSpan span(trace, "simcache.reset", "simcache (reset)");
    machine->ResetForRun();
    machine->resctrl().Reset();
  }
  engine::JobScheduler scheduler(machine, policy);
  {
    ScopedSpan span(trace, "cat.setup_groups", "cat");
    CATDB_CHECK(scheduler.SetupGroups().ok());
  }
  counters->schemata_writes += machine->resctrl().GroupNames().size();

  TimedExecutor executor(machine);
  std::vector<std::unique_ptr<engine::QueryStream>> streams;
  std::vector<std::unique_ptr<TimedSource>> sources;
  for (const engine::StreamSpec& spec : specs) {
    streams.push_back(std::make_unique<engine::QueryStream>(
        spec.query, spec.cores, &scheduler, spec.max_iterations));
    sources.push_back(std::make_unique<TimedSource>(streams.back().get()));
    for (uint32_t core : spec.cores) {
      executor.Attach(core, sources.back().get());
    }
  }
  {
    ScopedSpan span(trace, "sim.run_until", "sim (dispatch)");
    const double t0 = WallNow();
    executor.RunUntil(horizon);
    ticks->run_until_s = WallNow() - t0;
    ticks->run_until_span = span.id();
  }
  engine::RunReport report;
  {
    ScopedSpan span(trace, "engine.collect", "engine (RunWorkload)");
    report = engine::CollectRunReport(machine, scheduler, streams, horizon);
  }
  ticks->step = executor.ticks;
  counters->steps += executor.steps;
  for (const auto& source : sources) {
    ticks->source += source->ticks;
    counters->tasks += source->tasks;
  }
  counters->group_moves += scheduler.group_moves();
  counters->clos_reassociations += report.clos_reassociations;
  return report;
}

/// Counters of one run report; `iteration_keys` names its streams.
SimValues ReportValues(const engine::RunReport& rep,
                       std::initializer_list<const char*> iteration_keys) {
  SimValues v;
  size_t i = 0;
  for (const char* key : iteration_keys) {
    v[key] = rep.streams.at(i++).iterations;
  }
  v["group_moves"] = static_cast<double>(rep.group_moves);
  v["clos_reassociations"] = static_cast<double>(rep.clos_reassociations);
  AddHierarchyStats(rep.stats, &v);
  return v;
}

}  // namespace

void ClearDatasetCache() { storage::DatasetCache::Instance().Clear(); }

Inputs PairInputs(uint32_t variant) {
  const uint64_t base = 11 + 1000ull * variant;
  return {{"acdoca_seed", 9100 + 1000ull * variant},
          {"scan_seed", base},
          {"oltp_seed", base + 1},
          {"olap_seed", base + 2}};
}

PairRig BuildPairRig(const Inputs& inputs, const TraceCtx& trace) {
  PairRig rig;
  {
    ScopedSpan span(trace, "sim.machine", "sim (machine build)");
    rig.machine = std::make_unique<sim::Machine>(sim::MachineConfig{});
  }
  sim::Machine* machine = rig.machine.get();
  {
    ScopedSpan span(trace, "storage.acdoca", "storage");
    workloads::AcdocaConfig config;
    config.seed = inputs.at("acdoca_seed");
    rig.acdoca = workloads::MakeAcdocaData(machine, config);
  }
  {
    ScopedSpan span(trace, "storage.scan_column", "storage");
    rig.scan = std::make_unique<workloads::ScanDataset>(
        workloads::MakeScanDataset(
            machine, workloads::kDefaultScanRows,
            workloads::DictEntriesForRatio(*machine,
                                           workloads::kDictRatioSmall),
            inputs.at("scan_seed")));
  }
  {
    ScopedSpan span(trace, "workloads.queries", "workloads");
    rig.oltp = workloads::MakeOltpQuery(*rig.acdoca, /*big_projection=*/true,
                                        /*num_columns=*/13,
                                        inputs.at("oltp_seed"));
    rig.olap = std::make_unique<engine::ColumnScanQuery>(
        &rig.scan->column, inputs.at("olap_seed"));
    rig.oltp->AttachSim(machine);
    rig.olap->AttachSim(machine);
  }
  return rig;
}

harness::PairResult RunPairUntraced(PairRig* rig) {
  return harness::RunPair(rig->machine.get(), rig->oltp.get(),
                          rig->olap.get(), engine::PolicyConfig{});
}

SimOutputs PairOutputs(const harness::PairResult& r) {
  SimOutputs out;
  out["iso_a"]["iterations_a"] = r.iso_a;
  out["iso_b"]["iterations_b"] = r.iso_b;
  out["concurrent"] =
      ReportValues(r.conc_report, {"iterations_a", "iterations_b"});
  out["partitioned"] =
      ReportValues(r.part_report, {"iterations_a", "iterations_b"});
  return out;
}

std::string PairReportJson(const PairRig& rig, const harness::PairResult& r) {
  // fig01_headline's report.
  const double sim_seconds = CyclesToSeconds(harness::kDefaultHorizon);
  const double per_iter = static_cast<double>(rig.oltp->batch_size()) *
                          harness::kCoresA.size();
  auto qps = [&](double iterations) {
    return iterations * per_iter / sim_seconds;
  };
  obs::RunReportWriter report("fig01_headline");
  report.AddParam("horizon_cycles", harness::kDefaultHorizon);
  report.AddScalar("oltp_qps_isolated", qps(r.iso_a));
  report.AddScalar("oltp_qps_concurrent", qps(r.conc_a));
  report.AddScalar("oltp_qps_partitioned", qps(r.part_a));
  harness::AddPairResult(&report, "oltp_vs_olap", r);
  return report.Json();
}

harness::PairResult RunPairTraced(PairRig* rig, const TraceCtx& trace,
                                  EngineCounters* counters,
                                  SimOutputs* outputs) {
  engine::Query* a = rig->oltp.get();
  engine::Query* b = rig->olap.get();
  engine::PolicyConfig off;
  engine::PolicyConfig on;
  on.enabled = true;
  struct Sim {
    const char* name;
    std::vector<engine::StreamSpec> specs;
    engine::PolicyConfig policy;
  };
  // RunPair's four simulations, in its order.
  const Sim sims[] = {
      {"iso_a", {{a, harness::kCoresA}}, off},
      {"iso_b", {{b, harness::kCoresB}}, off},
      {"concurrent", {{a, harness::kCoresA}, {b, harness::kCoresB}}, off},
      {"partitioned", {{a, harness::kCoresA}, {b, harness::kCoresB}}, on},
  };

  const TickCalibration calibration;
  engine::RunReport reports[4];
  SimTicks ticks[4];
  for (size_t i = 0; i < 4; ++i) {
    const double t0 = WallNow();
    ScopedSpan span(trace, std::string("sim.") + sims[i].name,
                    "engine (RunWorkload)");
    reports[i] = RunWorkloadTimed(rig->machine.get(), sims[i].specs,
                                  harness::kDefaultHorizon, sims[i].policy,
                                  span.child(), counters, &ticks[i]);
    counters->sim_seconds.push_back(WallNow() - t0);
  }

  const double hz = calibration.TicksPerSecond();
  for (const SimTicks& t : ticks) {
    const double step_s = static_cast<double>(t.step) / hz;
    const double source_s = static_cast<double>(t.source) / hz;
    counters->step_s += step_s;
    counters->source_s += source_s;
    counters->dispatch_s += t.run_until_s - step_s - source_s;
    if (trace.rec != nullptr) {
      trace.rec->AddSum(t.run_until_span, "engine.step (incl. simcache)",
                        step_s);
      trace.rec->AddSum(t.run_until_span, "engine.source", source_s);
    }
  }

  harness::PairResult r;
  r.iso_a = reports[0].streams[0].iterations;
  r.iso_b = reports[1].streams[0].iterations;
  r.conc_a = reports[2].streams[0].iterations;
  r.conc_b = reports[2].streams[1].iterations;
  r.part_a = reports[3].streams[0].iterations;
  r.part_b = reports[3].streams[1].iterations;
  (*outputs)["iso_a"] = ReportValues(reports[0], {"iterations_a"});
  (*outputs)["iso_b"] = ReportValues(reports[1], {"iterations_b"});
  (*outputs)["concurrent"] =
      ReportValues(reports[2], {"iterations_a", "iterations_b"});
  (*outputs)["partitioned"] =
      ReportValues(reports[3], {"iterations_a", "iterations_b"});
  r.conc_report = std::move(reports[2]);
  r.part_report = std::move(reports[3]);
  return r;
}

}  // namespace hostbench
