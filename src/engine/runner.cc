#include "engine/runner.h"

#include "common/check.h"
#include "common/units.h"

namespace catdb::engine {

QueryStream::QueryStream(Query* query, std::vector<uint32_t> cores,
                         JobScheduler* scheduler, uint64_t max_iterations)
    : query_(query),
      cores_(std::move(cores)),
      scheduler_(scheduler),
      max_iterations_(max_iterations) {
  CATDB_CHECK(query_ != nullptr);
  CATDB_CHECK(!cores_.empty());
  CATDB_CHECK(scheduler_ != nullptr);
}

void QueryStream::StartPhase() {
  jobs_.clear();
  next_job_ = 0;
  query_->MakePhaseJobs(phase_, static_cast<uint32_t>(cores_.size()), &jobs_);
  CATDB_CHECK(!jobs_.empty());
  // Jobs of a new phase may not start before every job of the previous
  // phase finished (barrier).
  for (auto& job : jobs_) job->set_ready_time(barrier_clock_);
  phase_started_ = true;
}

sim::Task* QueryStream::NextTask(uint32_t core) {
  (void)core;
  if (!phase_started_) {
    if (max_iterations_ != 0 && completed_ >= max_iterations_) return nullptr;
    StartPhase();
  }
  if (next_job_ < jobs_.size()) {
    Job* job = jobs_[next_job_++].get();
    running_ += 1;
    return job;
  }
  if (running_ > 0) return nullptr;  // barrier: wait for phase stragglers

  // Phase complete: advance to the next phase or iteration.
  for (auto& job : jobs_) work_finished_this_iter_ += job->work_done();
  phase_ += 1;
  if (phase_ >= query_->num_phases()) {
    phase_ = 0;
    completed_ += 1;
    iteration_end_clocks_.push_back(barrier_clock_);
    work_finished_this_iter_ = 0;
    if (max_iterations_ != 0 && completed_ >= max_iterations_) {
      jobs_.clear();
      phase_started_ = false;
      return nullptr;
    }
  }
  StartPhase();
  Job* job = jobs_[next_job_++].get();
  running_ += 1;
  return job;
}

void QueryStream::TaskFinished(sim::Task* task, uint32_t core,
                               uint64_t clock) {
  (void)core;
  auto* job = static_cast<Job*>(task);
  job->set_finished();
  CATDB_CHECK(running_ > 0);
  running_ -= 1;
  if (clock > barrier_clock_) barrier_clock_ = clock;
}

void QueryStream::TaskDispatched(sim::Task* task, uint32_t core) {
  scheduler_->OnDispatch(static_cast<Job*>(task), core);
}

double QueryStream::Iterations() const {
  uint64_t live_work = work_finished_this_iter_;
  for (const auto& job : jobs_) {
    // Count jobs of the in-flight phase; finished ones are not yet folded
    // into work_finished_this_iter_ (that happens at the phase boundary).
    live_work += job->work_done();
  }
  const double total =
      static_cast<double>(query_->TotalWorkPerIteration());
  double fraction = total > 0 ? static_cast<double>(live_work) / total : 0;
  if (fraction > 1) fraction = 1;
  return static_cast<double>(completed_) + fraction;
}

RunReport CollectRunReport(
    sim::Machine* machine, const JobScheduler& scheduler,
    const std::vector<std::unique_ptr<QueryStream>>& streams,
    uint64_t duration_cycles) {
  RunReport report;
  report.duration_cycles = duration_cycles;
  report.sim_seconds = CyclesToSeconds(duration_cycles);
  for (const auto& stream : streams) {
    StreamResult r;
    r.query_name = stream->query()->name();
    r.iterations = stream->Iterations();
    r.iterations_per_second =
        report.sim_seconds > 0 ? r.iterations / report.sim_seconds : 0;
    r.iteration_end_clocks = stream->iteration_end_clocks();
    for (uint32_t core : stream->cores()) {
      r.stats += machine->hierarchy().core_stats(core);
    }
    report.streams.push_back(std::move(r));
  }
  report.stats = machine->hierarchy().stats();
  report.llc_hit_ratio = report.stats.llc_hit_ratio();
  report.llc_mpi = report.stats.llc_misses_per_instruction();
  report.group_moves = scheduler.group_moves();
  report.skipped_moves = scheduler.skipped_moves();
  report.clos_reassociations = machine->resctrl().reassociations();
  return report;
}

RunReport RunWorkload(sim::Machine* machine,
                      const std::vector<StreamSpec>& specs,
                      uint64_t horizon_cycles, const PolicyConfig& policy) {
  CATDB_CHECK(machine != nullptr);
  CATDB_CHECK(!specs.empty());

  machine->ResetForRun();
  machine->resctrl().Reset();

  JobScheduler scheduler(machine, policy);
  const Status st = scheduler.SetupGroups();
  CATDB_CHECK(st.ok());

  sim::Executor executor(machine);
  std::vector<std::unique_ptr<QueryStream>> streams;
  for (const StreamSpec& spec : specs) {
    // A run to completion ends only once every stream stops by itself.
    CATDB_CHECK(horizon_cycles != kRunToCompletion ||
                spec.max_iterations >= 1);
    streams.push_back(std::make_unique<QueryStream>(
        spec.query, spec.cores, &scheduler, spec.max_iterations));
    for (uint32_t core : spec.cores) {
      executor.Attach(core, streams.back().get());
    }
  }

  executor.RunUntil(horizon_cycles);
  const uint64_t duration = horizon_cycles == kRunToCompletion
                                ? machine->MaxClock()
                                : horizon_cycles;
  return CollectRunReport(machine, scheduler, streams, duration);
}

RunReport RunQueryIterations(sim::Machine* machine, Query* query,
                             const std::vector<uint32_t>& cores,
                             uint64_t iterations,
                             const PolicyConfig& policy) {
  return RunWorkload(machine, {StreamSpec{query, cores, iterations}},
                     kRunToCompletion, policy);
}

}  // namespace catdb::engine
