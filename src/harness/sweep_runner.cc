#include "harness/sweep_runner.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "harness/thread_pool.h"

namespace catdb::harness {

sim::Machine& SweepCell::MakeMachine(const sim::MachineConfig& config) {
  machines_.push_back(std::make_unique<sim::Machine>(config));
  sim::Machine* machine = machines_.back().get();
  if (tracing_) machine->EnableTracing();
  return *machine;
}

SweepRunner::SweepRunner(std::string benchmark, const Options& options)
    : benchmark_(std::move(benchmark)),
      jobs_(options.jobs == 0 ? ThreadPool::DefaultJobs() : options.jobs),
      tracing_(options.tracing),
      report_(benchmark_) {}

size_t SweepRunner::AddCell(std::string name,
                            std::function<void(SweepCell&)> body) {
  CATDB_CHECK(!ran_);
  CATDB_CHECK(body != nullptr);
  const size_t index = cells_.size();
  // make_unique cannot reach the private constructor; wrap the raw new.
  cells_.emplace_back(
      new SweepCell(index, std::move(name), tracing_, benchmark_));
  cells_.back()->body_ = std::move(body);
  return index;
}

void SweepRunner::Run() {
  CATDB_CHECK(!ran_);
  {
    // Workers beyond the cell count would only idle (reports do not depend
    // on the worker count), and a huge --jobs must not allocate a pool that
    // large.
    const size_t workers =
        std::max<size_t>(1, std::min<size_t>(jobs_, cells_.size()));
    ThreadPool pool(static_cast<unsigned>(workers));
    for (const std::unique_ptr<SweepCell>& cell_ptr : cells_) {
      SweepCell* cell = cell_ptr.get();
      pool.Submit([cell] {
        cell->body_(*cell);
        // Harvest traces while the cell's machines are still alive, then
        // free the machines (cells can be far more numerous than workers).
        for (const std::unique_ptr<sim::Machine>& m : cell->machines_) {
          if (obs::EventTrace* trace = m->trace()) {
            const std::vector<obs::TraceEvent> events = trace->Events();
            cell->trace_events_.insert(cell->trace_events_.end(),
                                       events.begin(), events.end());
          }
        }
        cell->machines_.clear();
      });
    }
    pool.Wait();  // rethrows the first cell failure
  }
  ran_ = true;
  for (const std::unique_ptr<SweepCell>& cell : cells_) {
    report_.MergeFrom(std::move(cell->shard_));
    trace_events_.insert(trace_events_.end(), cell->trace_events_.begin(),
                         cell->trace_events_.end());
    cell->trace_events_.clear();
  }
}

obs::RunReportWriter& SweepRunner::report() {
  CATDB_CHECK(ran_);
  return report_;
}

const std::vector<obs::TraceEvent>& SweepRunner::trace_events() const {
  CATDB_CHECK(ran_);
  return trace_events_;
}

}  // namespace catdb::harness
