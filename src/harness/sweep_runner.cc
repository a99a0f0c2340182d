#include "harness/sweep_runner.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <limits>
#include <thread>
#include <utility>

#include "common/check.h"

namespace catdb::harness {

unsigned DefaultJobs() {
  if (const char* env = std::getenv("CATDB_JOBS")) {
    // A malformed or out-of-range value (strtol saturates at LONG_MAX, and
    // a value past UINT_MAX would wrap in the cast) falls back to the host
    // count instead of aborting or silently running narrower.
    errno = 0;
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && errno != ERANGE && v > 0 &&
        static_cast<unsigned long>(v) <=
            std::numeric_limits<unsigned>::max()) {
      return static_cast<unsigned>(v);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

sim::Machine& SweepCell::MakeMachine(const sim::MachineConfig& config) {
  machines_.push_back(std::make_unique<sim::Machine>(config));
  sim::Machine* machine = machines_.back().get();
  if (tracing_) machine->EnableTracing();
  return *machine;
}

void SweepCell::Execute() {
  try {
    body_(*this);
    // Harvest traces while the machines are still alive.
    for (const std::unique_ptr<sim::Machine>& m : machines_) {
      if (obs::EventTrace* trace = m->trace()) {
        const std::vector<obs::TraceEvent> events = trace->Events();
        trace_events_.insert(trace_events_.end(), events.begin(),
                             events.end());
      }
    }
  } catch (...) {
    error_ = std::current_exception();
  }
  // Cells can be far more numerous than threads; do not keep every cell's
  // hierarchy alive until the sweep ends.
  machines_.clear();
}

SweepRunner::SweepRunner(std::string benchmark, const Options& options)
    : benchmark_(std::move(benchmark)),
      jobs_(options.jobs == 0 ? DefaultJobs() : options.jobs),
      tracing_(options.tracing),
      report_(benchmark_) {}

size_t SweepRunner::AddCell(std::string name,
                            std::function<void(SweepCell&)> body) {
  CATDB_CHECK(!ran_);
  CATDB_CHECK(body != nullptr);
  // make_unique cannot reach the private constructor; wrap the raw new.
  cells_.emplace_back(new SweepCell(std::move(name), tracing_, benchmark_));
  cells_.back()->body_ = std::move(body);
  return cells_.size() - 1;
}

void SweepRunner::Run() {
  CATDB_CHECK(!ran_);
  // Threads beyond the cell count would only idle (reports do not depend
  // on the thread count), and a huge --jobs must not start that many.
  const size_t num_threads = std::min<size_t>(jobs_, cells_.size());
  std::atomic<size_t> next{0};
  {
    // jthreads join when this scope ends, also when starting one throws.
    std::vector<std::jthread> threads;
    threads.reserve(num_threads);
    for (size_t t = 0; t < num_threads; ++t) {
      threads.emplace_back([this, &next] {
        for (size_t i = next.fetch_add(1, std::memory_order_relaxed);
             i < cells_.size();
             i = next.fetch_add(1, std::memory_order_relaxed)) {
          cells_[i]->Execute();
        }
      });
    }
  }

  for (const std::unique_ptr<SweepCell>& cell : cells_) {
    if (cell->error_) std::rethrow_exception(cell->error_);
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
