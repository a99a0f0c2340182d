#ifndef CATDB_SIM_EXECUTOR_H_
#define CATDB_SIM_EXECUTOR_H_

#include <cstdint>
#include <queue>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/machine.h"

namespace catdb::sim {

/// A resumable unit of simulated work. Tasks are chunked state machines:
/// every Step() call processes a bounded amount of work (charging memory
/// accesses and compute to the context) and returns true while work remains.
/// Chunking keeps the discrete-event interleaving across cores fine-grained
/// and therefore the DRAM-queue ordering faithful.
class Task {
 public:
  virtual ~Task() = default;

  /// Processes one chunk. Returns false when the task has completed.
  virtual bool Step(ExecContext& ctx) = 0;

  /// Short human-readable name used as the span label in event traces;
  /// empty = anonymous task. Must stay valid while the task lives.
  virtual std::string_view label() const { return {}; }

  /// Earliest cycle at which the task may start (used for phase barriers).
  uint64_t ready_time() const { return ready_time_; }
  void set_ready_time(uint64_t t) { ready_time_ = t; }

  /// Work units (typically rows) completed so far, for fractional iteration
  /// accounting when a measurement horizon truncates a task. Steps report
  /// work through ExecContext::AddWork; the executor credits it here after
  /// each Step returns.
  uint64_t work_done() const { return work_done_; }
  void CreditWork(uint64_t units) { work_done_ += units; }

 private:
  uint64_t ready_time_ = 0;
  uint64_t work_done_ = 0;
};

/// Supplies tasks to cores and learns about their completion. Implemented by
/// the engine's query streams.
///
/// Contract: a source that returns nullptr from NextTask may only start
/// returning tasks again after some task (of any source) finished — the
/// executor re-polls idle cores on every TaskFinished and at the start of
/// every RunUntil call, not on every scheduling step. All sources in this
/// repository (query streams with phase barriers, fixed task lists) satisfy
/// this; a time-triggered source would need an explicit barrier task.
class TaskSource {
 public:
  virtual ~TaskSource() = default;

  /// Returns the next task for an idle core, or nullptr if none is ready.
  virtual Task* NextTask(uint32_t core) = 0;

  /// Notifies that `task` (previously handed out for `core`) finished at
  /// cycle `clock`.
  virtual void TaskFinished(Task* task, uint32_t core, uint64_t clock) = 0;

  /// Hook invoked right before a task starts running on a core (used by the
  /// engine to apply CAT thread re-association at dispatch). The executor
  /// guarantees this fires only for tasks that actually begin a Step before
  /// the current horizon — a task pulled from the source but still waiting
  /// at the horizon is dispatched by the RunUntil call that first runs it.
  /// Default: no-op.
  virtual void TaskDispatched(Task* task, uint32_t core) {
    (void)task;
    (void)core;
  }
};

/// Deterministic discrete-event executor: always advances the runnable core
/// with the smallest clock. Ties break by core id, making runs reproducible.
///
/// Scheduling is event-driven: runnable cores live in a min-heap keyed on
/// (clock, core id), so picking the next core is O(log cores) instead of a
/// rescan of every core per step, and idle cores are re-polled only when a
/// task finishes (the only event that can unblock a phase barrier). The
/// simulated schedule — which core steps at which cycle — is identical to
/// the naive smallest-clock scan.
class Executor {
 public:
  explicit Executor(Machine* machine);
  virtual ~Executor() = default;

  /// Binds a task source to a core. Cores without a source stay idle.
  void Attach(uint32_t core, TaskSource* source);

  /// Runs until every core is idle (no current task and its source has
  /// none ready). Returns the maximum core clock reached.
  uint64_t RunUntilIdle();

  /// Runs until all runnable cores have clocks >= `horizon` or everything is
  /// idle. Cores never start a new Step at or beyond the horizon, so `Run`
  /// is suitable for fixed-duration throughput measurements. Repeated calls
  /// with increasing horizons resume seamlessly (the dynamic policy's
  /// interval loop).
  void RunUntil(uint64_t horizon);

 protected:
  /// Runs one Step of `task` on `core` against the machine and credits the
  /// work delta. Virtual so a subclass can observe each Step (e.g. time
  /// it); the scheduling loop around it — and therefore the (cycle, core)
  /// order every side effect lands in — is shared and final.
  virtual bool StepTask(Task* task, uint32_t core);

 private:
  struct CoreState {
    TaskSource* source = nullptr;
    Task* current = nullptr;
    /// TaskDispatched has fired for `current`. Dispatch is lazy: it is
    /// deferred until the task is first scheduled inside the horizon, so
    /// dispatch side effects (CLOS re-association charges) land in the
    /// interval the task actually starts in.
    bool dispatched = false;
  };

  /// Pulls a task for every idle core whose source has one ready, in
  /// ascending core-id order (the order the per-step scan used to poll in),
  /// and enqueues the core at max(clock, ready_time).
  void PollIdleCores();

  // (clock, core): std::greater turns the queue into a min-heap whose
  // ordering — smallest clock first, ties to the lowest core id — is
  // exactly the executor's scheduling rule.
  using ReadyEntry = std::pair<uint64_t, uint32_t>;
  std::priority_queue<ReadyEntry, std::vector<ReadyEntry>,
                      std::greater<ReadyEntry>>
      ready_;

  Machine* machine_;
  std::vector<CoreState> cores_;
};

}  // namespace catdb::sim

#endif  // CATDB_SIM_EXECUTOR_H_
