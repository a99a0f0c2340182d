#include "sim/executor.h"

#include "common/check.h"

namespace catdb::sim {

Executor::Executor(Machine* machine) : machine_(machine) {
  CATDB_CHECK(machine_ != nullptr);
  cores_.resize(machine_->num_cores());
}

void Executor::Attach(uint32_t core, TaskSource* source) {
  CATDB_CHECK(core < cores_.size());
  cores_[core].source = source;
}

void Executor::PollIdleCores() {
  for (uint32_t c = 0; c < cores_.size(); ++c) {
    CoreState& cs = cores_[c];
    if (cs.current != nullptr || cs.source == nullptr) continue;
    Task* task = cs.source->NextTask(c);
    if (task == nullptr) continue;
    cs.current = task;
    cs.dispatched = false;
    // Enqueue at the cycle the task could start; the clock itself is not
    // advanced (and the dispatch hook not fired) until the task is actually
    // scheduled inside the horizon.
    const uint64_t clock = machine_->clock(c);
    const uint64_t start = clock > task->ready_time() ? clock
                                                      : task->ready_time();
    ready_.emplace(start, c);
  }
}

void Executor::RunUntil(uint64_t horizon) {
  // Invariant: every core with a current task has exactly one heap entry,
  // keyed on the cycle of its next Step (including pending dispatch
  // charges once dispatched).
  PollIdleCores();
  for (;;) {
    if (ready_.empty()) return;  // everything idle
    const auto [key, core] = ready_.top();
    if (key >= horizon) return;  // nothing runnable before the horizon
    ready_.pop();

    CoreState& cs = cores_[core];
    CATDB_DCHECK(cs.current != nullptr);
    if (!cs.dispatched) {
      machine_->AdvanceClockTo(core, cs.current->ready_time());
      cs.source->TaskDispatched(cs.current, core);
      cs.dispatched = true;
      if (obs::EventTrace* trace = machine_->trace()) {
        obs::TraceEvent ev;
        // Post-dispatch clock: re-association charges are part of the span.
        ev.cycle = machine_->clock(core);
        ev.kind = obs::EventKind::kTaskDispatch;
        ev.core = core;
        ev.label = std::string(cs.current->label());
        trace->Record(std::move(ev));
      }
      const uint64_t clock = machine_->clock(core);
      if (clock != key) {
        // Dispatch charges (CLOS re-association) moved the clock; re-sort.
        ready_.emplace(clock, core);
        continue;
      }
    }

    // Step the core until it stops being the earliest. Re-checking against
    // the heap top instead of re-pushing every step keeps the common case —
    // the same core staying ahead — free of heap traffic.
    for (;;) {
      const bool more = StepTask(cs.current, core);
      const uint64_t clock = machine_->clock(core);
      if (!more) {
        Task* done = cs.current;
        cs.current = nullptr;
        cs.dispatched = false;
        if (obs::EventTrace* trace = machine_->trace()) {
          obs::TraceEvent ev;
          ev.cycle = clock;
          ev.kind = obs::EventKind::kTaskFinish;
          ev.core = core;
          ev.label = std::string(done->label());
          trace->Record(std::move(ev));
        }
        cs.source->TaskFinished(done, core, clock);
        // A finish is the only event that can unblock other sources (phase
        // barriers open, streams advance); hand out the released work now.
        PollIdleCores();
        break;
      }
      if (clock >= horizon) {
        ready_.emplace(clock, core);
        break;
      }
      if (!ready_.empty() && ReadyEntry(clock, core) > ready_.top()) {
        ready_.emplace(clock, core);
        break;
      }
    }
  }
}

bool Executor::StepTask(Task* task, uint32_t core) {
  ExecContext ctx(machine_, core);
  const bool more = task->Step(ctx);
  task->CreditWork(ctx.TakeWorkDelta());
  return more;
}

uint64_t Executor::RunUntilIdle() {
  RunUntil(~uint64_t{0});
  return machine_->MaxClock();
}

}  // namespace catdb::sim
