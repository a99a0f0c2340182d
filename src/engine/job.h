#ifndef CATDB_ENGINE_JOB_H_
#define CATDB_ENGINE_JOB_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "engine/cache_usage.h"
#include "sim/executor.h"
#include "sim/machine.h"
#include "simcache/cache_geometry.h"

namespace catdb::engine {

/// A job encapsulates (at most) one operator's work unit, executed by a job
/// worker from the thread pool — the unit the paper attaches cache-usage
/// annotations to ("we implement cache partitioning for jobs to enable cache
/// optimizations per operator", Section V-C).
///
/// Jobs are resumable: Step() processes a bounded chunk so the discrete-event
/// executor can interleave concurrent queries at fine granularity.
class Job : public sim::Task {
 public:
  Job(std::string name, CacheUsage cuid)
      : name_(std::move(name)), cuid_(cuid) {}

  const std::string& name() const { return name_; }
  std::string_view label() const override { return name_; }
  CacheUsage cache_usage() const { return cuid_; }
  /// Overrides the operator's intrinsic annotation. Used by the plan layer
  /// when a plan node carries an explicit CUID; must be called before the
  /// job is handed to the executor (the policy reads it at dispatch).
  void set_cache_usage(CacheUsage cuid) { cuid_ = cuid; }

  /// For kAdaptive jobs: the size of the operator's frequently accessed
  /// structure (the join's bit vector). The partitioning policy compares it
  /// to the LLC size to decide between the polluting and the shared mask.
  uint64_t adaptive_working_set() const { return adaptive_working_set_; }
  void set_adaptive_working_set(uint64_t bytes) {
    adaptive_working_set_ = bytes;
  }

  bool finished() const { return finished_; }
  void set_finished() { finished_ = true; }

 protected:
  /// Reports `units` of completed work (typically rows) for fractional
  /// iteration accounting. Routed through the context so the executor
  /// credits it once the Step returns; read it back via
  /// sim::Task::work_done().
  void AddWork(sim::ExecContext& ctx, uint64_t units) { ctx.AddWork(units); }

  /// Touches `n` lines of the executing worker's hot scratch region (stack
  /// frames, operator state). Called once per chunk by operators; this
  /// re-used working set is what a too-narrow CAT mask (0x1) lets streaming
  /// data thrash. The region is line-aligned by construction, so the touches
  /// batch into at most two runs (one wraparound) instead of a per-line loop.
  void TouchScratch(sim::ExecContext& ctx, uint32_t n) {
    const uint64_t base = ctx.machine().CoreScratchVbase(ctx.core());
    while (n > 0) {
      const uint32_t run =
          std::min(n, sim::Machine::kScratchLines - scratch_cursor_);
      ctx.ReadRun(base + scratch_cursor_ * simcache::kLineSize, run);
      scratch_cursor_ = (scratch_cursor_ + run) % sim::Machine::kScratchLines;
      n -= run;
    }
  }

 private:
  std::string name_;
  CacheUsage cuid_;
  uint64_t adaptive_working_set_ = 0;
  uint32_t scratch_cursor_ = 0;
  bool finished_ = false;
};

}  // namespace catdb::engine

#endif  // CATDB_ENGINE_JOB_H_
