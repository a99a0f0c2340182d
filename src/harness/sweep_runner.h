#ifndef CATDB_HARNESS_SWEEP_RUNNER_H_
#define CATDB_HARNESS_SWEEP_RUNNER_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "obs/report.h"
#include "obs/trace.h"
#include "sim/machine.h"

namespace catdb::harness {

/// Recording surface handed to one sweep cell while its body executes on a
/// pool worker. A *cell* is a fully self-contained unit of simulation work:
/// it builds its own sim::Machine (and datasets, queries, RNG state — all
/// seeded by the cell description, nothing shared with other cells), runs,
/// and records its output into a private report shard. Because a cell
/// depends only on its description, its results are identical no matter
/// which host thread runs it or in what order cells complete.
class SweepCell {
 public:
  size_t index() const { return index_; }
  const std::string& name() const { return name_; }

  /// Builds this cell's private simulated machine (event tracing enabled
  /// when the sweep was asked for a trace). Owned by the cell: it stays
  /// alive after the body returns until its trace has been harvested, then
  /// it is freed — so a wide sweep does not hold every cell's hierarchy in
  /// memory at once.
  sim::Machine& MakeMachine(
      const sim::MachineConfig& config = sim::MachineConfig{});

  /// This cell's report shard. After the sweep, shards are concatenated
  /// into SweepRunner::report() in cell-index order, so the merged report
  /// is byte-identical regardless of thread count or completion order.
  obs::RunReportWriter& report() { return shard_; }

  /// True when the sweep was asked for an event trace (--trace-out).
  bool tracing() const { return tracing_; }

 private:
  friend class SweepRunner;

  SweepCell(size_t index, std::string name, bool tracing,
            const std::string& benchmark)
      : index_(index),
        name_(std::move(name)),
        tracing_(tracing),
        shard_(benchmark) {}

  size_t index_;
  std::string name_;
  bool tracing_;
  obs::RunReportWriter shard_;
  std::vector<std::unique_ptr<sim::Machine>> machines_;
  std::vector<obs::TraceEvent> trace_events_;  // harvested after the body
  std::function<void(SweepCell&)> body_;
};

/// Fans independent simulation cells out across a ThreadPool and gathers
/// their outputs by cell index. The contract: given the same cell
/// descriptions, report() and trace_events() are byte-identical for every
/// `jobs` value — parallelism across simulations never perturbs the
/// simulations themselves (each cell owns its machine and RNG state) nor
/// the output order (gathering is by index, not completion order).
class SweepRunner {
 public:
  struct Options {
    /// Host threads; 0 selects ThreadPool::DefaultJobs() (CATDB_JOBS env
    /// override, else hardware concurrency).
    unsigned jobs = 0;
    /// Enable per-cell event tracing (cells' machines record into their
    /// own buffers; trace_events() concatenates them by cell index).
    bool tracing = false;
  };

  explicit SweepRunner(std::string benchmark, const Options& options);
  explicit SweepRunner(std::string benchmark)
      : SweepRunner(std::move(benchmark), Options{}) {}

  SweepRunner(SweepRunner&&) = default;
  SweepRunner& operator=(SweepRunner&&) = delete;

  /// Registers a cell; bodies run concurrently during Run(). Returns the
  /// cell index (also its rank in the merged outputs).
  size_t AddCell(std::string name, std::function<void(SweepCell&)> body);

  /// Executes every cell across min(jobs(), num_cells()) host threads, then
  /// merges the per-cell report shards and trace buffers in cell-index
  /// order.
  /// Rethrows the first cell failure (remaining cells still complete).
  void Run();

  unsigned jobs() const { return jobs_; }
  size_t num_cells() const { return cells_.size(); }
  bool tracing() const { return tracing_; }

  /// The merged report (valid after Run()); callers may append further
  /// entries computed from gathered results before writing it out.
  obs::RunReportWriter& report();

  /// All cells' trace events, concatenated in cell-index order (valid
  /// after Run(); empty when tracing was off).
  const std::vector<obs::TraceEvent>& trace_events() const;

 private:
  std::string benchmark_;
  unsigned jobs_;
  bool tracing_;
  bool ran_ = false;
  std::vector<std::unique_ptr<SweepCell>> cells_;
  obs::RunReportWriter report_;
  std::vector<obs::TraceEvent> trace_events_;
};

}  // namespace catdb::harness

#endif  // CATDB_HARNESS_SWEEP_RUNNER_H_
