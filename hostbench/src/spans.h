#ifndef HOSTBENCH_SPANS_H_
#define HOSTBENCH_SPANS_H_

// Spans of the traced run and the per-layer self-time arithmetic over them.
//
// A span brackets one call into a layer, made from the benchmark's own code.
// Work done in very many short calls (Step, TaskSource callbacks) is not
// recorded call by call: its time is summed and attached to the enclosing
// span as a "sum". A span's self time is its duration times the host threads
// it occupies, minus its children's thread time and its sums; every sum is
// booked to its own row. Self times therefore add up to the root span's
// thread time exactly, and the root span's own self time — benchmark glue
// between the calls the benchmark brackets — is the "unattributed" row.

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace hostbench {

struct Span {
  std::string name;
  std::string row;  // self-time table row the span's self time is booked to
  int parent = -1;  // index of the enclosing span; -1 = root
  int run = 0;      // one id per workload run (pass) of the process
  double start = 0;
  double end = 0;
  /// Host threads the span holds: serial phases of a parallel run hold all
  /// of them, a sweep cell holds one.
  unsigned threads = 1;
  std::vector<std::pair<std::string, double>> sums;  // row -> seconds
};

/// Collects spans in memory; safe to use from sweep worker threads.
class SpanRecorder {
 public:
  SpanRecorder();

  /// Opens a span starting now and returns its id.
  int Begin(const std::string& name, const std::string& row, int parent,
            int run, unsigned threads = 1);
  void End(int id);
  /// Attaches `seconds` of summed per-call work to span `id`.
  void AddSum(int id, const std::string& row, double seconds);

  double Duration(int id) const;
  std::vector<Span> Snapshot() const;
  /// {"spans": [{"id", "name", "row", "parent", "run", "start_s", "end_s",
  /// "threads", "sums"}]} with times relative to the recorder's creation.
  std::string ToJson() const;

 private:
  double epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// Where new spans go. A null recorder records nothing.
struct TraceCtx {
  SpanRecorder* rec = nullptr;
  int parent = -1;
  int run = 0;
};

/// Span open for the lifetime of the object.
class ScopedSpan {
 public:
  ScopedSpan(const TraceCtx& ctx, const std::string& name,
             const std::string& row, unsigned threads = 1)
      : ctx_(ctx),
        id_(ctx.rec ? ctx.rec->Begin(name, row, ctx.parent, ctx.run, threads)
                    : -1) {}
  ~ScopedSpan() {
    if (ctx_.rec) ctx_.rec->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }
  /// Context for spans nested in this one.
  TraceCtx child() const { return {ctx_.rec, id_, ctx_.run}; }

 private:
  TraceCtx ctx_;
  int id_;
};

struct SelfTimeRow {
  std::string row;
  double seconds = 0;  // thread-seconds
};

/// Self time per row over the subtree of span `root` (rows in first-seen
/// order, root's row first). The rows sum to root duration x root threads.
std::vector<SelfTimeRow> SelfTimes(const std::vector<Span>& spans, int root);

/// Prints the rows with their shares of `total` thread-seconds.
void PrintSelfTimes(const std::vector<SelfTimeRow>& rows, double total);

}  // namespace hostbench

#endif  // HOSTBENCH_SPANS_H_
