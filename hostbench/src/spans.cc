#include "spans.h"

#include <cstdio>
#include <map>

#include "common/check.h"
#include "obs/json_value.h"
#include "timing.h"

namespace hostbench {

SpanRecorder::SpanRecorder() : epoch_(WallNow()) {}

int SpanRecorder::Begin(const std::string& name, const std::string& row,
                        int parent, int run, unsigned threads) {
  Span s;
  s.name = name;
  s.row = row;
  s.parent = parent;
  s.run = run;
  s.threads = threads;
  s.start = WallNow() - epoch_;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size()) - 1;
}

void SpanRecorder::End(int id) {
  const double now = WallNow() - epoch_;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.at(id).end = now;
}

void SpanRecorder::AddSum(int id, const std::string& row, double seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.at(id).sums.emplace_back(row, seconds);
}

double SpanRecorder::Duration(int id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Span& s = spans_.at(id);
  return s.end - s.start;
}

std::vector<Span> SpanRecorder::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::string SpanRecorder::ToJson() const {
  using catdb::obs::JsonValue;
  std::vector<JsonValue> items;
  const std::vector<Span> spans = Snapshot();
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::vector<std::pair<std::string, JsonValue>> sums;
    for (const auto& [row, seconds] : s.sums) {
      sums.emplace_back(row, JsonValue::Double(seconds));
    }
    items.push_back(JsonValue::Object({
        {"id", JsonValue::Int(static_cast<uint64_t>(i))},
        {"name", JsonValue::Str(s.name)},
        {"row", JsonValue::Str(s.row)},
        {"parent", JsonValue::Int(static_cast<int64_t>(s.parent))},
        {"run", JsonValue::Int(static_cast<int64_t>(s.run))},
        {"start_s", JsonValue::Double(s.start)},
        {"end_s", JsonValue::Double(s.end)},
        {"threads", JsonValue::Int(static_cast<uint64_t>(s.threads))},
        {"sums", JsonValue::Object(std::move(sums))},
    }));
  }
  return catdb::obs::JsonPretty(
      JsonValue::Object({{"spans", JsonValue::Array(std::move(items))}}));
}

std::vector<SelfTimeRow> SelfTimes(const std::vector<Span>& spans, int root) {
  CATDB_CHECK(root >= 0 && static_cast<size_t>(root) < spans.size());
  // Spans are recorded parent-first, so one forward pass finds the subtree.
  std::vector<bool> in_tree(spans.size(), false);
  in_tree[root] = true;
  for (size_t i = root + 1; i < spans.size(); ++i) {
    const int p = spans[i].parent;
    in_tree[i] = p >= 0 && in_tree[p];
  }
  std::vector<double> self(spans.size(), 0);
  for (size_t i = root; i < spans.size(); ++i) {
    if (!in_tree[i]) continue;
    const Span& s = spans[i];
    const double occupied = (s.end - s.start) * s.threads;
    self[i] += occupied;
    for (const auto& [row, seconds] : s.sums) self[i] -= seconds;
    if (static_cast<int>(i) != root) self[s.parent] -= occupied;
  }

  std::vector<SelfTimeRow> rows;
  std::map<std::string, size_t> index;
  auto book = [&](const std::string& row, double seconds) {
    auto [it, inserted] = index.emplace(row, rows.size());
    if (inserted) rows.push_back({row, 0});
    rows[it->second].seconds += seconds;
  };
  for (size_t i = root; i < spans.size(); ++i) {
    if (!in_tree[i]) continue;
    book(spans[i].row, self[i]);
    for (const auto& [row, seconds] : spans[i].sums) book(row, seconds);
  }
  return rows;
}

void PrintSelfTimes(const std::vector<SelfTimeRow>& rows, double total) {
  std::printf("  %-34s %12s %8s\n", "layer (self time)", "thread-s", "share");
  for (const SelfTimeRow& r : rows) {
    std::printf("  %-34s %12.6f %7.2f%%\n", r.row.c_str(), r.seconds,
                total > 0 ? 100.0 * r.seconds / total : 0.0);
  }
  std::printf("  %-34s %12.6f %7.2f%%\n", "total", total, 100.0);
}

}  // namespace hostbench
