// In-memory span recorder for the traced benchmark run.
//
// The benchmark wraps each call it makes into a layer's public functions in
// a span (name, start, end, parent, op id). Spans stay in memory and are
// written out once the run ends. A span's self time is its duration minus
// the part of its interval that its child spans cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace cpbench {

struct Span {
  std::uint32_t name = 0;    ///< index into SpanRecorder::names()
  std::uint32_t parent = 0;  ///< index of the parent span, kNoParent at a root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t op = 0;      ///< operation id (0 = not tied to one op)
};

struct SpanTotals {
  std::uint64_t count = 0;
  double total_ns = 0;
  double self_ns = 0;
};

class SpanRecorder {
 public:
  static constexpr std::uint32_t kNoParent = 0xffffffffu;

  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}
  [[nodiscard]] bool enabled() const { return enabled_; }

  std::uint32_t intern(std::string_view name);
  /// Opens a span under the innermost open span; returns its index.
  std::uint32_t open(std::uint32_t name, std::uint64_t op = 0);
  void close(std::uint32_t index);
  /// Appends a finished span (synthetic trees in tests).
  std::uint32_t add(std::uint32_t name, std::uint32_t parent, std::int64_t start_ns,
                    std::int64_t end_ns, std::uint64_t op = 0);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] const std::vector<std::string>& names() const { return names_; }
  /// Self time of every span, in span order.
  [[nodiscard]] std::vector<double> self_ns() const;
  /// Count, total and self time per span name.
  [[nodiscard]] std::map<std::string, SpanTotals> totals() const;
  /// Durations (ns) of every span with this name, in record order.
  [[nodiscard]] std::vector<double> durations(std::string_view name) const;
  /// CSV: name,start_ns,end_ns,parent,op (parent -1 at a root).
  void write_csv(std::ostream& out) const;

  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

 private:
  bool enabled_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;  ///< stack of open span indices
};

/// RAII span; a no-op when the recorder is disabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, std::uint32_t name, std::uint64_t op = 0)
      : recorder_(recorder),
        index_(recorder.enabled() ? recorder.open(name, op) : SpanRecorder::kNoParent) {}
  ~ScopedSpan() {
    if (index_ != SpanRecorder::kNoParent) recorder_.close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& recorder_;
  std::uint32_t index_;
};

}  // namespace cpbench
