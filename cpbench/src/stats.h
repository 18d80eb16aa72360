// Small helpers: latency summaries, the outcome digest, and the metric
// records the benchmark prints.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace cpbench {

/// Nearest-rank quantile of `values` (sorted in place); 0 when empty.
double quantile(std::vector<double>& values, double q);
double median(std::vector<double> values);

/// The q-quantile of each of up to `max_chunks` consecutive chunks of
/// `values` (each at least `min_chunk` long, so a p99 keeps ten samples
/// beyond it), and the median of those: a burst of outside interference
/// during one part of a run moves it less than one quantile over all.
double chunked_quantile(const std::vector<double>& values, double q,
                        std::size_t min_chunk = 1000, std::size_t max_chunks = 5);

/// p50 and p99 of one operation's latencies. p99 is reported only when at
/// least ten samples lie beyond it (n >= 1000).
struct LatencySummary {
  std::size_t n = 0;
  double p50 = 0;
  double p99 = 0;
  [[nodiscard]] bool p99_supported() const { return n >= 1000; }
};
LatencySummary summarize(std::vector<double> values);

/// FNV-1a over operation outcomes: equal digests mean the control plane
/// answered the same operations the same way.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// True iff `name` is a valid metric name: [A-Za-z0-9_.-]+, at most 64
/// characters, starting with a letter or digit.
bool valid_metric_name(std::string_view name);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Process peak resident set size in MB.
double peak_rss_mb();

}  // namespace cpbench
