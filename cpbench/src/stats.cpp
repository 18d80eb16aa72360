#include "stats.h"

#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>

namespace cpbench {

double quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double median(std::vector<double> values) { return quantile(values, 0.5); }

double chunked_quantile(const std::vector<double>& values, double q, std::size_t min_chunk,
                        std::size_t max_chunks) {
  const std::size_t n = values.size();
  const std::size_t chunks = std::clamp<std::size_t>(n / std::max<std::size_t>(min_chunk, 1), 1,
                                                     std::max<std::size_t>(max_chunks, 1));
  std::vector<double> per_chunk;
  for (std::size_t c = 0; c < chunks; ++c) {
    std::vector<double> part(values.begin() + static_cast<std::ptrdiff_t>(c * n / chunks),
                             values.begin() + static_cast<std::ptrdiff_t>((c + 1) * n / chunks));
    per_chunk.push_back(quantile(part, q));
  }
  return median(per_chunk);
}

LatencySummary summarize(std::vector<double> values) {
  LatencySummary s;
  s.n = values.size();
  s.p50 = quantile(values, 0.5);
  s.p99 = quantile(values, 0.99);
  return s;
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  if (!std::isalnum(static_cast<unsigned char>(name.front()))) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '.' || c == '-';
  });
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

}  // namespace cpbench
