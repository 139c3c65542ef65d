// Shared helpers for the wire-level benchmark: clocks, exact-percentile
// sample sets, resident-set probes and the metric map printed at the end.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}
inline double seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
inline std::int64_t ns_since_epoch(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t.time_since_epoch()).count();
}

/// Exact-percentile sample set (every sample kept, sorted on demand).
class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  void append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  std::size_t size() const noexcept { return values_.size(); }
  bool empty() const noexcept { return values_.empty(); }

  /// Linear-interpolated p-th quantile (p in [0, 1]); 0 when empty.
  double pct(double p) {
    if (values_.empty()) return 0;
    std::sort(values_.begin(), values_.end());
    const double rank = p * static_cast<double>(values_.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, values_.size() - 1);
    return values_[lo] + (rank - static_cast<double>(lo)) * (values_[hi] - values_[lo]);
  }
  double mean() const {
    if (values_.empty()) return 0;
    return std::accumulate(values_.begin(), values_.end(), 0.0) /
           static_cast<double>(values_.size());
  }

 private:
  std::vector<double> values_;
};

/// Current resident set in MiB, from /proc/self/statm.
double rss_mb();

/// Median of a non-empty list.
inline double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// name -> (value, unit), printed as the result line's "metrics" object.
using MetricMap = std::map<std::string, std::pair<double, std::string>>;

inline double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace perfbench
