// Order statistics behind every perfbench metric.
//
// Wall-clock means and high tails of this simulator move 10-25 % between
// identical runs on a shared host; medians and the fastest decile move far
// less (README.md, "Noise"). So timings are reported as nearest-rank
// quantiles, and throughput as work per window divided by the 10th-percentile
// window duration — the rate the host sustains when it is not interrupted.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace perfbench {

/// Nearest-rank index of quantile `q` (0 < q <= 1) among `n` sorted
/// samples: the smallest index i with (i + 1) / n >= q. The epsilon keeps
/// q * n from rounding up past an exact rank (0.1 * 30 is 3.0000000000000004
/// in binary64, which must still select rank 3).
inline std::size_t quantile_index(std::size_t n, double q) {
  if (n == 0) throw std::invalid_argument("quantile of an empty sample");
  if (!(q > 0.0 && q <= 1.0)) throw std::invalid_argument("q outside (0, 1]");
  const double rank = std::ceil(q * static_cast<double>(n) - 1e-9);
  const std::size_t r = rank < 1.0 ? 1 : static_cast<std::size_t>(rank);
  return std::min(r, n) - 1;
}

/// Samples strictly beyond the quantile-`q` sample: the tail a percentile
/// rests on. A tail percentile is worth reporting only with at least ten.
inline std::size_t beyond_count(std::size_t n, double q) {
  return n - 1 - quantile_index(n, q);
}

/// Nearest-rank quantile of an unsorted sample (taken by value, sorted here).
inline double quantile(std::vector<double> v, double q) {
  const std::size_t i = quantile_index(v.size(), q);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(i),
                   v.end());
  return v[i];
}

inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// Mean of the samples between the `trim` and 1 - `trim` fractions of the
/// sorted sample: an additive per-call cost that ignores interrupts and
/// cold-cache outliers, and does not round to the clock's resolution the way
/// a median of integer-nanosecond durations does.
inline double trimmed_mean(std::vector<double> v, double trim) {
  if (v.empty()) throw std::invalid_argument("mean of an empty sample");
  std::sort(v.begin(), v.end());
  const auto cut =
      static_cast<std::size_t>(trim * static_cast<double>(v.size()));
  const std::size_t keep = v.size() - 2 * std::min(cut, (v.size() - 1) / 2);
  const std::size_t first = (v.size() - keep) / 2;
  double sum = 0.0;
  for (std::size_t i = first; i < first + keep; ++i) sum += v[i];
  return sum / static_cast<double>(keep);
}

/// Throughput of fixed-size windows: `units_per_window` divided by the
/// 10th-percentile window duration (seconds).
inline double window_rate(double units_per_window,
                          const std::vector<double>& window_s) {
  return units_per_window / quantile(window_s, 0.10);
}

}  // namespace perfbench
