#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace e2e {

double quantile(std::span<const double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::vector<double> sorted(samples.begin(), samples.end());
  std::sort(sorted.begin(), sorted.end());
  const double rank = std::clamp(q, 0.0, 1.0) *
                      static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

std::size_t samples_beyond(std::size_t n, double q) {
  // The epsilon keeps 100 * (1 - 0.9) from flooring to 9.
  return static_cast<std::size_t>(
      std::floor(static_cast<double>(n) * (1.0 - q) + 1e-9));
}

std::optional<double> tail_quantile(std::span<const double> samples,
                                    double q) {
  if (samples_beyond(samples.size(), q) < kMinTailSamples) return std::nullopt;
  return quantile(samples, q);
}

double median(std::span<const double> samples) {
  return quantile(samples, 0.5);
}

double mean(std::span<const double> samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

double union_length(std::vector<Interval> intervals) {
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) {
              return a.begin < b.begin;
            });
  double total = 0.0;
  bool open = false;
  Interval run;
  for (const Interval& iv : intervals) {
    if (iv.end <= iv.begin) continue;
    if (open && iv.begin <= run.end) {
      run.end = std::max(run.end, iv.end);
      continue;
    }
    if (open) total += run.end - run.begin;
    run = iv;
    open = true;
  }
  if (open) total += run.end - run.begin;
  return total;
}

double self_time(const Interval& span, std::span<const Interval> children) {
  std::vector<Interval> clipped;
  clipped.reserve(children.size());
  for (const Interval& c : children) {
    clipped.push_back({std::max(c.begin, span.begin),
                       std::min(c.end, span.end)});
  }
  return std::max(0.0, (span.end - span.begin) - union_length(clipped));
}

}  // namespace e2e
