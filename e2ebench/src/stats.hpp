// Summary statistics over the benchmark's own samples.
//
// Quantiles are taken only from samples the harness timed itself. The
// daemon's and coordinator's METRICS tracks use fixed-width bins (a
// `job_ms` p50 of 251 ms next to a 17.7 ms mean), so from METRICS the
// harness reads counts, sums, min and max and nothing else.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

namespace e2e {

/// Linear interpolation between closest ranks (numpy's default and
/// Python's statistics.quantiles(method="inclusive")). q in [0, 1];
/// 0 for an empty span.
[[nodiscard]] double quantile(std::span<const double> samples, double q);

/// Samples strictly beyond the q-quantile's rank: floor(n * (1 - q)).
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double q);

/// A tail quantile is reported only when at least this many samples lie
/// beyond it; below that it is one or two outliers, not a percentile.
inline constexpr std::size_t kMinTailSamples = 10;

/// quantile(samples, q) when at least kMinTailSamples samples lie beyond
/// it, nullopt otherwise (so p90 needs 100 samples, p50 needs 20).
[[nodiscard]] std::optional<double> tail_quantile(
    std::span<const double> samples, double q);

[[nodiscard]] double median(std::span<const double> samples);
[[nodiscard]] double mean(std::span<const double> samples);

/// A closed time interval [begin, end] in ms.
struct Interval {
  double begin = 0.0;
  double end = 0.0;
};

/// Length of the union of `intervals` (overlaps counted once).
[[nodiscard]] double union_length(std::vector<Interval> intervals);

/// Self time of a span: its length minus the union of its children's
/// intervals, each clipped to the span. Children that overlap each other
/// (root-parallel work on other threads) are counted once.
[[nodiscard]] double self_time(const Interval& span,
                               std::span<const Interval> children);

}  // namespace e2e
