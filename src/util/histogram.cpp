#include "util/histogram.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace syn::util {

namespace {
double sorted_percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}
}  // namespace

Summary summarize(std::span<const double> values) {
  Summary s;
  s.count = values.size();
  if (values.empty()) return s;
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  double sum = 0.0;
  for (double v : sorted) sum += v;
  s.mean = sum / static_cast<double>(sorted.size());
  double var = 0.0;
  for (double v : sorted) var += (v - s.mean) * (v - s.mean);
  s.stddev = sorted.size() > 1
                 ? std::sqrt(var / static_cast<double>(sorted.size() - 1))
                 : 0.0;
  s.min = sorted.front();
  s.max = sorted.back();
  s.p25 = sorted_percentile(sorted, 0.25);
  s.median = sorted_percentile(sorted, 0.5);
  s.p75 = sorted_percentile(sorted, 0.75);
  return s;
}

double percentile(std::span<const double> values, double q) {
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  return sorted_percentile(sorted, std::clamp(q, 0.0, 1.0));
}

std::vector<double> percentiles(std::span<const double> values,
                                std::span<const double> qs) {
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  std::vector<double> out;
  out.reserve(qs.size());
  for (const double q : qs) {
    out.push_back(sorted_percentile(sorted, std::clamp(q, 0.0, 1.0)));
  }
  return out;
}

double histogram_quantile(const Histogram& hist, double q) {
  if (hist.total() == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(hist.total());
  double cumulative = 0.0;
  for (std::size_t b = 0; b < hist.bins(); ++b) {
    const auto in_bin = static_cast<double>(hist.count(b));
    if (cumulative + in_bin >= target && in_bin > 0.0) {
      const double frac = (target - cumulative) / in_bin;
      return hist.bin_lo(b) + frac * (hist.bin_hi(b) - hist.bin_lo(b));
    }
    cumulative += in_bin;
  }
  return hist.bin_hi(hist.bins() - 1);
}

std::vector<double> histogram_quantiles(const Histogram& hist,
                                        std::span<const double> qs) {
  std::vector<double> out(qs.size(), 0.0);
  if (hist.total() == 0) return out;
  // The first bin whose cumulative count crosses the target is monotone
  // in q, so answering qs in ascending order lets one walk resume where
  // the previous stopped — identical per-q results to
  // histogram_quantile() (same clamp, crossing test, interpolation).
  std::vector<std::size_t> order(qs.size());
  for (std::size_t i = 0; i < qs.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&qs](std::size_t a, std::size_t b) { return qs[a] < qs[b]; });
  std::size_t bin = 0;
  double cumulative = 0.0;
  for (const std::size_t i : order) {
    const double q = std::clamp(qs[i], 0.0, 1.0);
    const double target = q * static_cast<double>(hist.total());
    while (bin < hist.bins()) {
      const auto in_bin = static_cast<double>(hist.count(bin));
      if (cumulative + in_bin >= target && in_bin > 0.0) break;
      cumulative += in_bin;
      ++bin;
    }
    if (bin == hist.bins()) {
      out[i] = hist.bin_hi(hist.bins() - 1);
    } else {
      const auto in_bin = static_cast<double>(hist.count(bin));
      const double frac = (target - cumulative) / in_bin;
      out[i] = hist.bin_lo(bin) + frac * (hist.bin_hi(bin) - hist.bin_lo(bin));
    }
  }
  return out;
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0) {
  if (bins == 0) throw std::invalid_argument("Histogram needs >= 1 bin");
  if (!(hi > lo)) throw std::invalid_argument("Histogram needs hi > lo");
}

void Histogram::add(double value) {
  if (std::isnan(value)) {
    // NaN carries no position, so no bin is right for it: drop it from
    // the bins and total() but keep it visible via nan_count().
    ++nan_count_;
    return;
  }
  const double t = (value - lo_) / (hi_ - lo_);
  // Clamp in floating point BEFORE the integer cast: for values far
  // outside [lo, hi] (a wild 1e300 latency sample) t * bins overflows the
  // integer's range and the cast is UB. After the clamp the cast operand
  // is always in [0, bins - 1]. ±inf clamps into the edge bins too.
  const double scaled =
      std::clamp(t * static_cast<double>(counts_.size()), 0.0,
                 static_cast<double>(counts_.size() - 1));
  ++counts_[static_cast<std::size_t>(scaled)];
  ++total_;
}

void Histogram::add_all(std::span<const double> values) {
  for (double v : values) add(v);
}

double Histogram::bin_lo(std::size_t bin) const {
  return lo_ + (hi_ - lo_) * static_cast<double>(bin) /
                   static_cast<double>(counts_.size());
}

double Histogram::bin_hi(std::size_t bin) const { return bin_lo(bin + 1); }

std::string Histogram::render(std::size_t max_bar_width) const {
  std::size_t peak = 1;
  for (auto c : counts_) peak = std::max(peak, c);
  std::string out;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "  [%8.3f, %8.3f) ", bin_lo(b), bin_hi(b));
    out += buf;
    const auto width = counts_[b] * max_bar_width / peak;
    out += std::string(width, '#');
    out += " " + std::to_string(counts_[b]) + "\n";
  }
  return out;
}

double wasserstein1(std::span<const double> a, std::span<const double> b) {
  if (a.empty() || b.empty()) return 0.0;
  std::vector<double> sa(a.begin(), a.end()), sb(b.begin(), b.end());
  std::sort(sa.begin(), sa.end());
  std::sort(sb.begin(), sb.end());
  // Integrate |F_a^{-1}(q) - F_b^{-1}(q)| over q in [0,1) on the merged
  // quantile grid so unequal sample sizes are handled exactly.
  double dist = 0.0;
  // Step through the common refinement of the two quantile partitions.
  std::size_t ia = 0, ib = 0;
  double q = 0.0;
  while (ia < sa.size() && ib < sb.size()) {
    const double qa = static_cast<double>(ia + 1) / static_cast<double>(sa.size());
    const double qb = static_cast<double>(ib + 1) / static_cast<double>(sb.size());
    const double qn = std::min(qa, qb);
    dist += (qn - q) * std::abs(sa[ia] - sb[ib]);
    q = qn;
    if (qa <= qn) ++ia;
    if (qb <= qn) ++ib;
  }
  return dist;
}

}  // namespace syn::util
