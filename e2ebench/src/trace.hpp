// Span recorder for the traced runs.
//
// Spans are recorded by the harness around calls into the library's
// public functions (DiffusionModel::sample_batch, repair_to_valid,
// optimize_registers, the MCTS reward, to_verilog, synthesize_stats, the
// sink). Nothing inside the library is instrumented. Each thread appends
// to its own buffer; summarize() folds them into per-name totals and self
// times (a span minus the union of the spans nested in it on its thread).
#pragma once

#include <chrono>
#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "stats.hpp"

namespace e2e {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

class Tracer {
 public:
  struct Totals {
    double total_ms = 0.0;
    double self_ms = 0.0;
    std::size_t count = 0;
  };

  Tracer();

  [[nodiscard]] double now_ms() const {
    return ms_between(epoch_, Clock::now());
  }
  /// Appends [begin_ms, end_ms] under `name` (a string literal) to the
  /// calling thread's buffer.
  void record(const char* name, double begin_ms, double end_ms);

  /// Per span name: summed length, summed self time, span count.
  [[nodiscard]] std::map<std::string, Totals> summarize() const;

 private:
  struct Span {
    const char* name;
    Interval at;
  };
  std::vector<Span>& buffer();

  Clock::time_point epoch_;
  std::size_t id_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<std::vector<Span>>> buffers_;
};

/// RAII span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), name_(name),
        begin_(tracer ? tracer->now_ms() : 0.0) {}
  ~ScopedSpan() {
    if (tracer_) tracer_->record(name_, begin_, tracer_->now_ms());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  const char* name_;
  double begin_;
};

}  // namespace e2e
