// Shared types of the e2ebench workloads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "trace.hpp"

namespace e2e {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory holding syn_daemon and syn_coordinator.
  std::filesystem::path bin_dir;
  /// Scratch directory of this run (the harness chdirs into it, so
  /// sockets get short relative paths); emptied by the caller.
  std::filesystem::path work_dir;
  /// Load-generator width: nproc.
  int threads = 1;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::string error;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable lines printed ahead of the result.
  std::vector<std::string> notes;

  void set(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void fail(const std::string& why) {
    if (correct) error = why;
    correct = false;
  }
};

/// Seeds of timed repetitions: each repetition gets a fresh seed derived
/// from the workload seed, so no repetition replays an earlier one.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::uint64_t stream);

/// Set-ups per run; setup_s is their median.
inline constexpr int kSetups = 5;

/// "set-up samples (s): a b c", for the notes.
[[nodiscard]] inline std::string setup_note(const std::vector<double>& s) {
  std::string out = "set-up samples (s):";
  for (const double v : s) out += " " + std::to_string(v);
  return out;
}
/// Job latency samples a run must hold (p90 with ten samples beyond it).
inline constexpr std::size_t kMinJobs = 100;

/// Traced replay of make_default_backend's set-up steps: corpus build,
/// model fit and attribute-sampler fit, reported as rtl.corpus_s,
/// core.fit_s and core.attrs_fit_s.
void traced_setup(const std::string& backend, RunResult& result);

RunResult run_cli(const RunOptions& options, const std::string& backend);
RunResult run_daemon(const RunOptions& options);
RunResult run_fleet(const RunOptions& options);

}  // namespace e2e
