// In-process dataset production with the benchmark's probes around it:
// a GeneratorModel decorator and a DatasetSink decorator that wrap the
// production backend and ShardedDiskSink. Untraced they only timestamp
// groups and commits (for per-design latency); traced they record spans
// around each layer's public calls, replaying SynCircuit's Phase 1 -> 2
// -> 3 through DiffusionModel::sample_batch, repair_to_valid and
// optimize_registers.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/generator.hpp"
#include "core/postprocess.hpp"
#include "core/syncircuit.hpp"
#include "harness.hpp"
#include "server/daemon.hpp"
#include "service/dataset_sink.hpp"
#include "service/generation_service.hpp"
#include "trace.hpp"

namespace e2e {

/// What the probes observed across the jobs of one measurement.
struct Recorder {
  // Per-design latency: start of the generate_batch call that produced a
  // design to the sink checkpoint that committed it.
  std::vector<double> design_latency_ms;
  // GenerationService::on_group_generated.
  double generate_ms = 0.0;
  double stall_ms = 0.0;
  std::size_t groups = 0;
  // Wall time inside GenerationService::run, per job.
  std::vector<double> job_walls_ms;
  std::size_t designs = 0;
  // Traced Phase 2 and Phase 3 counters.
  std::atomic<std::uint64_t> reward_calls{0};
  std::atomic<std::uint64_t> states_scored{0};
  std::uint64_t nodes_kept = 0;
  std::uint64_t nodes_repaired = 0;
  std::uint64_t verilog_bytes = 0;
  /// (G_val, G_opt) pairs of the first traced designs, for mcts.pcs_gain.
  std::vector<std::pair<syn::graph::Graph, syn::graph::Graph>> phase_pairs;
  /// First traced group and its outputs, replayed through the untraced
  /// generate_batch to check the trace describes the same program.
  std::vector<syn::graph::NodeAttrs> probe_attrs;
  std::vector<std::uint64_t> probe_seeds;
  std::vector<syn::graph::Graph> probe_outputs;

  std::mutex mutex;
  std::deque<std::pair<Clock::time_point, std::size_t>> pending_groups;
  std::size_t committed = 0;
};

/// Everything one in-process job needs. `tracer` null = untraced.
struct JobProbe {
  syn::server::FittedBackend* backend = nullptr;
  Recorder* recorder = nullptr;
  Tracer* tracer = nullptr;
  syn::core::GenerateBatchOptions batch{};
};

/// Runs one GenerationService job of `count` designs under `seed` into a
/// fresh ShardedDiskSink at `dir` (synthesis stats on, 64-design shards),
/// through the probes.
void run_probed_job(const JobProbe& probe, const std::filesystem::path& dir,
                      std::size_t count, std::uint64_t seed);

/// Summed job wall time, and designs per second of it.
[[nodiscard]] double wall_ms(const Recorder& recorder);
[[nodiscard]] double designs_per_s(const Recorder& recorder);

/// Per-layer metrics from a traced measurement: Phase 1/2/3, emit,
/// synthesis, service. `threads` is the generate_batch pool width.
void report_layers(Recorder& recorder, const Tracer& tracer, int threads,
                   RunResult& result);

/// Re-runs the recorded probe group through the backend's own
/// generate_batch; fails `result` when the traced outputs differ.
void check_trace_identity(const Recorder& recorder, const JobProbe& probe,
                          RunResult& result);

}  // namespace e2e
