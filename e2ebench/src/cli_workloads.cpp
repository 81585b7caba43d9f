// cli-syncircuit and cli-graphrnn: the in-process generate_dataset path
// (make_default_backend, GenerationService into ShardedDiskSink with
// synthesis stats), batch 8, one thread per CPU.
#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "checks.hpp"
#include "harness.hpp"
#include "pipeline.hpp"
#include "process.hpp"
#include "stats.hpp"
#include "synth/synthesizer.hpp"

namespace e2e {
namespace {

namespace fs = std::filesystem;

/// Sequential jobs of `job_size` designs, each with a fresh seed and a
/// fresh directory, until `seconds` of job wall time and kMinJobs design
/// latencies are in. Every job's output is checked, then deleted.
void measure(const JobProbe& probe, const RunOptions& options, double seconds,
             std::size_t job_size, std::uint64_t stream0, RunResult& result,
             DatasetCheck& checks) {
  Recorder& rec = *probe.recorder;
  for (std::uint64_t rep = stream0;
       wall_ms(rec) < seconds * 1000.0 ||
       rec.design_latency_ms.size() < kMinJobs;
       ++rep) {
    const fs::path dir = options.work_dir / ("cli-" + std::to_string(rep));
    result.attempted += job_size;
    run_probed_job(probe, dir, job_size, derive_seed(options.seed, rep));
    const DatasetCheck check = check_dataset(dir, job_size);
    if (!check.ok) {
      result.failed += job_size;
      result.fail(check.error);
    }
    checks.merge(check);
    fs::remove_all(dir);
    // Flush this job's file churn before the next job's clock starts.
    ::sync();
  }
}

}  // namespace

RunResult run_cli(const RunOptions& options, const std::string& backend) {
  RunResult result;
  std::vector<double> setup_s;
  syn::server::FittedBackend fitted;
  for (int i = 0; i < kSetups; ++i) {
    fitted = {};
    const auto start = Clock::now();
    fitted = syn::server::make_default_backend(backend);
    setup_s.push_back(ms_between(start, Clock::now()) / 1000.0);
  }
  const syn::core::GenerateBatchOptions batch{.batch = 8,
                                              .threads = options.threads};
  // SynCircuit: three producer groups per job (~1.7 s at 4 threads);
  // GraphRNN: large enough that per-job set-up is noise.
  const std::size_t job_size =
      backend == "syncircuit"
          ? 3 * batch.batch * static_cast<std::size_t>(options.threads)
          : 1024;
  DatasetCheck checks;
  result.notes.push_back(setup_note(setup_s));

  if (!options.trace) {
    Recorder rec;
    measure({&fitted, &rec, nullptr, batch}, options, options.seconds,
            job_size, 0, result, checks);
    // Median over jobs: a burst of interference slows one job, not the
    // figure.
    std::vector<double> job_rates;
    for (const double ms : rec.job_walls_ms) {
      job_rates.push_back(static_cast<double>(job_size) / (ms / 1000.0));
    }
    result.set("designs_per_s", median(job_rates), "1/s");
    result.set("setup_s", median(setup_s), "s");
    result.set("job_ms_p50", *tail_quantile(rec.design_latency_ms, 0.5), "ms");
    result.set("job_ms_p90", *tail_quantile(rec.design_latency_ms, 0.9), "ms");
    const double n = static_cast<double>(checks.designs);
    result.set("pcs_mean", n > 0 ? checks.pcs_sum / n : 0.0, "um2/node");
    result.set("scpr_mean", n > 0 ? checks.scpr_sum / n : 0.0, "ratio");
    result.notes.push_back(
        "operation = design; job_ms = start of its generate_batch group to "
        "the sink checkpoint that commits it; " +
        std::to_string(rec.design_latency_ms.size()) + " samples over " +
        std::to_string(rec.job_walls_ms.size()) + " jobs of " +
        std::to_string(job_size));
    return result;
  }

  // Traced run: set-up split by layer, then the same loop untraced and
  // traced for half the time each.
  traced_setup(backend, result);
  Recorder plain;
  const auto cache_before = syn::synth::synthesis_cache_stats();
  measure({&fitted, &plain, nullptr, batch}, options, options.seconds / 2, job_size,
          0, result, checks);
  const auto cache_after = syn::synth::synthesis_cache_stats();
  Recorder traced;
  Tracer tracer;
  const JobProbe probe{&fitted, &traced, &tracer, batch};
  measure(probe, options, options.seconds / 2, job_size, 1'000'000, result,
          checks);
  report_layers(traced, tracer, options.threads, result);
  check_trace_identity(traced, probe, result);
  const double hits = static_cast<double>(cache_after.hits - cache_before.hits);
  const double misses =
      static_cast<double>(cache_after.misses - cache_before.misses);
  result.set("synth.cache_hit_ratio",
             hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
  result.set("trace.overhead_share",
             1.0 - designs_per_s(traced) / designs_per_s(plain),
             "ratio");
  result.set("system.peak_rss_mb", self_peak_rss_mb(), "MiB");
  return result;
}

}  // namespace e2e
