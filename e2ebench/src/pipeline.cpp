#include "pipeline.hpp"

#include <algorithm>
#include <numeric>
#include <string>

#include "diffusion/model.hpp"
#include "mcts/discriminator.hpp"
#include "mcts/mcts.hpp"
#include "rtl/generators.hpp"
#include "rtl/verilog.hpp"
#include "synth/synthesizer.hpp"
#include "util/batching.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace e2e {
namespace {

using syn::graph::Graph;
using syn::graph::NodeAttrs;

/// (G_val, G_opt) pairs kept per measurement for mcts.pcs_gain.
constexpr std::size_t kPhasePairs = 256;

/// GeneratorModel decorator. Untraced it forwards generate_batch to the
/// backend; traced it runs SynCircuit's phases (or, for backends on the
/// default generate_batch, the base implementation over a timed
/// generate) with spans around each call.
class ProbedModel final : public syn::core::GeneratorModel {
 public:
  ProbedModel(syn::core::GeneratorModel& inner, Recorder& recorder,
              Tracer* tracer)
      : inner_(inner),
        recorder_(recorder),
        tracer_(tracer),
        syncircuit_(dynamic_cast<syn::core::SynCircuitGenerator*>(&inner)) {}

  void fit(const std::vector<Graph>& corpus) override { inner_.fit(corpus); }
  [[nodiscard]] std::string name() const override { return inner_.name(); }

  Graph generate(const NodeAttrs& attrs, syn::util::Rng& rng) override {
    const ScopedSpan span(tracer_, "model.generate");
    return inner_.generate(attrs, rng);
  }

  using GeneratorModel::generate_batch;
  std::vector<Graph> generate_batch(
      std::span<const NodeAttrs> attrs, std::span<const std::uint64_t> seeds,
      const syn::core::GenerateBatchOptions& options) override {
    {
      const std::lock_guard<std::mutex> lock(recorder_.mutex);
      recorder_.pending_groups.emplace_back(Clock::now(), attrs.size());
    }
    if (tracer_ == nullptr) return inner_.generate_batch(attrs, seeds, options);
    std::vector<Graph> out =
        syncircuit_ != nullptr
            ? traced_phases(attrs, seeds, options)
            : GeneratorModel::generate_batch(attrs, seeds, options);
    if (recorder_.probe_outputs.empty()) {
      recorder_.probe_attrs.assign(attrs.begin(), attrs.end());
      recorder_.probe_seeds.assign(seeds.begin(), seeds.end());
      recorder_.probe_outputs = out;
    }
    return out;
  }

 private:
  /// SynCircuitGenerator::generate_batch, call for call, with spans.
  std::vector<Graph> traced_phases(
      std::span<const NodeAttrs> attrs_list,
      std::span<const std::uint64_t> seeds,
      const syn::core::GenerateBatchOptions& options) {
    const auto& sc = *syncircuit_;
    const syn::mcts::MctsConfig mcts_config =
        syn::server::default_backend_config().syncircuit.mcts;
    const syn::mcts::Reward inner = syn::mcts::hybrid_reward_model(
        sc.discriminator());
    const syn::mcts::Reward reward(
        [&](const Graph& g) {
          const ScopedSpan span(tracer_, "mcts.reward");
          ++recorder_.reward_calls;
          ++recorder_.states_scored;
          return inner(g);
        },
        [&](std::span<const Graph> gs) {
          const ScopedSpan span(tracer_, "mcts.reward");
          ++recorder_.reward_calls;
          recorder_.states_scored += gs.size();
          return inner.batch(gs, static_cast<int>(std::max<std::size_t>(
                                     gs.size(), 2)));
        });

    std::vector<Graph> out(attrs_list.size());
    std::vector<std::pair<std::size_t, std::size_t>> chunks;
    syn::util::for_each_chunk(attrs_list.size(), options.batch,
                              [&](std::size_t lo, std::size_t n) {
                                chunks.emplace_back(lo, n);
                              });
    const auto run_chunk = [&](std::size_t lo, std::size_t n) {
      const ScopedSpan chunk(tracer_, "pipeline.chunk");
      std::vector<syn::util::Rng> rngs;
      for (std::size_t k = 0; k < n; ++k) rngs.emplace_back(seeds[lo + k]);
      std::vector<syn::diffusion::DiffusionSample> phase1;
      {
        const ScopedSpan span(tracer_, "diffusion.sample_batch");
        phase1 = sc.diffusion_model().sample_batch(attrs_list.subspan(lo, n),
                                                   rngs);
      }
      for (std::size_t k = 0; k < n; ++k) {
        syn::core::RepairStats repair;
        Graph gval;
        {
          const ScopedSpan span(tracer_, "core.repair_to_valid");
          gval = syn::core::repair_to_valid(attrs_list[lo + k],
                                            phase1[k].adjacency,
                                            phase1[k].edge_prob, rngs[k],
                                            &repair);
        }
        Graph gopt;
        {
          const ScopedSpan span(tracer_, "mcts.optimize_registers");
          gopt = syn::mcts::optimize_registers(gval, mcts_config, reward,
                                               rngs[k]);
        }
        gopt.set_name("syncircuit");
        {
          const std::lock_guard<std::mutex> lock(recorder_.mutex);
          recorder_.nodes_kept += repair.nodes_kept;
          recorder_.nodes_repaired += repair.nodes_repaired;
          if (recorder_.phase_pairs.size() < kPhasePairs) {
            recorder_.phase_pairs.emplace_back(gval, gopt);
          }
        }
        out[lo + k] = std::move(gopt);
      }
    };
    if (options.threads > 1 && chunks.size() > 1) {
      syn::util::ThreadPool pool(static_cast<std::size_t>(options.threads));
      pool.parallel_for(chunks.size(), [&](std::size_t c) {
        run_chunk(chunks[c].first, chunks[c].second);
      });
    } else {
      for (const auto& [lo, n] : chunks) run_chunk(lo, n);
    }
    return out;
  }

  syn::core::GeneratorModel& inner_;
  Recorder& recorder_;
  Tracer* tracer_;
  syn::core::SynCircuitGenerator* syncircuit_;
};

/// DatasetSink decorator. Always timestamps commits; traced it also
/// times the sink's calls and, ahead of each write, the emit and the
/// synthesis stats the sink is about to compute (the sink's own
/// synthesize_stats call then hits the memo).
class ProbedSink final : public syn::service::DatasetSink {
 public:
  ProbedSink(syn::service::DatasetSink& inner, Recorder& recorder,
             Tracer* tracer)
      : inner_(inner), recorder_(recorder), tracer_(tracer) {}

  [[nodiscard]] std::size_t resume_index() const override {
    return inner_.resume_index();
  }

  void write(const syn::service::DesignRecord& record) override {
    const ScopedSpan span(tracer_, "service.sink_write");
    if (tracer_ != nullptr) {
      {
        const ScopedSpan emit(tracer_, "rtl.to_verilog");
        recorder_.verilog_bytes += syn::rtl::to_verilog(record.graph).size();
      }
      const ScopedSpan stats(tracer_, "synth.stats");
      (void)syn::synth::synthesize_stats(record.graph);
    }
    inner_.write(record);
  }

  void checkpoint(std::size_t next) override {
    {
      const ScopedSpan span(tracer_, "service.checkpoint");
      inner_.checkpoint(next);
    }
    const auto now = Clock::now();
    const std::lock_guard<std::mutex> lock(recorder_.mutex);
    while (!recorder_.pending_groups.empty() &&
           recorder_.committed + recorder_.pending_groups.front().second <=
               next) {
      const auto [started, n] = recorder_.pending_groups.front();
      recorder_.pending_groups.pop_front();
      recorder_.committed += n;
      recorder_.design_latency_ms.insert(recorder_.design_latency_ms.end(), n,
                                         ms_between(started, now));
    }
  }

  void finalize(const syn::service::DatasetSummary& summary) override {
    const ScopedSpan span(tracer_, "service.finalize");
    inner_.finalize(summary);
  }

 private:
  syn::service::DatasetSink& inner_;
  Recorder& recorder_;
  Tracer* tracer_;
};

double per(double total, double count) {
  return count > 0.0 ? total / count : 0.0;
}

}  // namespace

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t state = seed ^ (0x9E3779B97F4A7C15ULL * (stream + 1));
  return syn::util::splitmix64(state);
}

void run_probed_job(const JobProbe& probe, const std::filesystem::path& dir,
                      std::size_t count, std::uint64_t seed) {
  Recorder& rec = *probe.recorder;
  {
    const std::lock_guard<std::mutex> lock(rec.mutex);
    rec.pending_groups.clear();
    rec.committed = 0;
  }
  syn::service::ShardedDiskSink disk({.dir = dir,
                                      .seed = seed,
                                      .shard_size = 64,
                                      .fresh = true,
                                      .with_synth_stats = true});
  ProbedSink sink(disk, rec, probe.tracer);
  ProbedModel model(*probe.backend->model, rec, probe.tracer);
  syn::service::GenerationService service(
      model,
      {.batch = probe.batch,
       .on_group_generated =
           [&rec](std::size_t, double generate_ms, double stall_ms) {
             rec.generate_ms += generate_ms;
             rec.stall_ms += stall_ms;
             ++rec.groups;
           }});
  const auto start = Clock::now();
  service.run({.count = count, .seed = seed, .attrs = probe.backend->attrs},
              sink);
  rec.job_walls_ms.push_back(ms_between(start, Clock::now()));
  rec.designs += count;
}

double wall_ms(const Recorder& rec) {
  return std::accumulate(rec.job_walls_ms.begin(), rec.job_walls_ms.end(),
                         0.0);
}

double designs_per_s(const Recorder& rec) {
  return per(static_cast<double>(rec.designs), wall_ms(rec) / 1000.0);
}

void report_layers(Recorder& rec, const Tracer& tracer, int threads,
                   RunResult& result) {
  const auto spans = tracer.summarize();
  const auto total = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.total_ms;
  };
  const auto self = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.self_ms;
  };
  const auto count = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : static_cast<double>(it->second.count);
  };
  const double designs = static_cast<double>(rec.designs);

  // Phase 1-3 (SynCircuit only; zero for backends without the phases).
  const double phases_ms = total("pipeline.chunk");
  result.set("diffusion.sample_ms_per_design",
             per(self("diffusion.sample_batch"), designs), "ms");
  result.set("diffusion.design_time_share",
             per(total("diffusion.sample_batch"), phases_ms), "ratio");
  result.set("core.repair_ms_per_design",
             per(total("core.repair_to_valid"), designs), "ms");
  result.set("core.repair_share_repaired",
             per(static_cast<double>(rec.nodes_repaired),
                 static_cast<double>(rec.nodes_kept + rec.nodes_repaired)),
             "ratio");
  result.set("mcts.optimize_self_ms_per_design",
             per(self("mcts.optimize_registers"), designs), "ms");
  result.set("mcts.design_time_share",
             per(total("mcts.optimize_registers"), phases_ms), "ratio");
  result.set("mcts.reward_ms_per_design", per(total("mcts.reward"), designs),
             "ms");
  result.set("mcts.reward_calls_per_design",
             per(static_cast<double>(rec.reward_calls.load()), designs),
             "count");
  result.set("mcts.states_scored_per_design",
             per(static_cast<double>(rec.states_scored.load()), designs),
             "count");
  double gain = 0.0;
  for (const auto& [gval, gopt] : rec.phase_pairs) {
    gain += syn::synth::synthesize_stats(gopt).pcs() -
            syn::synth::synthesize_stats(gval).pcs();
  }
  result.set("mcts.pcs_gain",
             per(gain, static_cast<double>(rec.phase_pairs.size())),
             "um2/node");

  // Emit and synthesis, as timed ahead of each sink write.
  result.set("rtl.to_verilog_ms_per_design",
             per(total("rtl.to_verilog"), designs), "ms");
  result.set("rtl.verilog_bytes_per_design",
             per(static_cast<double>(rec.verilog_bytes), designs), "B");
  result.set("synth.stats_ms_per_design", per(total("synth.stats"), designs),
             "ms");

  // Service: producer hooks and the sink decorator.
  const double sink_busy = total("service.sink_write") +
                           total("service.checkpoint") +
                           total("service.finalize");
  const double busy = phases_ms > 0.0 ? phases_ms : total("model.generate");
  result.set("service.generate_ms_per_group",
             per(rec.generate_ms, static_cast<double>(rec.groups)), "ms");
  result.set("service.stall_share",
             per(rec.stall_ms, rec.generate_ms + rec.stall_ms), "ratio");
  result.set("service.sink_write_ms_per_design",
             per(total("service.sink_write"), designs), "ms");
  result.set("service.checkpoint_ms",
             per(total("service.checkpoint"), count("service.checkpoint")),
             "ms");
  result.set("service.sink_busy_share", per(sink_busy, wall_ms(rec)),
             "ratio");
  result.set("service.pool_efficiency",
             per(busy, std::max(threads, 1) * rec.generate_ms), "ratio");
}

void check_trace_identity(const Recorder& rec, const JobProbe& probe,
                          RunResult& result) {
  if (rec.probe_outputs.empty()) {
    result.fail("traced run produced no probe group");
    return;
  }
  const std::vector<Graph> expected = probe.backend->model->generate_batch(
      rec.probe_attrs, rec.probe_seeds, probe.batch);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    if (syn::rtl::to_verilog(expected[i]) !=
        syn::rtl::to_verilog(rec.probe_outputs[i])) {
      result.fail("traced phases differ from generate_batch at item " +
                  std::to_string(i));
      return;
    }
  }
}

void traced_setup(const std::string& backend, RunResult& result) {
  Tracer tracer;
  std::vector<Graph> corpus;
  {
    const ScopedSpan span(&tracer, "rtl.corpus");
    corpus = syn::rtl::corpus_graphs({.seed = 1});
  }
  auto model = syn::core::make_generator(
      backend, syn::server::default_backend_config());
  {
    const ScopedSpan span(&tracer, "core.fit");
    model->fit(corpus);
  }
  {
    const ScopedSpan span(&tracer, "core.attrs_fit");
    syn::core::AttrSampler sampler;
    sampler.fit(corpus);
  }
  const auto spans = tracer.summarize();
  result.set("rtl.corpus_s", spans.at("rtl.corpus").total_ms / 1000.0, "s");
  result.set("core.fit_s", spans.at("core.fit").total_ms / 1000.0, "s");
  result.set("core.attrs_fit_s", spans.at("core.attrs_fit").total_ms / 1000.0,
             "s");
}

}  // namespace e2e
