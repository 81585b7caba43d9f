// SynCircuit — the paper's three-phase synthetic circuit generator
// (§III): P(G) -> G_ini -> G_val -> G_opt.
//
//   Phase 1  diffusion sampling of an initial adjacency + edge
//            probabilities (or a random initialization for the
//            "SynCircuit w/o diff" ablation of Table II);
//   Phase 2  probability-guided repair to a constraint-satisfying G_val;
//   Phase 3  MCTS redundancy optimization to G_opt (skippable for the
//            "SynCircuit w/o opt" ablation of Table III).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/generator.hpp"
#include "core/postprocess.hpp"
#include "diffusion/model.hpp"
#include "mcts/discriminator.hpp"
#include "mcts/mcts.hpp"

namespace syn::core {

struct SynCircuitConfig {
  diffusion::DiffusionConfig diffusion;
  /// Phase 1 ablation: false replaces the diffusion sample with a random
  /// adjacency of corpus density and uniform edge probabilities.
  bool use_diffusion = true;
  /// Phase 3 ablation: false stops at G_val.
  bool optimize = true;
  mcts::MctsConfig mcts;
  /// true = learned PCS discriminator as MCTS reward (paper's speed-up);
  /// false = exact synthesis oracle.
  bool use_discriminator = true;
  std::uint64_t seed = 1;
};

class SynCircuitGenerator : public GeneratorModel {
 public:
  explicit SynCircuitGenerator(SynCircuitConfig config);

  void fit(const std::vector<graph::Graph>& corpus) override;
  graph::Graph generate(const graph::NodeAttrs& attrs,
                        util::Rng& rng) override;
  [[nodiscard]] std::string name() const override;

  // The (attrs, seed, options) convenience overload from the base class.
  using GeneratorModel::generate_batch;

  /// Packed override of the batch-first contract (same per-item RNG
  /// semantics as the base: result[i] is bit-identical to
  /// generate(attrs_list[i], util::Rng(seeds[i])) at any batch size and
  /// thread count). Phase 1 runs K chains per chunk through
  /// DiffusionModel::sample_batch (one packed MPNN forward per denoising
  /// step); Phases 2–3 run per item.
  [[nodiscard]] std::vector<graph::Graph> generate_batch(
      std::span<const graph::NodeAttrs> attrs_list,
      std::span<const std::uint64_t> seeds,
      const GenerateBatchOptions& options = {}) override;

  /// All three phase outputs, for the experiments that inspect
  /// intermediate stages (Fig 4 compares G_val with G_opt).
  struct Phases {
    graph::AdjacencyMatrix gini;
    graph::Graph gval;
    graph::Graph gopt;  // == gval when optimization is disabled
    RepairStats repair;
  };
  [[nodiscard]] Phases run_phases(const graph::NodeAttrs& attrs,
                                  util::Rng& rng);

  [[nodiscard]] const AttrSampler& attr_sampler() const { return attrs_; }
  [[nodiscard]] const diffusion::DiffusionModel& diffusion_model() const {
    return diffusion_;
  }
  [[nodiscard]] const mcts::PcsDiscriminator& discriminator() const {
    return discriminator_;
  }
  [[nodiscard]] bool fitted() const { return fitted_; }

 private:
  [[nodiscard]] mcts::Reward reward() const;
  /// Phase 1 for the "w/o diff" ablation: a random adjacency of corpus
  /// density and uniform edge probabilities.
  [[nodiscard]] diffusion::DiffusionSample random_init(
      const graph::NodeAttrs& attrs, util::Rng& rng) const;
  /// Phases 2–3 on one Phase-1 sample, continuing the design's RNG; the
  /// one per-design body shared by run_phases and generate_batch.
  [[nodiscard]] Phases repair_and_optimize(const graph::NodeAttrs& attrs,
                                           diffusion::DiffusionSample phase1,
                                           const mcts::Reward& reward,
                                           util::Rng& rng) const;

  SynCircuitConfig config_;
  util::Rng rng_;
  diffusion::DiffusionModel diffusion_;
  AttrSampler attrs_;
  mcts::PcsDiscriminator discriminator_;
  double corpus_density_ = 0.02;  // for the w/o-diff random initialization
  bool fitted_ = false;
};

}  // namespace syn::core
