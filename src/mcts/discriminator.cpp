#include "mcts/discriminator.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "graph/algorithms.hpp"
#include "graph/node_type.hpp"
#include "nn/optim.hpp"
#include "synth/synthesizer.hpp"

namespace syn::mcts {

using graph::Graph;
using graph::NodeId;
using graph::NodeType;

namespace {

/// Writes the kPcsFeatureDim features of `g` into `f`, given g's
/// observable mask.
void write_pcs_features(const Graph& g, const std::vector<bool>& mask,
                        double* f) {
  const double n = std::max<std::size_t>(g.num_nodes(), 1);

  std::size_t observable = 0;
  std::size_t observable_regs = 0, regs = 0;
  std::size_t observable_width = 0, total_width = 0;
  for (NodeId i = 0; i < g.num_nodes(); ++i) {
    observable += mask[i];
    total_width += static_cast<std::size_t>(g.width(i));
    if (mask[i]) observable_width += static_cast<std::size_t>(g.width(i));
    if (graph::is_sequential(g.type(i))) {
      ++regs;
      observable_regs += mask[i];
    }
  }
  f[0] = static_cast<double>(observable) / n;
  f[1] = regs ? static_cast<double>(observable_regs) / regs : 0.0;
  f[2] = total_width ? static_cast<double>(observable_width) / total_width
                     : 0.0;

  double mean_deg = 0.0, max_deg = 0.0, zero_fanout = 0.0;
  for (NodeId i = 0; i < g.num_nodes(); ++i) {
    const std::size_t d = g.fanouts(i).size();
    mean_deg += static_cast<double>(d);
    max_deg = std::max(max_deg, static_cast<double>(d));
    zero_fanout += d == 0;
  }
  f[3] = mean_deg / n;
  f[4] = max_deg / n;
  f[5] = zero_fanout / n;
  f[6] = static_cast<double>(g.num_edges()) / n;

  // Observable arithmetic mass drives area: multiplier bits squared etc.
  double mul_mass = 0.0, add_mass = 0.0, mux_mass = 0.0;
  std::array<std::size_t, graph::kNumNodeTypes> hist{};
  for (NodeId i = 0; i < g.num_nodes(); ++i) {
    ++hist[static_cast<std::size_t>(g.type(i))];
    if (!mask[i]) continue;
    const double w = g.width(i);
    if (g.type(i) == NodeType::kMul) mul_mass += w * w;
    if (g.type(i) == NodeType::kAdd || g.type(i) == NodeType::kSub) {
      add_mass += w;
    }
    if (g.type(i) == NodeType::kMux) mux_mass += w;
  }
  f[7] = mul_mass / n;
  f[8] = add_mass / n;
  f[9] = mux_mass / n;

  // The type mix fills the rest: the first 14 of the 16 node types, or
  // zeros if the vocabulary ever shrinks.
  constexpr std::size_t kHistBase = 10;
  for (std::size_t t = 0; kHistBase + t < kPcsFeatureDim; ++t) {
    f[kHistBase + t] =
        t < hist.size() ? static_cast<double>(hist[t]) / n : 0.0;
  }
}

double register_fraction(const Graph& g, const std::vector<bool>& mask) {
  double seen = 0.0, total = 0.0;
  for (NodeId i = 0; i < g.num_nodes(); ++i) {
    if (!graph::is_sequential(g.type(i))) continue;
    const double w = g.width(i);
    total += w;
    if (mask[i]) seen += w;
  }
  return total > 0.0 ? seen / total : 0.0;
}

}  // namespace

std::vector<double> pcs_features(const Graph& g) {
  std::vector<double> f(kPcsFeatureDim);
  write_pcs_features(g, graph::observable_mask(g), f.data());
  return f;
}

PcsDiscriminator::PcsDiscriminator(std::uint64_t seed)
    : rng_(seed),
      net_({kPcsFeatureDim, 32, 16, 1}, rng_),
      mean_(kPcsFeatureDim, 0.0),
      stddev_(kPcsFeatureDim, 1.0) {}

void PcsDiscriminator::fit(const std::vector<Graph>& samples, int epochs) {
  if (samples.empty()) {
    throw std::invalid_argument("PcsDiscriminator: no training samples");
  }
  const std::size_t n = samples.size();
  std::vector<std::vector<double>> feats(n);
  std::vector<double> labels(n);
  double max_label = 1e-9;
  for (std::size_t i = 0; i < n; ++i) {
    feats[i] = pcs_features(samples[i]);
    labels[i] = synth::synthesize_stats(samples[i]).pcs();
    max_label = std::max(max_label, labels[i]);
  }
  label_scale_ = max_label;

  for (std::size_t j = 0; j < kPcsFeatureDim; ++j) {
    double m = 0.0;
    for (const auto& f : feats) m += f[j];
    m /= static_cast<double>(n);
    double var = 0.0;
    for (const auto& f : feats) var += (f[j] - m) * (f[j] - m);
    mean_[j] = m;
    stddev_[j] = std::sqrt(var / static_cast<double>(n)) + 1e-6;
  }

  nn::Matrix x(n, kPcsFeatureDim);
  nn::Matrix y(n, 1);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < kPcsFeatureDim; ++j) {
      x.at(i, j) = static_cast<float>((feats[i][j] - mean_[j]) / stddev_[j]);
    }
    y.at(i, 0) = static_cast<float>(labels[i] / label_scale_);
  }
  nn::Adam opt(net_.parameters(), {.lr = 5e-3, .clip_norm = 5.0});
  const nn::Tensor xt(x);
  for (int e = 0; e < epochs; ++e) {
    opt.zero_grad();
    nn::Tensor loss = nn::mse(net_.forward(xt), y);
    loss.backward();
    opt.step();
  }
  // Pack the trained weights once for the fused score_batch path; the
  // packed copy is read-only afterwards, so concurrent scoring (batched
  // MCTS shards across the ThreadPool) needs no synchronization.
  packed_ = nn::PackedMlp(net_);
  fitted_ = true;
}

double PcsDiscriminator::predict(const Graph& g) const {
  if (!fitted_) throw std::logic_error("PcsDiscriminator::predict before fit");
  const nn::NoGradGuard no_grad;  // scoring never backpropagates
  const auto f = pcs_features(g);
  nn::Matrix x(1, kPcsFeatureDim);
  for (std::size_t j = 0; j < kPcsFeatureDim; ++j) {
    x.at(0, j) = static_cast<float>((f[j] - mean_[j]) / stddev_[j]);
  }
  return static_cast<double>(net_.forward(nn::Tensor(x)).value()[0]) *
         label_scale_;
}

std::vector<double> PcsDiscriminator::score_batch(
    std::span<const Graph> gs) const {
  std::vector<double> features(gs.size() * kPcsFeatureDim);
  for (std::size_t i = 0; i < gs.size(); ++i) {
    write_pcs_features(gs[i], graph::observable_mask(gs[i]),
                       features.data() + i * kPcsFeatureDim);
  }
  std::vector<double> scores(gs.size());
  score_features(features, kPcsFeatureDim, scores);
  return scores;
}

void PcsDiscriminator::score_features(std::span<const double> rows,
                                      std::size_t stride,
                                      std::span<double> out) const {
  if (!fitted_) {
    throw std::logic_error("PcsDiscriminator::score_features before fit");
  }
  if (out.empty()) return;
  // Fused inference path: normalized rows go straight into an arena buffer
  // and through the packed MLP — no per-op tensor temporaries. One arena
  // per thread (designs are scored concurrently across generate_batch
  // chunks).
  thread_local nn::InferenceArena arena;
  arena.reset();
  float* x = arena.alloc(out.size() * kPcsFeatureDim);
  for (std::size_t i = 0; i < out.size(); ++i) {
    const double* f = rows.data() + i * stride;
    float* row = x + i * kPcsFeatureDim;
    for (std::size_t j = 0; j < kPcsFeatureDim; ++j) {
      row[j] = static_cast<float>((f[j] - mean_[j]) / stddev_[j]);
    }
  }
  const float* y = nn::mlp_forward_rows(packed_, arena, x, out.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<double>(y[i]) * label_scale_;
  }
  // The thread_local arena otherwise holds its high-water mark forever;
  // after an unusually large batch, follow the workload back down once the
  // live set is ≤ 1/4 of capacity.
  const std::size_t used = arena.live_floats();
  if (used * 4 <= arena.capacity_floats()) arena.shrink(used);
}

RewardFn PcsDiscriminator::as_reward() const {
  if (!fitted_) throw std::logic_error("PcsDiscriminator::as_reward before fit");
  return [this](const Graph& g) { return predict(g); };
}

RewardFn exact_pcs_reward() {
  return [](const Graph& g) { return synth::synthesize_stats(g).pcs(); };
}

double observable_register_fraction(const Graph& g) {
  return register_fraction(g, graph::observable_mask(g));
}

RewardFn hybrid_reward(const PcsDiscriminator& discriminator, double bonus) {
  if (!discriminator.fitted()) {
    throw std::logic_error("hybrid_reward: discriminator not fitted");
  }
  const double scale = std::max(discriminator.label_scale(), 1e-9);
  return [&discriminator, bonus, scale](const Graph& g) {
    const double learned =
        std::clamp(discriminator.predict(g) / scale, 0.0, 1.0);
    return bonus * observable_register_fraction(g) + learned;
  };
}

Reward hybrid_reward_model(const PcsDiscriminator& discriminator,
                           double bonus) {
  if (!discriminator.fitted()) {
    throw std::logic_error("hybrid_reward: discriminator not fitted");
  }
  // A row is the raw pcs_features, then the register fraction: one
  // observable mask serves both. Scoring mirrors hybrid_reward's
  // arithmetic exactly — same clamp, same term order — so the two agree
  // bitwise.
  constexpr std::size_t kWidth = kPcsFeatureDim + 1;
  const double scale = std::max(discriminator.label_scale(), 1e-9);
  return {kWidth,
          [](const Graph& g, std::span<double> row) {
            const auto mask = graph::observable_mask(g);
            write_pcs_features(g, mask, row.data());
            row[kPcsFeatureDim] = register_fraction(g, mask);
          },
          [&discriminator, bonus, scale](std::span<const double> rows,
                                         std::span<double> out) {
            discriminator.score_features(rows, kWidth, out);
            for (std::size_t i = 0; i < out.size(); ++i) {
              const double learned = std::clamp(out[i] / scale, 0.0, 1.0);
              out[i] = bonus * rows[i * kWidth + kPcsFeatureDim] + learned;
            }
          }};
}

}  // namespace syn::mcts
