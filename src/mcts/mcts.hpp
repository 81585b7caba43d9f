// Phase 3 — MCTS-based refinement of circuit redundancy (paper §VI).
//
// States are whole circuit graphs; the atomic action swaps the parents of
// two fan-in slots, which preserves every node's in- and out-degree (paper
// §VI-B "action space"). Search is UCB1-guided; simulation reward is the
// *maximum* state reward seen along the path, and backpropagation updates
// Q with that maximum (the paper's modification for identifying the best
// intermediate state rather than a terminal one). The reward is PCS —
// post-synthesis area per pre-synthesis node — supplied as a callback so
// the exact synthesis oracle and the learned discriminator are
// interchangeable.
//
// One UCB1 tree per register cone, driven by the caller's RNG stream. The
// search itself is single-threaded; callers parallelize across designs.
#pragma once

#include <functional>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "graph/dcg.hpp"
#include "util/rng.hpp"

namespace syn::mcts {

struct MctsConfig {
  int simulations = 500;  // paper: 500 per register cone
  int max_depth = 10;     // paper: 10
  double exploration = 1.4142135623730951;  // sqrt(2), UCB1
  int actions_per_state = 12;  // candidate swaps sampled per tree node
  /// Optimize at most this many register cones (-1 = all), largest
  /// driving cones first.
  int max_registers = -1;
  /// Rounds over the register list; each cone search starts from the best
  /// state found so far, so improvements accumulate beyond one tree depth.
  int passes = 2;
};

/// Swap the parents currently driving (child_a, slot_a) and
/// (child_b, slot_b).
struct SwapAction {
  graph::NodeId child_a = graph::kNoNode;
  int slot_a = 0;
  graph::NodeId child_b = graph::kNoNode;
  int slot_b = 0;
};

/// Applies the swap if it keeps the circuit valid (no combinational loop,
/// no duplicate parent, no degenerate self-swap); returns false and leaves
/// the graph untouched otherwise.
bool apply_swap(graph::Graph& g, const SwapAction& action);

/// State evaluation callback (PCS; larger is better).
using RewardFn = std::function<double(const graph::Graph&)>;
/// Batched evaluation: one reward per input graph, in order.
using BatchRewardFn =
    std::function<std::vector<double>(std::span<const graph::Graph>)>;

/// A reward with an optional batched fast path. Single-argument callables
/// convert implicitly, so plain RewardFn lambdas keep working; rewards
/// backed by the learned discriminator supply a real `batch` that runs the
/// MLP over many graphs per forward pass. The batch path must agree with
/// the scalar path bitwise (row-independent matmuls make this exact for
/// the discriminator), so batching only changes throughput.
class Reward {
 public:
  Reward() = default;
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, Reward> &&
                std::is_invocable_r_v<double, F, const graph::Graph&>>>
  Reward(F single) : single_(std::move(single)) {}  // NOLINT(runtime/explicit)
  Reward(RewardFn single, BatchRewardFn batch)
      : single_(std::move(single)), batch_(std::move(batch)) {}

  double operator()(const graph::Graph& g) const { return single_(g); }

  /// Rewards for all graphs, chunked to at most `max_batch` per batched
  /// call; falls back to the scalar path when no batch fn was supplied.
  [[nodiscard]] std::vector<double> batch(std::span<const graph::Graph> gs,
                                          int max_batch) const;

 private:
  RewardFn single_;
  BatchRewardFn batch_;
};

/// Runs MCTS restricted to the driving cone of one register. Returns the
/// best graph found and its reward.
std::pair<graph::Graph, double> optimize_cone(const graph::Graph& start,
                                              graph::NodeId reg,
                                              const MctsConfig& config,
                                              const Reward& reward,
                                              util::Rng& rng);

/// Full Phase 3: optimizes register cones one by one (paper §VI-A),
/// feeding each cone's best result into the next.
graph::Graph optimize_registers(const graph::Graph& gval,
                                const MctsConfig& config,
                                const Reward& reward, util::Rng& rng);

/// Ablation baseline (Fig 4): a random walk of valid swaps with the same
/// simulation budget, keeping the best state encountered.
graph::Graph random_optimize(const graph::Graph& gval,
                             const MctsConfig& config, const Reward& reward,
                             util::Rng& rng);

}  // namespace syn::mcts
