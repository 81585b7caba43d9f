// Phase 3 — MCTS-based refinement of circuit redundancy (paper §VI).
//
// A search state is the circuit after a sequence of swaps from the cone's
// start graph; the atomic action swaps the parents of two fan-in slots,
// which preserves every node's in- and out-degree (paper §VI-B "action
// space"). Search is UCB1-guided; simulation reward is the *maximum* state
// reward seen along the path, and backpropagation updates Q with that
// maximum (the paper's modification for identifying the best intermediate
// state rather than a terminal one). The reward is PCS — post-synthesis
// area per pre-synthesis node — supplied as a callback so the exact
// synthesis oracle and the learned discriminator are interchangeable.
//
// One UCB1 tree per register cone, driven by the caller's RNG stream. Tree
// nodes store the swap that led to them, and every simulation runs on one
// working graph per design, undoing its swaps at the end. The search
// itself is single-threaded; callers parallelize across designs.
#pragma once

#include <cstddef>
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
/// no duplicate parent, no degenerate self-swap) and returns true.
/// Otherwise returns false and leaves the graph fan-in-equal to before
/// (`operator==`): reverting a rejected swap moves the child to the end of
/// its old parent's fan-out list. Nothing downstream reads fan-out order:
/// its readers are comb_path_exists and has_combinational_loop (yes/no
/// answers), strongly_connected_components (a partition) and
/// comb_topo_order, whose callers accept any topological order.
bool apply_swap(graph::Graph& g, const SwapAction& action);

/// The driver a fan-in slot had before a swap changed it: one undo-log
/// entry.
struct SlotEdit {
  graph::NodeId child = graph::kNoNode;
  int slot = 0;
  graph::NodeId parent = graph::kNoNode;
};

/// `apply_swap` that appends the two changed slots to `log` when the swap
/// applies.
bool apply_swap(graph::Graph& g, const SwapAction& action,
                std::vector<SlotEdit>& log);

/// Undoes the entries of `log` past its first `mark`, newest first, and
/// drops them. The graph ends fan-in-equal to its state at `mark`.
void undo_swaps(graph::Graph& g, std::vector<SlotEdit>& log,
                std::size_t mark = 0);

/// State evaluation callback (PCS; larger is better).
using RewardFn = std::function<double(const graph::Graph&)>;
/// Batched evaluation: one reward per input graph, in order.
using BatchRewardFn =
    std::function<std::vector<double>(std::span<const graph::Graph>)>;

/// A state reward in two stages, so the search can score a whole
/// simulation at once without keeping its states: `encode` does all the
/// per-state graph work on the live state and writes a `width()`-wide row;
/// `score` turns rows stored back to back into rewards. Graph-taking
/// callables (plain `RewardFn`s convert implicitly) encode their value as a
/// 1-wide row that `score` passes through, so they are called once per
/// state; rewards backed by the learned discriminator encode a feature row
/// and score many rows per MLP forward. `score` must be row-independent
/// (row i's reward is bitwise the same in any batch), so batching only
/// changes throughput.
class Reward {
 public:
  /// Stage 1: writes one state's row (`width()` values).
  using EncodeFn =
      std::function<void(const graph::Graph&, std::span<double> row)>;
  /// Stage 2: the rewards of `out.size()` rows stored back to back.
  using ScoreFn =
      std::function<void(std::span<const double> rows, std::span<double> out)>;

  Reward() = default;
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, Reward> &&
                std::is_invocable_r_v<double, F, const graph::Graph&>>>
  Reward(F single)  // NOLINT(runtime/explicit)
      : Reward(RewardFn(std::move(single)), BatchRewardFn{}) {}
  /// A graph-taking reward, scored one state per `single` call. `batch`
  /// must agree with `single` bitwise, so it is never called.
  Reward(RewardFn single, BatchRewardFn batch);
  Reward(std::size_t width, EncodeFn encode, ScoreFn score)
      : width_(width), encode_(std::move(encode)), score_(std::move(score)) {}

  /// The reward of one state: `encode` then `score` of one row.
  double operator()(const graph::Graph& g) const;

  /// Rewards for all graphs, scored in chunks of at most `max_batch` rows.
  [[nodiscard]] std::vector<double> batch(std::span<const graph::Graph> gs,
                                          int max_batch) const;

  [[nodiscard]] std::size_t width() const { return width_; }
  void encode(const graph::Graph& g, std::span<double> row) const {
    encode_(g, row);
  }
  void score(std::span<const double> rows, std::span<double> out) const {
    score_(rows, out);
  }

 private:
  std::size_t width_ = 1;
  EncodeFn encode_;
  ScoreFn score_;
};

/// Full Phase 3: optimizes register cones one by one (paper §VI-A),
/// feeding each cone's best result into the next. Copies `gval` once and
/// searches every cone on that working graph.
graph::Graph optimize_registers(const graph::Graph& gval,
                                const MctsConfig& config,
                                const Reward& reward, util::Rng& rng);

/// Ablation baseline (Fig 4): a random walk of valid swaps with the same
/// simulation budget, keeping the best state encountered.
graph::Graph random_optimize(const graph::Graph& gval,
                             const MctsConfig& config, const Reward& reward,
                             util::Rng& rng);

}  // namespace syn::mcts
