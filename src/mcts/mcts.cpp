#include "mcts/mcts.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "graph/algorithms.hpp"
#include "graph/node_type.hpp"
#include "util/batching.hpp"

namespace syn::mcts {

using graph::Graph;
using graph::kNoNode;
using graph::NodeId;

bool apply_swap(Graph& g, const SwapAction& a) {
  if (a.child_a == a.child_b && a.slot_a == a.slot_b) return false;
  const NodeId pa = g.fanin(a.child_a, a.slot_a);
  const NodeId pb = g.fanin(a.child_b, a.slot_b);
  if (pa == kNoNode || pb == kNoNode || pa == pb) return false;
  // Reject duplicate parents after the swap (a parent may feed a child in
  // only one slot, mirroring how Phase 2 assigns fan-ins).
  if (g.has_edge(pb, a.child_a) || g.has_edge(pa, a.child_b)) return false;
  g.clear_fanin(a.child_a, a.slot_a);
  g.clear_fanin(a.child_b, a.slot_b);
  const bool ok = !graph::edge_creates_comb_loop(g, pb, a.child_a) &&
                  [&] {
                    g.set_fanin(a.child_a, a.slot_a, pb);
                    return !graph::edge_creates_comb_loop(g, pa, a.child_b);
                  }();
  if (ok) {
    g.set_fanin(a.child_b, a.slot_b, pa);
    return true;
  }
  // Revert.
  if (g.fanin(a.child_a, a.slot_a) != kNoNode) g.clear_fanin(a.child_a, a.slot_a);
  g.set_fanin(a.child_a, a.slot_a, pa);
  g.set_fanin(a.child_b, a.slot_b, pb);
  return false;
}

bool apply_swap(Graph& g, const SwapAction& a, std::vector<SlotEdit>& log) {
  if (!apply_swap(g, a)) return false;
  // Each slot's old driver now drives the other slot.
  log.push_back({a.child_a, a.slot_a, g.fanin(a.child_b, a.slot_b)});
  log.push_back({a.child_b, a.slot_b, g.fanin(a.child_a, a.slot_a)});
  return true;
}

void undo_swaps(Graph& g, std::vector<SlotEdit>& log, std::size_t mark) {
  while (log.size() > mark) {
    const SlotEdit e = log.back();
    log.pop_back();
    g.set_fanin(e.child, e.slot, e.parent);
  }
}

Reward::Reward(RewardFn single, BatchRewardFn /*batch*/)
    : encode_([single = std::move(single)](const Graph& g,
                                           std::span<double> row) {
        row[0] = single(g);
      }),
      score_([](std::span<const double> rows, std::span<double> out) {
        std::copy(rows.begin(), rows.end(), out.begin());
      }) {}

double Reward::operator()(const Graph& g) const {
  std::vector<double> row(width_);
  encode_(g, row);
  double out = 0.0;
  score_(row, {&out, 1});
  return out;
}

std::vector<double> Reward::batch(std::span<const Graph> gs,
                                  int max_batch) const {
  std::vector<double> rows(gs.size() * width_);
  for (std::size_t i = 0; i < gs.size(); ++i) {
    encode_(gs[i], std::span(rows).subspan(i * width_, width_));
  }
  std::vector<double> out(gs.size());
  util::for_each_chunk(
      gs.size(), static_cast<std::size_t>(std::max(max_batch, 1)),
      [&](std::size_t lo, std::size_t n) {
        score_(std::span(rows).subspan(lo * width_, n * width_),
               std::span(out).subspan(lo, n));
      });
  return out;
}

namespace {

/// Swaps the parents of the two slots with no validity checks, logging the
/// old drivers: replays an action already applied to this same state.
void replay_swap(Graph& g, const SwapAction& a, std::vector<SlotEdit>& log) {
  const NodeId pa = g.fanin(a.child_a, a.slot_a);
  const NodeId pb = g.fanin(a.child_b, a.slot_b);
  log.push_back({a.child_a, a.slot_a, pa});
  log.push_back({a.child_b, a.slot_b, pb});
  g.set_fanin(a.child_a, a.slot_a, pb);
  g.set_fanin(a.child_b, a.slot_b, pa);
}

/// Cone nodes with at least one fan-in slot — the legal swap endpoints.
std::vector<NodeId> swap_candidates(const Graph& g,
                                    const std::vector<NodeId>& cone) {
  std::vector<NodeId> out;
  for (NodeId n : cone) {
    if (!g.fanins(n).empty()) out.push_back(n);
  }
  return out;
}

/// One endpoint targets the cone under optimization; the counterparty may
/// be any fan-in in the circuit — a swap against an edge outside the cone
/// is exactly what reconnects a dead cone into observable logic. When a
/// non-empty `observable_pool` is supplied, half the proposals draw the
/// counterparty from observable logic, which is the move that pulls dead
/// cones into the output fan-in.
SwapAction random_action(const Graph& g, const std::vector<NodeId>& cone_pool,
                         const std::vector<NodeId>& global_pool,
                         const std::vector<NodeId>& observable_pool,
                         util::Rng& rng) {
  SwapAction a;
  a.child_a = cone_pool[rng.uniform_int(cone_pool.size())];
  const bool biased = !observable_pool.empty() && rng.bernoulli(0.5);
  const auto& pool_b = biased ? observable_pool : global_pool;
  a.child_b = pool_b[rng.uniform_int(pool_b.size())];
  a.slot_a = static_cast<int>(rng.uniform_int(g.fanins(a.child_a).size()));
  a.slot_b = static_cast<int>(rng.uniform_int(g.fanins(a.child_b).size()));
  return a;
}

struct TreeNode {
  SwapAction action;  // the swap from the parent's state to this one
  double reward = 0.0;
  int visits = 0;
  double q_sum = 0.0;
  std::vector<SwapAction> untried;
  std::vector<std::unique_ptr<TreeNode>> children;
};

/// Samples the untried actions of `node`, whose state `g` holds.
void seed_actions(TreeNode& node, const Graph& g,
                  const std::vector<NodeId>& cone_pool,
                  const std::vector<NodeId>& global_pool,
                  const MctsConfig& config, util::Rng& rng) {
  node.untried.clear();
  if (cone_pool.empty() || global_pool.size() < 2) return;
  // Observable swap counterparties of *this* state (recomputed per node:
  // swaps change observability).
  const auto mask = graph::observable_mask(g);
  std::vector<NodeId> observable_pool;
  for (NodeId n : global_pool) {
    if (mask[n]) observable_pool.push_back(n);
  }
  for (int k = 0; k < config.actions_per_state; ++k) {
    node.untried.push_back(
        random_action(g, cone_pool, global_pool, observable_pool, rng));
  }
}

struct TreeResult {
  std::vector<SwapAction> best_path;  // swaps from the start state
  double best_reward = 0.0;
};

/// States scored per `Reward::score` call. One simulation yields at most
/// 1 + max_depth states, so at the production depth a simulation is one
/// call.
constexpr std::size_t kRewardBatch = 16;

/// One UCB1 tree over the cone, driven by the caller's RNG stream. Each
/// simulation replays its selection path onto the working graph `g`,
/// expands and rolls out in place, and undoes every swap at the end, so
/// `g` holds the start state on entry and on return.
TreeResult run_tree(Graph& g, double root_reward,
                    const std::vector<NodeId>& cone_pool,
                    const std::vector<NodeId>& global_pool,
                    const MctsConfig& config, const Reward& reward,
                    util::Rng& rng) {
  TreeNode root;
  root.reward = root_reward;
  seed_actions(root, g, cone_pool, global_pool, config, rng);

  TreeResult out{{}, root_reward};
  const bool can_swap = !cone_pool.empty() && global_pool.size() >= 2;
  const std::size_t width = reward.width();
  std::vector<SlotEdit> log;
  std::vector<SwapAction> actions;  // swaps from the start state to `g`
  std::vector<double> rows;  // this simulation's encoded states
  std::vector<std::size_t> path_len;  // each encoded state's action prefix
  std::vector<double> scores;
  const auto encode_state = [&] {
    rows.resize(rows.size() + width);
    reward.encode(g, std::span(rows).last(width));
    path_len.push_back(actions.size());
  };

  for (int sim = 0; sim < config.simulations; ++sim) {
    actions.clear();
    rows.clear();
    path_len.clear();
    // --- selection (every stored action was valid on this state) ---
    std::vector<TreeNode*> path{&root};
    TreeNode* node = &root;
    int depth = 0;
    while (node->untried.empty() && !node->children.empty() &&
           depth < config.max_depth) {
      TreeNode* chosen = nullptr;
      double best_ucb = -1e300;
      for (const auto& child : node->children) {
        const double mean =
            child->visits > 0 ? child->q_sum / child->visits : 0.0;
        const double explore =
            config.exploration *
            std::sqrt(std::log(static_cast<double>(node->visits) + 1.0) /
                      (static_cast<double>(child->visits) + 1e-9));
        const double ucb = mean + explore;
        if (ucb > best_ucb) {
          best_ucb = ucb;
          chosen = child.get();
        }
      }
      node = chosen;
      replay_swap(g, node->action, log);
      actions.push_back(node->action);
      path.push_back(node);
      ++depth;
    }
    // --- expansion (reward deferred to the batched scoring below) ---
    TreeNode* expanded = nullptr;
    if (depth < config.max_depth && !node->untried.empty()) {
      const SwapAction action = node->untried.back();
      node->untried.pop_back();
      if (apply_swap(g, action, log)) {
        auto child = std::make_unique<TreeNode>();
        child->action = action;
        seed_actions(*child, g, cone_pool, global_pool, config, rng);
        node->children.push_back(std::move(child));
        node = node->children.back().get();
        expanded = node;
        actions.push_back(action);
        path.push_back(node);
        ++depth;
        encode_state();
      }
    }
    // --- simulation (random rollout) ---
    for (int d = depth; d < config.max_depth && can_swap; ++d) {
      const SwapAction action =
          random_action(g, cone_pool, global_pool, {}, rng);
      if (apply_swap(g, action, log)) {
        actions.push_back(action);
        encode_state();
      }
    }
    undo_swaps(g, log);
    // Rewards are consumed only after every state of this simulation is
    // encoded, so scoring them together cannot change the trajectory.
    scores.resize(path_len.size());
    util::for_each_chunk(
        scores.size(), kRewardBatch, [&](std::size_t lo, std::size_t n) {
          reward.score(std::span(rows).subspan(lo * width, n * width),
                       std::span(scores).subspan(lo, n));
        });
    if (expanded != nullptr) expanded->reward = scores.front();
    // Max over the path, taken only once every path node (including a
    // just-expanded one) is scored — so a default 0.0 never leaks into
    // backpropagation.
    double reward_max = -std::numeric_limits<double>::infinity();
    for (TreeNode* p : path) reward_max = std::max(reward_max, p->reward);
    for (std::size_t i = 0; i < scores.size(); ++i) {
      if (scores[i] > out.best_reward) {
        out.best_reward = scores[i];
        out.best_path.assign(actions.begin(),
                             actions.begin() + static_cast<std::ptrdiff_t>(
                                                   path_len[i]));
      }
      reward_max = std::max(reward_max, scores[i]);
    }
    // --- backpropagation with Reward_max (paper §VI-B) ---
    for (TreeNode* p : path) {
      ++p->visits;
      p->q_sum += reward_max;
    }
  }
  return out;
}

}  // namespace

Graph optimize_registers(const Graph& gval, const MctsConfig& config,
                         const Reward& reward, util::Rng& rng) {
  // Largest driving cones first: they dominate PCS/SCPR.
  std::vector<std::pair<std::size_t, NodeId>> regs;
  for (NodeId i = 0; i < gval.num_nodes(); ++i) {
    if (graph::is_sequential(gval.type(i))) {
      regs.emplace_back(graph::driving_cone(gval, i).size(), i);
    }
  }
  std::sort(regs.begin(), regs.end(), std::greater<>());
  if (config.max_registers >= 0 &&
      regs.size() > static_cast<std::size_t>(config.max_registers)) {
    regs.resize(static_cast<std::size_t>(config.max_registers));
  }
  Graph g = gval;
  // Swaps never change a node's fan-in arity, so the counterparty pool is
  // the same for every cone.
  std::vector<NodeId> all_nodes(g.num_nodes());
  for (NodeId i = 0; i < g.num_nodes(); ++i) all_nodes[i] = i;
  const std::vector<NodeId> global_pool = swap_candidates(g, all_nodes);
  std::vector<SlotEdit> log;
  for (int pass = 0; pass < std::max(1, config.passes); ++pass) {
    for (const auto& [cone_size, reg] : regs) {
      const std::vector<NodeId> cone_pool =
          swap_candidates(g, graph::driving_cone(g, reg));
      const TreeResult r = run_tree(g, reward(g), cone_pool, global_pool,
                                    config, reward, rng);
      for (const SwapAction& a : r.best_path) replay_swap(g, a, log);
      log.clear();
    }
  }
  return g;
}

Graph random_optimize(const Graph& gval, const MctsConfig& config,
                      const Reward& reward, util::Rng& rng) {
  // Same evaluation budget as the MCTS runs it competes with in Fig 4.
  std::vector<NodeId> all_nodes;
  for (NodeId i = 0; i < gval.num_nodes(); ++i) all_nodes.push_back(i);
  const std::vector<NodeId> pool = swap_candidates(gval, all_nodes);
  Graph current = gval;
  Graph best = gval;
  double best_reward = reward(gval);
  if (pool.size() < 2) return best;
  for (int sim = 0; sim < config.simulations; ++sim) {
    const SwapAction action = random_action(current, pool, pool, {}, rng);
    if (!apply_swap(current, action)) continue;
    const double r = reward(current);
    if (r > best_reward) {
      best_reward = r;
      best = current;
    }
  }
  return best;
}

}  // namespace syn::mcts
