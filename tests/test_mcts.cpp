// Tests for the swap action, MCTS search and the PCS discriminator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/algorithms.hpp"
#include "graph/validity.hpp"
#include "mcts/discriminator.hpp"
#include "mcts/mcts.hpp"
#include "rtl/generators.hpp"
#include "synth/synthesizer.hpp"
#include "tests/support/fixtures.hpp"

namespace syn::mcts {
namespace {

using graph::Graph;
using graph::NodeType;
using testsupport::redundant_circuit;

TEST(SwapAction, PreservesDegreesAndValidity) {
  Graph g = redundant_circuit(30, 41);
  util::Rng rng(42);
  const auto edges_before = g.num_edges();
  std::vector<std::size_t> out_before;
  for (graph::NodeId i = 0; i < g.num_nodes(); ++i) {
    out_before.push_back(g.fanouts(i).size());
  }
  int applied = 0;
  for (int trial = 0; trial < 200; ++trial) {
    SwapAction a;
    a.child_a = static_cast<graph::NodeId>(rng.uniform_int(g.num_nodes()));
    a.child_b = static_cast<graph::NodeId>(rng.uniform_int(g.num_nodes()));
    if (g.fanins(a.child_a).empty() || g.fanins(a.child_b).empty()) continue;
    a.slot_a = static_cast<int>(rng.uniform_int(g.fanins(a.child_a).size()));
    a.slot_b = static_cast<int>(rng.uniform_int(g.fanins(a.child_b).size()));
    applied += apply_swap(g, a);
    ASSERT_TRUE(graph::is_valid(g)) << "after trial " << trial;
  }
  EXPECT_GT(applied, 0);
  EXPECT_EQ(g.num_edges(), edges_before);
  // Out-degrees (paper: the atomic operation maintains in/out degrees).
  for (graph::NodeId i = 0; i < g.num_nodes(); ++i) {
    EXPECT_EQ(g.fanouts(i).size(), out_before[i]) << "node " << i;
  }
}

TEST(SwapAction, RejectsDegenerateSwaps) {
  Graph g = redundant_circuit(20, 43);
  // Same (child, slot) twice is a no-op and must be rejected.
  graph::NodeId child = graph::kNoNode;
  for (graph::NodeId i = 0; i < g.num_nodes(); ++i) {
    if (!g.fanins(i).empty()) {
      child = i;
      break;
    }
  }
  ASSERT_NE(child, graph::kNoNode);
  EXPECT_FALSE(apply_swap(g, {child, 0, child, 0}));
}

TEST(SwapAction, RevertsCleanlyOnCombLoopRejection) {
  // in -> not1 -> not2 -> reg -> out; swapping not2's parent with reg's
  // parent would wire not1 -> reg and not2 -> not2 (loop) — must revert.
  Graph g("t");
  const auto in = g.add_node(NodeType::kInput, 1);
  const auto n1 = g.add_node(NodeType::kNot, 1);
  const auto n2 = g.add_node(NodeType::kNot, 1);
  const auto r = g.add_node(NodeType::kReg, 1);
  const auto out = g.add_node(NodeType::kOutput, 1);
  g.set_fanin(n1, 0, in);
  g.set_fanin(n2, 0, n1);
  g.set_fanin(r, 0, n2);
  g.set_fanin(out, 0, r);
  const Graph snapshot = g;
  EXPECT_FALSE(apply_swap(g, {n2, 0, r, 0}));
  EXPECT_EQ(g, snapshot);
}

TEST(SwapActionProperty, FuzzedSwapsPreserveDegreesAndAcyclicity) {
  // Property fuzz over random valid graphs: an applied swap preserves
  // every node's in- and out-degree and never closes a combinational
  // loop; a rejected swap leaves the graph byte-identical.
  for (std::uint64_t seed = 100; seed < 106; ++seed) {
    Graph g = redundant_circuit(24 + (seed % 3) * 8, seed);
    util::Rng rng(seed ^ 0xf00d);
    ASSERT_FALSE(graph::has_combinational_loop(g));
    const auto in_degree = [](const Graph& gr, graph::NodeId n) {
      std::size_t d = 0;
      for (graph::NodeId p : gr.fanins(n)) d += p != graph::kNoNode;
      return d;
    };
    std::vector<std::size_t> in_before, out_before;
    for (graph::NodeId i = 0; i < g.num_nodes(); ++i) {
      in_before.push_back(in_degree(g, i));
      out_before.push_back(g.fanouts(i).size());
    }
    int applied = 0, rejected = 0;
    for (int trial = 0; trial < 300; ++trial) {
      SwapAction a;
      a.child_a = static_cast<graph::NodeId>(rng.uniform_int(g.num_nodes()));
      a.child_b = static_cast<graph::NodeId>(rng.uniform_int(g.num_nodes()));
      if (g.fanins(a.child_a).empty() || g.fanins(a.child_b).empty()) {
        continue;
      }
      a.slot_a = static_cast<int>(rng.uniform_int(g.fanins(a.child_a).size()));
      a.slot_b = static_cast<int>(rng.uniform_int(g.fanins(a.child_b).size()));
      const Graph snapshot = g;
      if (!apply_swap(g, a)) {
        ++rejected;
        ASSERT_EQ(g, snapshot) << "rejected swap mutated the graph, trial "
                               << trial << " seed " << seed;
        continue;
      }
      ++applied;
      ASSERT_FALSE(graph::has_combinational_loop(g))
          << "trial " << trial << " seed " << seed;
      ASSERT_TRUE(graph::is_valid(g)) << "trial " << trial << " seed " << seed;
      for (graph::NodeId i = 0; i < g.num_nodes(); ++i) {
        ASSERT_EQ(in_degree(g, i), in_before[i]) << "node " << i;
        ASSERT_EQ(g.fanouts(i).size(), out_before[i]) << "node " << i;
      }
    }
    // The fuzzer must exercise both outcomes to mean anything.
    EXPECT_GT(applied, 0) << "seed " << seed;
    EXPECT_GT(rejected, 0) << "seed " << seed;
  }
}

TEST(SwapActionProperty, UndoLogRestoresEveryLoggedState) {
  // Random swaps applied in place with the undo log: undoing back to a
  // mark restores the state at that mark, and undoing everything restores
  // the start graph — same fan-ins, same edges(), same fan-out multisets.
  const auto sorted_fanouts = [](const Graph& g) {
    std::vector<std::vector<graph::NodeId>> out;
    for (graph::NodeId i = 0; i < g.num_nodes(); ++i) {
      out.push_back(g.fanouts(i));
      std::sort(out.back().begin(), out.back().end());
    }
    return out;
  };
  for (std::uint64_t seed = 110; seed < 114; ++seed) {
    Graph g = redundant_circuit(40 + (seed % 3) * 20, seed);
    const Graph start = g;
    util::Rng rng(seed ^ 0xbeef);
    std::vector<SlotEdit> log;
    std::size_t mark = 0;
    Graph at_mark;
    int applied = 0;
    for (int trial = 0; trial < 200; ++trial) {
      if (trial == 100) {
        mark = log.size();
        at_mark = g;
      }
      SwapAction a;
      a.child_a = static_cast<graph::NodeId>(rng.uniform_int(g.num_nodes()));
      a.child_b = static_cast<graph::NodeId>(rng.uniform_int(g.num_nodes()));
      if (g.fanins(a.child_a).empty() || g.fanins(a.child_b).empty()) {
        continue;
      }
      a.slot_a = static_cast<int>(rng.uniform_int(g.fanins(a.child_a).size()));
      a.slot_b = static_cast<int>(rng.uniform_int(g.fanins(a.child_b).size()));
      applied += apply_swap(g, a, log);
    }
    ASSERT_GT(applied, 0) << "seed " << seed;
    ASSERT_EQ(log.size(), 2 * static_cast<std::size_t>(applied));
    ASSERT_NE(g, start) << "seed " << seed;
    undo_swaps(g, log, mark);
    EXPECT_EQ(log.size(), mark);
    EXPECT_EQ(g, at_mark) << "seed " << seed;
    undo_swaps(g, log);
    EXPECT_TRUE(log.empty());
    EXPECT_EQ(g, start) << "seed " << seed;
    EXPECT_EQ(g.edges(), start.edges()) << "seed " << seed;
    EXPECT_EQ(g.num_edges(), start.num_edges()) << "seed " << seed;
    EXPECT_EQ(sorted_fanouts(g), sorted_fanouts(start)) << "seed " << seed;
  }
}

TEST(Mcts, ImprovesObservabilityRewardOnRedundantCircuit) {
  // Reward = fraction of registers observable: MCTS should rewire cones
  // so more registers reach outputs.
  const RewardFn reward = testsupport::observability_reward;
  const Graph start = redundant_circuit(40, 44);
  util::Rng rng(45);
  const MctsConfig cfg{.simulations = 80, .max_depth = 6,
                       .actions_per_state = 8, .max_registers = 4};
  const Graph optimized = optimize_registers(start, cfg, reward, rng);
  EXPECT_TRUE(graph::is_valid(optimized));
  EXPECT_GE(reward(optimized), reward(start));
}

TEST(Mcts, BeatsOrMatchesRandomSearchOnAverage) {
  const RewardFn reward = exact_pcs_reward();
  double mcts_total = 0.0, random_total = 0.0, start_total = 0.0;
  for (std::uint64_t seed = 50; seed < 53; ++seed) {
    const Graph start = redundant_circuit(30, seed);
    util::Rng rng_a(seed);
    util::Rng rng_b(seed);
    const MctsConfig cfg{.simulations = 40, .max_depth = 5,
                         .actions_per_state = 6, .max_registers = 3};
    const Graph via_mcts = optimize_registers(start, cfg, reward, rng_a);
    const Graph via_random = random_optimize(start, cfg, reward, rng_b);
    mcts_total += reward(via_mcts);
    random_total += reward(via_random);
    start_total += reward(start);
  }
  EXPECT_GE(mcts_total, start_total);          // never loses ground
  EXPECT_GE(mcts_total, random_total * 0.95);  // competitive with random
}

TEST(Discriminator, CorrelatesWithExactPcs) {
  // Train on a mixed population, verify rank correlation on fresh graphs.
  std::vector<Graph> train;
  for (std::uint64_t s = 60; s < 72; ++s) {
    train.push_back(redundant_circuit(24, s));
  }
  for (auto& d : rtl::make_corpus({.seed = 4})) {
    train.push_back(std::move(d.graph));
  }
  PcsDiscriminator disc(7);
  disc.fit(train, 400);

  std::vector<double> exact, predicted;
  for (std::uint64_t s = 80; s < 88; ++s) {
    const Graph g = redundant_circuit(24, s);
    exact.push_back(synth::synthesize_stats(g).pcs());
    predicted.push_back(disc.predict(g));
  }
  for (auto& d : rtl::make_corpus({.seed = 5})) {
    exact.push_back(synth::synthesize_stats(d.graph).pcs());
    predicted.push_back(disc.predict(d.graph));
  }
  // Spearman rank correlation.
  auto ranks = [](const std::vector<double>& v) {
    std::vector<std::size_t> idx(v.size());
    for (std::size_t i = 0; i < v.size(); ++i) idx[i] = i;
    std::sort(idx.begin(), idx.end(),
              [&](std::size_t a, std::size_t b) { return v[a] < v[b]; });
    std::vector<double> r(v.size());
    for (std::size_t i = 0; i < idx.size(); ++i) {
      r[idx[i]] = static_cast<double>(i);
    }
    return r;
  };
  const auto ra = ranks(exact);
  const auto rb = ranks(predicted);
  double num = 0.0, da = 0.0, db = 0.0;
  const double mean = static_cast<double>(exact.size() - 1) / 2.0;
  for (std::size_t i = 0; i < ra.size(); ++i) {
    num += (ra[i] - mean) * (rb[i] - mean);
    da += (ra[i] - mean) * (ra[i] - mean);
    db += (rb[i] - mean) * (rb[i] - mean);
  }
  const double spearman = num / std::sqrt(da * db);
  EXPECT_GT(spearman, 0.5) << "discriminator does not track PCS";
}

TEST(Discriminator, RejectsMisuse) {
  PcsDiscriminator disc(1);
  EXPECT_THROW((void)disc.predict(rtl::make_counter(4)), std::logic_error);
  EXPECT_THROW((void)disc.score_batch({}), std::logic_error);
  EXPECT_THROW(disc.fit({}, 10), std::invalid_argument);
}

/// One discriminator fitted on a small mixed population, shared by the
/// batching tests (fitting dominates their runtime).
const PcsDiscriminator& shared_discriminator() {
  static const PcsDiscriminator* disc = [] {
    std::vector<Graph> train;
    for (std::uint64_t s = 60; s < 68; ++s) {
      train.push_back(redundant_circuit(24, s));
    }
    for (auto& d : rtl::make_corpus({.seed = 4})) {
      train.push_back(std::move(d.graph));
    }
    auto* d = new PcsDiscriminator(7);
    d->fit(train, 150);
    return d;
  }();
  return *disc;
}

TEST(Discriminator, ScoreBatchMatchesScalarPredict) {
  const PcsDiscriminator& disc = shared_discriminator();

  // Mixed-size graphs in one batch.
  std::vector<Graph> batch;
  for (std::uint64_t s = 80; s < 84; ++s) {
    batch.push_back(redundant_circuit(16 + (s % 4) * 12, s));
  }
  for (auto& d : rtl::make_corpus({.seed = 5})) {
    batch.push_back(std::move(d.graph));
  }
  const std::vector<double> scores = disc.score_batch(batch);
  ASSERT_EQ(scores.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    // Bitwise: score_batch runs the fused inference path, predict the
    // tensor path — the kernels guarantee identical arithmetic.
    EXPECT_EQ(scores[i], disc.predict(batch[i])) << "graph " << i;
  }

  // Empty and singleton batches.
  EXPECT_TRUE(disc.score_batch(std::span<const Graph>{}).empty());
  const std::vector<Graph> one{batch.front()};
  const auto single = disc.score_batch(one);
  ASSERT_EQ(single.size(), 1u);
  EXPECT_NEAR(single[0], disc.predict(one[0]), 1e-9);

  // The packaged reward model agrees between scalar and batch paths too.
  const Reward hybrid = hybrid_reward_model(disc);
  const auto batched = hybrid.batch(batch, 4);  // forces chunked batch calls
  ASSERT_EQ(batched.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_NEAR(batched[i], hybrid(batch[i]), 1e-9) << "graph " << i;
  }
}

TEST(Reward, EncodeThenScoreMatchesScalarBitwise) {
  // encode + score over batches of 1, 5 and 16 rows gives bitwise the
  // scalar reward: the tensor-path hybrid_reward for the discriminator
  // model, the callable itself for a plain graph-taking reward.
  const PcsDiscriminator& disc = shared_discriminator();
  const RewardFn hybrid_scalar = hybrid_reward(disc);
  const RewardFn plain_scalar = testsupport::observability_reward;
  const Reward hybrid = hybrid_reward_model(disc);
  const Reward plain = plain_scalar;
  EXPECT_EQ(hybrid.width(), kPcsFeatureDim + 1);
  EXPECT_EQ(plain.width(), 1u);
  std::vector<Graph> graphs;
  for (std::uint64_t s = 0; s < 16; ++s) {
    graphs.push_back(redundant_circuit(20 + (s % 5) * 16, 400 + s));
  }
  for (const std::size_t n : {1u, 5u, 16u}) {
    for (const auto& [reward, scalar] : {std::pair{&hybrid, &hybrid_scalar},
                                         std::pair{&plain, &plain_scalar}}) {
      const std::size_t w = reward->width();
      std::vector<double> rows(n * w);
      for (std::size_t i = 0; i < n; ++i) {
        reward->encode(graphs[i], std::span(rows).subspan(i * w, w));
      }
      std::vector<double> scores(n);
      reward->score(rows, scores);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(scores[i], (*reward)(graphs[i])) << "batch " << n;
        EXPECT_EQ(scores[i], (*scalar)(graphs[i])) << "batch " << n;
      }
    }
  }
}

TEST(Mcts, RewardBatchingDoesNotChangeSearchResults) {
  // Batched scoring is a pure throughput path: a reward with no batch
  // function (scored one graph at a time) must drive the same search and
  // return the same graph as the batched hybrid model.
  const Reward hybrid = hybrid_reward_model(shared_discriminator());
  const Reward scalar_only(
      [&hybrid](const Graph& g) { return hybrid(g); });
  const Graph start = redundant_circuit(32, 95);
  const MctsConfig cfg{.simulations = 48, .max_depth = 6,
                       .actions_per_state = 8, .max_registers = 3,
                       .passes = 1};
  util::Rng rng_scalar(11);
  const Graph unbatched = optimize_registers(start, cfg, scalar_only, rng_scalar);
  util::Rng rng_batched(11);
  const Graph batched = optimize_registers(start, cfg, hybrid, rng_batched);
  EXPECT_EQ(unbatched, batched);
  EXPECT_TRUE(graph::is_valid(batched));
  EXPECT_NE(batched, start);  // the search did move
}

/// 64-bit FNV-1a over every node's (type, width, param, fan-ins): pins a
/// search result exactly, but not the fan-out order, which no consumer of
/// Phase 3's output reads.
std::uint64_t structure_hash(const Graph& g) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  };
  for (graph::NodeId i = 0; i < g.num_nodes(); ++i) {
    mix(static_cast<std::uint64_t>(g.type(i)));
    mix(static_cast<std::uint64_t>(g.width(i)));
    mix(g.param(i));
    for (graph::NodeId p : g.fanins(i)) mix(p);
  }
  return h;
}

/// The production Phase 3 config (server::default_backend_config()).
constexpr MctsConfig kProductionMcts{.simulations = 40, .max_depth = 8,
                                     .actions_per_state = 8,
                                     .max_registers = 6, .passes = 2};

/// Phase 3 output hashes on three fixed designs at production sizes,
/// recorded before the search moved onto one working graph: the search
/// trajectory (RNG draws, actions, scores) must not change.
void expect_golden(const Reward& reward,
                   const std::vector<std::uint64_t>& golden) {
  const std::size_t sizes[] = {60, 80, 100};
  for (std::size_t d = 0; d < 3; ++d) {
    const Graph start = redundant_circuit(sizes[d], 300 + d);
    util::Rng rng(700 + d);
    const Graph optimized =
        optimize_registers(start, kProductionMcts, reward, rng);
    EXPECT_TRUE(graph::is_valid(optimized)) << "design " << d;
    EXPECT_NE(optimized, start) << "design " << d;
    EXPECT_EQ(structure_hash(optimized), golden[d])
        << "design " << d << ": 0x" << std::hex << structure_hash(optimized);
  }
}

TEST(MctsGolden, HybridRewardAtProductionConfig) {
  expect_golden(hybrid_reward_model(shared_discriminator()),
                {0x0fc3128306a94bb5ULL, 0xc957894d651f7626ULL,
                 0x903d95a8ca8cd8d0ULL});
}

TEST(MctsGolden, PlainCallableRewardAtProductionConfig) {
  expect_golden(testsupport::observability_reward,
                {0xa7d34614baa4b055ULL, 0x7a044d2761489fe6ULL,
                 0x66df6b5287f39030ULL});
}

}  // namespace
}  // namespace syn::mcts
