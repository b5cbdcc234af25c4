#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "graph/generators.hpp"
#include "partition/initial.hpp"
#include "partition/move_context.hpp"

namespace ppnpart::part {
namespace {

// The core property: the incremental state equals full recomputation after
// any sequence of moves.
class MoveContextProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MoveContextProperty, IncrementalMatchesRecompute) {
  support::Rng rng(GetParam());
  const Graph g = graph::erdos_renyi_gnm(50, 200, rng, {1, 20}, {1, 15});
  const PartId k = 5;
  Partition p = random_balanced_partition(g, k, rng);
  Constraints c;
  c.rmax = g.total_node_weight() / k + 20;
  c.bmax = 40;
  MoveContext ctx(g, p, c);
  for (int step = 0; step < 200; ++step) {
    const NodeId u = static_cast<NodeId>(rng.uniform_index(g.num_nodes()));
    const PartId q = static_cast<PartId>(rng.uniform_index(k));
    // Check the prediction before applying.
    const Goodness predicted = ctx.goodness_after(u, q);
    ctx.apply(u, q);
    const Goodness actual = ctx.goodness();
    EXPECT_EQ(predicted.resource_excess, actual.resource_excess);
    EXPECT_EQ(predicted.bandwidth_excess, actual.bandwidth_excess);
    EXPECT_EQ(predicted.cut, actual.cut);
    if (step % 20 == 0) {
      // Full recompute cross-check.
      const PartitionMetrics m = compute_metrics(g, p);
      const Violation v = compute_violation(m, c);
      EXPECT_EQ(ctx.cut(), m.total_cut);
      EXPECT_EQ(ctx.goodness().resource_excess, v.resource_excess);
      EXPECT_EQ(ctx.goodness().bandwidth_excess, v.bandwidth_excess);
      for (PartId a = 0; a < k; ++a) {
        EXPECT_EQ(ctx.load(a), m.loads[static_cast<std::size_t>(a)]);
        for (PartId b2 = 0; b2 < k; ++b2) {
          EXPECT_EQ(ctx.pairwise().at(a, b2), m.pairwise.at(a, b2));
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MoveContextProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// goodness_after_swap scores an exchange of parts without applying it. It
// must equal both the half-swap evaluation it replaces (apply u, score v,
// undo) and a full recompute after the swap, for adjacent and non-adjacent
// pairs, uniform and heterogeneous Rmax, limited and unlimited Bmax.
class SwapProperty
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, PartId>> {};

TEST_P(SwapProperty, ClosedFormMatchesAppliedSwap) {
  const auto [seed, k] = GetParam();
  support::Rng rng(seed);
  const Graph g = graph::erdos_renyi_gnm(40, 140, rng, {1, 20}, {1, 15});
  for (int variant = 0; variant < 3; ++variant) {
    Partition p = random_balanced_partition(g, k, rng);
    Constraints c;
    // Tight enough that swaps of unequal weights change the excesses.
    const Weight even = g.total_node_weight() / k;
    if (variant == 0) {
      c.rmax = even + 5;
    } else {
      for (PartId r = 0; r < k; ++r)
        c.rmax_per_part.push_back(even - 10 + 8 * (r % 3));
    }
    if (variant < 2) c.bmax = g.total_edge_weight() / (2 * k);
    MoveContext ctx(g, p, c);
    int adjacent = 0, apart = 0;
    for (int step = 0; step < 300; ++step) {
      const NodeId u = static_cast<NodeId>(rng.uniform_index(g.num_nodes()));
      auto nbrs = g.neighbors(u);
      // Half the probes take a neighbour of u, so both pair kinds occur.
      const NodeId v =
          step % 2 == 0 && !nbrs.empty()
              ? nbrs[rng.uniform_index(nbrs.size())]
              : static_cast<NodeId>(rng.uniform_index(g.num_nodes()));
      const PartId pu = ctx.part_of(u);
      const PartId pv = ctx.part_of(v);
      const Weight w_uv = g.edge_weight_between(u, v);
      const Goodness closed = ctx.goodness_after_swap(u, v, w_uv);
      if (u == v || pu == pv) {
        EXPECT_EQ(closed, ctx.goodness());
      } else {
        (w_uv != 0 ? adjacent : apart) += 1;
        ctx.apply(u, pv);
        EXPECT_EQ(closed, ctx.goodness_after(v, pu)) << "step " << step;
        ctx.apply(v, pu);
        EXPECT_EQ(closed, compute_goodness(g, p, c)) << "step " << step;
        // Keep the swap on odd steps so the state wanders.
        if (step % 2 == 0) {
          ctx.apply(u, pu);
          ctx.apply(v, pv);
        }
      }
      // A random single move now and then unbalances the loads.
      if (step % 5 == 0) {
        ctx.apply(static_cast<NodeId>(rng.uniform_index(g.num_nodes())),
                  static_cast<PartId>(rng.uniform_index(k)));
      }
    }
    EXPECT_GT(adjacent, 0);
    EXPECT_GT(apart, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndK, SwapProperty,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),
                       ::testing::Values(PartId{2}, PartId{3}, PartId{8})));

/// Reference boundary enumeration: full scan against compute_metrics-style
/// adjacency inspection, ascending by id.
std::vector<NodeId> reference_boundary(const Graph& g, const Partition& p) {
  std::vector<NodeId> out;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.neighbors(u)) {
      if (p[v] != p[u]) {
        out.push_back(u);
        break;
      }
    }
  }
  return out;
}

// The incremental boundary set must equal the full rescan after any move
// sequence, stay ascending, and agree with is_boundary().
class BoundaryProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BoundaryProperty, IncrementalBoundaryMatchesRescan) {
  support::Rng rng(GetParam());
  const Graph g = graph::erdos_renyi_gnm(60, 180, rng, {1, 10}, {1, 9});
  const PartId k = 4;
  Partition p = random_balanced_partition(g, k, rng);
  Constraints c;
  c.rmax = g.total_node_weight() / k + 25;
  MoveContext ctx(g, p, c);
  std::vector<NodeId> enumerated;
  for (int step = 0; step < 300; ++step) {
    const NodeId u = static_cast<NodeId>(rng.uniform_index(g.num_nodes()));
    const PartId q = static_cast<PartId>(rng.uniform_index(k));
    ctx.apply(u, q);
    // Enumerate at varying cadence so both the compact-and-sort path and
    // the dense-rescan path get exercised with stale entries present.
    if (step % 7 == 0) {
      ctx.boundary_nodes(enumerated);
      EXPECT_EQ(enumerated, reference_boundary(g, p)) << "step " << step;
      EXPECT_TRUE(std::is_sorted(enumerated.begin(), enumerated.end()));
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        const bool listed = std::binary_search(enumerated.begin(),
                                               enumerated.end(), v);
        EXPECT_EQ(listed, ctx.is_boundary(v));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoundaryProperty,
                         ::testing::Values(11, 12, 13, 14));

TEST(MoveContext, ResetReusesAcrossGraphs) {
  // One context armed on graphs of different sizes and k must behave like a
  // freshly constructed one each time (the workspace reuse pattern).
  support::Rng rng(21);
  MoveContext ctx;
  for (int round = 0; round < 4; ++round) {
    const NodeId n = round % 2 == 0 ? 80 : 30;
    const PartId k = round % 2 == 0 ? 6 : 3;
    support::Rng ground = rng.derive(round);
    const Graph g = graph::erdos_renyi_gnm(n, n * 3, ground, {1, 8}, {1, 6});
    Partition p = random_balanced_partition(g, k, ground);
    Partition p_copy = p;
    Constraints c;
    c.rmax = g.total_node_weight() / k + 10;
    c.bmax = 30;
    ctx.reset(g, p, c);
    MoveContext fresh(g, p_copy, c);
    EXPECT_EQ(ctx.goodness(), fresh.goodness());
    EXPECT_EQ(ctx.boundary_nodes(), fresh.boundary_nodes());
    for (int step = 0; step < 50; ++step) {
      const NodeId u = static_cast<NodeId>(ground.uniform_index(n));
      const PartId q = static_cast<PartId>(ground.uniform_index(k));
      ctx.apply(u, q);
      fresh.apply(u, q);
      EXPECT_EQ(ctx.goodness(), fresh.goodness());
    }
    EXPECT_EQ(ctx.boundary_nodes(), fresh.boundary_nodes());
  }
}

TEST(MoveContext, ConnMatchesAdjacency) {
  graph::GraphBuilder b(4);
  b.add_edge(0, 1, 3);
  b.add_edge(0, 2, 5);
  b.add_edge(0, 3, 7);
  const Graph g = b.build();
  Partition p(4, 2);
  p.set(0, 0);
  p.set(1, 0);
  p.set(2, 1);
  p.set(3, 1);
  MoveContext ctx(g, p, Constraints{});
  EXPECT_EQ(ctx.conn(0, 0), 3);
  EXPECT_EQ(ctx.conn(0, 1), 12);
  EXPECT_EQ(ctx.conn(1, 0), 3);
  EXPECT_EQ(ctx.conn(1, 1), 0);
  EXPECT_EQ(ctx.cut(), 12);
}

TEST(MoveContext, MoveToSamePartIsNoop) {
  graph::GraphBuilder b(2);
  b.add_edge(0, 1, 1);
  const Graph g = b.build();
  Partition p(2, 2);
  p.set(0, 0);
  p.set(1, 1);
  MoveContext ctx(g, p, Constraints{});
  const Goodness before = ctx.goodness();
  ctx.apply(0, 0);
  EXPECT_TRUE(before == ctx.goodness());
  EXPECT_TRUE(before == ctx.goodness_after(0, 0));
}

TEST(MoveContext, BoundaryDetection) {
  graph::GraphBuilder b(4);
  b.add_edge(0, 1, 1);
  b.add_edge(2, 3, 1);
  const Graph g = b.build();
  Partition p(4, 2);
  p.set(0, 0);
  p.set(1, 0);
  p.set(2, 1);
  p.set(3, 1);
  MoveContext ctx(g, p, Constraints{});
  EXPECT_FALSE(ctx.is_boundary(0));
  EXPECT_TRUE(ctx.boundary_nodes().empty());
  ctx.apply(1, 1);
  EXPECT_TRUE(ctx.is_boundary(0));
  EXPECT_TRUE(ctx.is_boundary(1));
}

TEST(MoveContext, BestMoveRespectsEmptying) {
  graph::GraphBuilder b(3);
  b.add_edge(0, 1, 5);
  b.add_edge(1, 2, 1);
  const Graph g = b.build();
  Partition p(3, 2);
  p.set(0, 0);
  p.set(1, 1);
  p.set(2, 1);
  MoveContext ctx(g, p, Constraints{});
  // Node 0 alone in part 0: no move allowed unless emptying permitted.
  EXPECT_FALSE(ctx.best_move(0).has_value());
  EXPECT_TRUE(ctx.best_move(0, /*allow_emptying=*/true).has_value());
  // Node 1 should prefer joining node 0 (cut 6 -> 1).
  const auto cand = ctx.best_move(1);
  ASSERT_TRUE(cand.has_value());
  EXPECT_EQ(cand->target, 0);
  EXPECT_EQ(cand->after.cut, 1);
}

TEST(MoveContext, PartSizeTracking) {
  support::Rng rng(9);
  const Graph g = graph::erdos_renyi_gnm(30, 60, rng);
  Partition p = random_balanced_partition(g, 3, rng);
  MoveContext ctx(g, p, Constraints{});
  std::uint32_t total = 0;
  for (PartId q = 0; q < 3; ++q) total += ctx.part_size(q);
  EXPECT_EQ(total, 30u);
  const NodeId u = 0;
  const PartId from = ctx.part_of(u);
  const PartId to = (from + 1) % 3;
  const auto before_from = ctx.part_size(from);
  const auto before_to = ctx.part_size(to);
  ctx.apply(u, to);
  EXPECT_EQ(ctx.part_size(from), before_from - 1);
  EXPECT_EQ(ctx.part_size(to), before_to + 1);
}

TEST(MoveContext, RejectsIncompletePartition) {
  graph::GraphBuilder b(2);
  b.add_edge(0, 1, 1);
  const Graph g = b.build();
  Partition p(2, 2);
  p.set(0, 0);  // node 1 unassigned
  EXPECT_THROW(MoveContext(g, p, Constraints{}), std::invalid_argument);
}

}  // namespace
}  // namespace ppnpart::part
