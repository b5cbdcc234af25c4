#include "partition/spectral.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "graph/algorithms.hpp"
#include "partition/initial.hpp"
#include "partition/refine.hpp"
#include "support/timer.hpp"

namespace ppnpart::part {

std::vector<double> fiedler_vector(const Graph& g,
                                   const SpectralOptions& options,
                                   support::Rng& rng) {
  const NodeId n = g.num_nodes();
  if (n < 2) return {};

  // Power iteration on M = cI - L converges to L's smallest eigenpairs;
  // deflating the constant vector (L's nullspace on connected graphs)
  // leaves the Fiedler vector as the dominant direction.
  std::vector<double> degree(n, 0);
  double max_degree = 0;
  for (NodeId u = 0; u < n; ++u) {
    for (Weight w : g.edge_weights(u)) degree[u] += static_cast<double>(w);
    max_degree = std::max(max_degree, degree[u]);
  }
  const double shift = 2.0 * max_degree + 1.0;

  std::vector<double> x(n), next(n);
  for (NodeId u = 0; u < n; ++u) x[u] = rng.uniform_real(-1.0, 1.0);

  auto deflate_and_normalize = [&](std::vector<double>& v) {
    double mean = std::accumulate(v.begin(), v.end(), 0.0) / n;
    for (double& value : v) value -= mean;
    double norm = std::sqrt(std::inner_product(v.begin(), v.end(), v.begin(), 0.0));
    if (norm < 1e-300) {
      // Degenerate start; re-randomize.
      for (double& value : v) value = rng.uniform_real(-1.0, 1.0);
      mean = std::accumulate(v.begin(), v.end(), 0.0) / n;
      for (double& value : v) value -= mean;
      norm = std::sqrt(std::inner_product(v.begin(), v.end(), v.begin(), 0.0));
    }
    for (double& value : v) value /= norm;
  };
  deflate_and_normalize(x);

  double previous_rayleigh = 0;
  for (std::uint32_t it = 0; it < options.power_iterations; ++it) {
    // next = (shift I - L) x = shift*x - degree*x + A*x
    for (NodeId u = 0; u < n; ++u) {
      double acc = (shift - degree[u]) * x[u];
      auto nbrs = g.neighbors(u);
      auto wgts = g.edge_weights(u);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        acc += static_cast<double>(wgts[i]) * x[nbrs[i]];
      }
      next[u] = acc;
    }
    const double rayleigh =
        std::inner_product(x.begin(), x.end(), next.begin(), 0.0);
    deflate_and_normalize(next);
    x.swap(next);
    if (it > 4 && std::abs(rayleigh - previous_rayleigh) <
                      options.tolerance * std::abs(rayleigh)) {
      break;
    }
    previous_rayleigh = rayleigh;
  }
  return x;
}

namespace {

void spectral_recurse(const Graph& g, const std::vector<NodeId>& original_of,
                      PartId k, PartId offset, const SpectralOptions& options,
                      support::Rng& rng, std::vector<PartId>& assign) {
  if (k <= 1 || g.num_nodes() <= 1) {
    for (NodeId u = 0; u < g.num_nodes(); ++u)
      assign[original_of[u]] = offset;
    return;
  }
  const PartId k0 = k / 2;
  const PartId k1 = k - k0;
  const double fraction = static_cast<double>(k0) / static_cast<double>(k);
  const Weight total = g.total_node_weight();

  std::vector<double> fiedler = fiedler_vector(g, options, rng);
  // Sort by Fiedler value; side 0 takes the prefix up to `fraction` weight.
  std::vector<NodeId> order(g.num_nodes());
  std::iota(order.begin(), order.end(), NodeId{0});
  std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    if (fiedler[a] != fiedler[b]) return fiedler[a] < fiedler[b];
    return a < b;
  });
  Partition p(g.num_nodes(), 2);
  Weight acc = 0;
  const auto target = static_cast<Weight>(
      fraction * static_cast<double>(total));
  for (NodeId u : order) {
    p.set(u, acc < target ? 0 : 1);
    acc += g.node_weight(u);
  }
  // Guard: both sides non-empty.
  if (p.members(0).empty()) p.set(order.front(), 0);
  if (p.members(1).empty()) p.set(order.back(), 1);

  const auto cap0 = static_cast<Weight>(
      std::ceil(options.imbalance * fraction * static_cast<double>(total)));
  const auto cap1 = static_cast<Weight>(std::ceil(
      options.imbalance * (1.0 - fraction) * static_cast<double>(total)));
  Workspace ws;
  bisection_fm_refine(g, p, cap0, cap1, options.fm_passes, rng, ws);

  std::vector<NodeId> side0, side1;
  for (NodeId u = 0; u < g.num_nodes(); ++u) (p[u] == 0 ? side0 : side1).push_back(u);
  if (side0.empty() || side1.empty()) {
    side0.clear();
    side1.clear();
    for (NodeId u = 0; u < g.num_nodes(); ++u)
      (u % 2 == 0 ? side0 : side1).push_back(u);
  }
  auto recurse = [&](const std::vector<NodeId>& side, PartId sub_k,
                     PartId sub_offset) {
    if (side.empty()) return;
    graph::Subgraph sub = graph::induced_subgraph(g, side);
    std::vector<NodeId> sub_original(side.size());
    for (std::size_t i = 0; i < side.size(); ++i)
      sub_original[i] = original_of[side[i]];
    spectral_recurse(sub.graph, sub_original, sub_k, sub_offset, options, rng,
                     assign);
  };
  recurse(side0, k0, offset);
  recurse(side1, k1, offset + k0);
}

}  // namespace

SpectralPartitioner::SpectralPartitioner(SpectralOptions options)
    : options_(options) {}

PartitionResult SpectralPartitioner::run(const Graph& g,
                                         const PartitionRequest& request) {
  support::Timer timer;
  PartitionResult result;
  result.algorithm = name();
  support::Rng rng(request.seed);
  std::vector<PartId> assign(g.num_nodes(), 0);
  std::vector<NodeId> identity(g.num_nodes());
  std::iota(identity.begin(), identity.end(), NodeId{0});
  spectral_recurse(g, identity, request.k, 0, options_, rng, assign);
  result.partition = Partition(g.num_nodes(), request.k);
  for (NodeId u = 0; u < g.num_nodes(); ++u) result.partition.set(u, assign[u]);
  result.finalize(g, request.constraints);
  result.seconds = timer.seconds();
  return result;
}

PartitionResult RandomPartitioner::run(const Graph& g,
                                       const PartitionRequest& request) {
  support::Timer timer;
  PartitionResult result;
  result.algorithm = name();
  support::Rng rng(request.seed);
  result.partition = random_balanced_partition(g, request.k, rng);
  result.finalize(g, request.constraints);
  result.seconds = timer.seconds();
  return result;
}

}  // namespace ppnpart::part
