#include "partition/annealing.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "partition/initial.hpp"
#include "partition/move_context.hpp"
#include "support/timer.hpp"

namespace ppnpart::part {

namespace {

/// Scalarized goodness: any unit of constraint excess outweighs the whole
/// cut. Computed in double — excesses and penalties can exceed int64 when
/// multiplied on large weighted instances.
double energy(const Goodness& good, double penalty) {
  return penalty * (static_cast<double>(good.resource_excess) +
                    static_cast<double>(good.bandwidth_excess)) +
         static_cast<double>(good.cut);
}

}  // namespace

AnnealingPartitioner::AnnealingPartitioner(AnnealingOptions options)
    : options_(options) {
  if (options_.cooling <= 0 || options_.cooling >= 1)
    throw std::invalid_argument("AnnealingOptions: cooling must be in (0,1)");
  if (options_.initial_acceptance <= 0 || options_.initial_acceptance >= 1)
    throw std::invalid_argument(
        "AnnealingOptions: initial_acceptance must be in (0,1)");
}

PartitionResult AnnealingPartitioner::run(const Graph& g,
                                          const PartitionRequest& request) {
  if (request.k <= 0)
    throw std::invalid_argument("Annealing: k must be positive");
  support::Timer timer;
  PartitionResult result;
  result.algorithm = name();

  const NodeId n = g.num_nodes();
  const PartId k = request.k;
  const Constraints& c = request.constraints;
  // Independent per-phase streams from one root seed: the walk and the
  // greedy restarts stay reproducible however the portfolio schedules them.
  support::SeedStream seeds(request.seed);
  support::Rng rng = seeds.rng_for(0);

  // Seed with the paper's greedy growth so annealing starts near-feasible.
  GreedyGrowOptions grow;
  grow.restarts = 4;
  support::Rng grow_rng = seeds.rng_for(1);
  Partition p = greedy_grow_initial(g, k, c, grow, grow_rng);
  MoveContext ctx(g, p, c);

  const double penalty = static_cast<double>(g.total_edge_weight()) + 1.0;
  double current_e = energy(ctx.goodness(), penalty);

  std::vector<PartId> best_assign(p.assignments());
  double best_e = current_e;

  // Calibrate T0 so that `initial_acceptance` of sampled uphill moves pass.
  double t0 = 1.0;
  if (n >= 2 && k >= 2) {
    double sum_abs = 0;
    std::uint32_t samples = 0;
    for (std::uint32_t i = 0; i < 64; ++i) {
      const NodeId u = static_cast<NodeId>(rng.uniform_index(n));
      const PartId q = static_cast<PartId>(rng.uniform_index(k));
      if (q == ctx.part_of(u)) continue;
      const double de =
          energy(ctx.goodness_after(u, q), penalty) - current_e;
      sum_abs += std::abs(de);
      ++samples;
    }
    const double mean = samples > 0 ? sum_abs / samples : 0.0;
    t0 = mean > 0 ? -mean / std::log(options_.initial_acceptance) : 1.0;
  }
  double temperature = t0;

  const std::uint64_t budget =
      static_cast<std::uint64_t>(options_.moves_per_node) * std::max(n, 1u);
  std::uint64_t proposed = 0;
  std::uint32_t stall_steps = 0;

  while (proposed < budget && temperature > options_.min_temperature &&
         n >= 2 && k >= 2) {
    // Cooperative stop at temperature-step granularity; the greedy-grown
    // incumbent above guarantees a complete result either way.
    if (request.stop_requested()) break;
    bool improved_best_this_step = false;
    for (std::uint32_t m = 0;
         m < options_.moves_per_temperature && proposed < budget; ++m) {
      ++proposed;
      const bool do_swap = rng.bernoulli(options_.swap_probability);
      if (do_swap) {
        const NodeId u = static_cast<NodeId>(rng.uniform_index(n));
        const NodeId v = static_cast<NodeId>(rng.uniform_index(n));
        const PartId pu = ctx.part_of(u);
        const PartId pv = ctx.part_of(v);
        if (u == v || pu == pv) continue;
        const double after_e = energy(
            ctx.goodness_after_swap(u, v, g.edge_weight_between(u, v)),
            penalty);
        const double de = after_e - current_e;
        if (de <= 0 ||
            rng.uniform_real() < std::exp(-de / temperature)) {
          ctx.apply(u, pv);
          ctx.apply(v, pu);
          current_e = after_e;
        }
      } else {
        const NodeId u = static_cast<NodeId>(rng.uniform_index(n));
        const PartId from = ctx.part_of(u);
        if (ctx.part_size(from) <= 1) continue;  // never empty a part
        const PartId q = static_cast<PartId>(rng.uniform_index(k));
        if (q == from) continue;
        const double after_e = energy(ctx.goodness_after(u, q), penalty);
        const double de = after_e - current_e;
        if (de <= 0 ||
            rng.uniform_real() < std::exp(-de / temperature)) {
          ctx.apply(u, q);
          current_e = after_e;
        }
      }
      if (current_e < best_e) {
        best_e = current_e;
        best_assign = ctx.partition().assignments();
        improved_best_this_step = true;
      }
    }

    temperature *= options_.cooling;
    if (improved_best_this_step) {
      stall_steps = 0;
    } else if (options_.reheat_after_stall > 0 &&
               ++stall_steps >= options_.reheat_after_stall) {
      // Restart the walk from the incumbent with a warmer temperature.
      for (NodeId u = 0; u < n; ++u) {
        if (ctx.part_of(u) != best_assign[u]) ctx.apply(u, best_assign[u]);
      }
      current_e = best_e;
      temperature = std::min(t0, temperature * 8.0);
      stall_steps = 0;
    }
  }

  result.partition = Partition(n, k);
  for (NodeId u = 0; u < n; ++u) result.partition.set(u, best_assign[u]);
  result.finalize(g, c);
  result.seconds = timer.seconds();
  return result;
}

}  // namespace ppnpart::part
