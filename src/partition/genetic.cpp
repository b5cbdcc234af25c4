#include "partition/genetic.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "partition/initial.hpp"
#include "partition/refine.hpp"
#include "support/timer.hpp"

namespace ppnpart::part {

std::vector<PartId> align_labels(const std::vector<PartId>& parent1,
                                 const std::vector<PartId>& parent2,
                                 PartId k) {
  // agreement[a][b] = #nodes with parent2-label a and parent1-label b.
  std::vector<std::uint32_t> agreement(
      static_cast<std::size_t>(k) * static_cast<std::size_t>(k), 0);
  for (std::size_t u = 0; u < parent1.size(); ++u) {
    agreement[static_cast<std::size_t>(parent2[u]) * k + parent1[u]] += 1;
  }
  // Greedy assignment: repeatedly take the largest remaining cell.
  std::vector<PartId> perm(static_cast<std::size_t>(k), kUnassigned);
  std::vector<bool> row_done(static_cast<std::size_t>(k), false);
  std::vector<bool> col_done(static_cast<std::size_t>(k), false);
  for (PartId step = 0; step < k; ++step) {
    std::uint32_t best = 0;
    PartId best_a = kUnassigned, best_b = kUnassigned;
    for (PartId a = 0; a < k; ++a) {
      if (row_done[static_cast<std::size_t>(a)]) continue;
      for (PartId b = 0; b < k; ++b) {
        if (col_done[static_cast<std::size_t>(b)]) continue;
        const std::uint32_t v =
            agreement[static_cast<std::size_t>(a) * k + b];
        if (best_a == kUnassigned || v > best) {
          best = v;
          best_a = a;
          best_b = b;
        }
      }
    }
    perm[static_cast<std::size_t>(best_a)] = best_b;
    row_done[static_cast<std::size_t>(best_a)] = true;
    col_done[static_cast<std::size_t>(best_b)] = true;
  }
  return perm;
}

GeneticPartitioner::GeneticPartitioner(GeneticOptions options)
    : options_(options) {
  if (options_.population < 2)
    throw std::invalid_argument("GeneticOptions: population must be >= 2");
  if (options_.elites >= options_.population)
    throw std::invalid_argument(
        "GeneticOptions: elites must be < population");
  if (options_.tournament_size == 0)
    throw std::invalid_argument(
        "GeneticOptions: tournament_size must be >= 1");
}

namespace {

struct Individual {
  std::vector<PartId> assign;
  Goodness fitness;
};

bool fitter(const Individual& a, const Individual& b) {
  return a.fitness < b.fitness;
}

/// Ensures the assignment is complete and every part label in [0, k) is
/// legal; empty parts are allowed (metrics handle them), unassigned are not.
void repair(std::vector<PartId>& assign, PartId k, support::Rng& rng) {
  for (PartId& a : assign) {
    if (a < 0 || a >= k)
      a = static_cast<PartId>(rng.uniform_index(static_cast<std::size_t>(k)));
  }
}

}  // namespace

PartitionResult GeneticPartitioner::run(const Graph& g,
                                        const PartitionRequest& request) {
  if (request.k <= 0)
    throw std::invalid_argument("Genetic: k must be positive");
  support::Timer timer;
  PartitionResult result;
  result.algorithm = name();

  const NodeId n = g.num_nodes();
  const PartId k = request.k;
  const Constraints& c = request.constraints;
  // One root seed split into independent streams: stream 0 drives the GA
  // itself, streams 1+i seed the restart that creates population member i.
  support::SeedStream seeds(request.seed);
  support::Rng rng = seeds.rng_for(0);

  FmOptions polish;
  polish.max_passes = options_.polish_fm_passes;
  Workspace ws;

  auto polish_and_eval = [&](std::vector<PartId>& assign,
                             std::uint64_t tag) -> Goodness {
    Partition p(n, k);
    for (NodeId u = 0; u < n; ++u) p.set(u, assign[u]);
    if (options_.polish_fm_passes > 0 && n > 0) {
      support::Rng fm_rng = rng.derive(tag);
      constrained_fm_refine(g, p, c, polish, fm_rng, ws);
    }
    assign = p.assignments();
    return compute_goodness(g, p, c);
  };

  // Initial population: greedy growths from distinct seeds + random fill.
  std::vector<Individual> population;
  population.reserve(options_.population);
  for (std::uint32_t i = 0; i < options_.population; ++i) {
    Individual ind;
    if (i < options_.population / 2) {
      GreedyGrowOptions grow;
      grow.restarts = 1;
      support::Rng grow_rng = seeds.rng_for(1 + i);
      Partition p = greedy_grow_initial(g, k, c, grow, grow_rng);
      ind.assign = p.assignments();
    } else {
      ind.assign.resize(n);
      support::Rng init_rng = seeds.rng_for(1 + i);
      for (NodeId u = 0; u < n; ++u)
        ind.assign[u] = static_cast<PartId>(
            init_rng.uniform_index(static_cast<std::size_t>(k)));
    }
    ind.fitness = polish_and_eval(ind.assign, 0xF0115 + i);
    population.push_back(std::move(ind));
  }
  std::sort(population.begin(), population.end(), fitter);

  Individual incumbent = population.front();
  std::uint32_t stall = 0;

  auto tournament = [&](support::Rng& sel_rng) -> const Individual& {
    std::size_t best = sel_rng.uniform_index(population.size());
    for (std::uint32_t t = 1; t < options_.tournament_size; ++t) {
      const std::size_t challenger = sel_rng.uniform_index(population.size());
      if (population[challenger].fitness < population[best].fitness)
        best = challenger;
    }
    return population[best];
  };

  for (std::uint32_t gen = 0; gen < options_.generations && n > 0; ++gen) {
    // Cooperative stop at generation granularity; the initial population's
    // incumbent guarantees a complete result either way.
    if (request.stop_requested()) break;
    support::Rng gen_rng = rng.derive(0x9E4E + gen);
    std::vector<Individual> next;
    next.reserve(options_.population);
    for (std::uint32_t e = 0; e < options_.elites; ++e)
      next.push_back(population[e]);

    while (next.size() < options_.population) {
      const Individual& p1 = tournament(gen_rng);
      const Individual& p2 = tournament(gen_rng);

      std::vector<PartId> child;
      if (gen_rng.bernoulli(options_.crossover_rate) && k >= 2) {
        // Align parent-2 labels to parent 1, then uniform crossover.
        const std::vector<PartId> perm = align_labels(p1.assign, p2.assign, k);
        child.resize(n);
        for (NodeId u = 0; u < n; ++u) {
          child[u] = gen_rng.bernoulli(0.5)
                         ? p1.assign[u]
                         : perm[static_cast<std::size_t>(p2.assign[u])];
        }
      } else {
        child = p1.assign;
      }
      for (NodeId u = 0; u < n; ++u) {
        if (gen_rng.bernoulli(options_.mutation_rate)) {
          child[u] = static_cast<PartId>(
              gen_rng.uniform_index(static_cast<std::size_t>(k)));
        }
      }
      repair(child, k, gen_rng);

      Individual offspring;
      offspring.assign = std::move(child);
      offspring.fitness = polish_and_eval(
          offspring.assign, (static_cast<std::uint64_t>(gen) << 20) |
                                static_cast<std::uint64_t>(next.size()));
      next.push_back(std::move(offspring));
    }

    population = std::move(next);
    std::sort(population.begin(), population.end(), fitter);
    if (population.front().fitness < incumbent.fitness) {
      incumbent = population.front();
      stall = 0;
    } else if (++stall >= options_.stall_generations) {
      break;
    }
  }

  result.partition = Partition(n, k);
  for (NodeId u = 0; u < n; ++u) result.partition.set(u, incumbent.assign[u]);
  result.finalize(g, c);
  result.seconds = timer.seconds();
  return result;
}

}  // namespace ppnpart::part
