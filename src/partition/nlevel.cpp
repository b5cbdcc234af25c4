#include "partition/nlevel.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "partition/coarsen_cache.hpp"
#include "partition/initial.hpp"
#include "partition/phase_profile.hpp"
#include "partition/refine.hpp"
#include "partition/workspace.hpp"
#include "support/hash.hpp"
#include "support/timer.hpp"

namespace ppnpart::part {

namespace {

constexpr const char* kTraceCat = "nlevel";

/// Hash-map adjacency graph supporting single-edge contraction and exact
/// un-contraction (the n-level hierarchy is the stack of contractions).
class DynamicGraph {
 public:
  explicit DynamicGraph(const Graph& g)
      : adj_(g.num_nodes()), weight_(g.num_nodes()), alive_(g.num_nodes(), true) {
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      weight_[u] = g.node_weight(u);
      auto nbrs = g.neighbors(u);
      auto wgts = g.edge_weights(u);
      adj_[u].reserve(nbrs.size());
      for (std::size_t i = 0; i < nbrs.size(); ++i) adj_[u][nbrs[i]] = wgts[i];
    }
    alive_count_ = g.num_nodes();
  }

  struct Contraction {
    NodeId kept;
    NodeId removed;
    Weight removed_weight;
    /// removed's full adjacency at contraction time (includes kept).
    std::vector<std::pair<NodeId, Weight>> removed_edges;
  };

  NodeId alive_count() const { return alive_count_; }
  bool alive(NodeId u) const { return alive_[u]; }
  Weight node_weight(NodeId u) const { return weight_[u]; }
  const std::unordered_map<NodeId, Weight>& neighbors(NodeId u) const {
    return adj_[u];
  }

  /// Contracts edge (kept, removed): removed's edges fold into kept,
  /// parallel edges merge by weight sum, the (kept, removed) edge becomes
  /// a discarded self loop. O(deg(removed)).
  Contraction contract(NodeId kept, NodeId removed) {
    Contraction rec;
    rec.kept = kept;
    rec.removed = removed;
    rec.removed_weight = weight_[removed];
    rec.removed_edges.assign(adj_[removed].begin(), adj_[removed].end());

    for (const auto& [x, w] : rec.removed_edges) {
      adj_[x].erase(removed);
      if (x == kept) continue;
      adj_[kept][x] += w;
      adj_[x][kept] += w;
    }
    adj_[removed].clear();
    weight_[kept] += weight_[removed];
    alive_[removed] = false;
    --alive_count_;
    return rec;
  }

  /// Exactly reverses the matching contract() call (records must be undone
  /// in LIFO order).
  void uncontract(const Contraction& rec) {
    alive_[rec.removed] = true;
    ++alive_count_;
    weight_[rec.kept] -= rec.removed_weight;
    for (const auto& [x, w] : rec.removed_edges) {
      adj_[rec.removed][x] = w;
      adj_[x][rec.removed] = w;
      if (x == rec.kept) continue;
      auto it = adj_[rec.kept].find(x);
      it->second -= w;
      if (it->second == 0) {
        adj_[rec.kept].erase(it);
        adj_[x].erase(rec.kept);
      }
    }
  }

 private:
  std::vector<std::unordered_map<NodeId, Weight>> adj_;
  std::vector<Weight> weight_;
  std::vector<bool> alive_;
  NodeId alive_count_ = 0;
};

/// Incremental goodness bookkeeping over the *dynamic* graph (MoveContext
/// only handles static CSR graphs). Tracks per-part loads and the pairwise
/// cut matrix across alive nodes.
class DynamicPartitionState {
 public:
  DynamicPartitionState(const DynamicGraph& dg, std::vector<PartId>& part,
                        PartId k, const Constraints& c)
      : dg_(&dg), part_(&part), k_(k), c_(c),
        loads_(static_cast<std::size_t>(k), 0),
        pairwise_(static_cast<std::size_t>(k) * k, 0) {
    rebuild();
  }

  /// Recomputes loads and pairwise cuts from scratch (O(alive edges)).
  void rebuild() {
    std::fill(loads_.begin(), loads_.end(), Weight{0});
    std::fill(pairwise_.begin(), pairwise_.end(), Weight{0});
    const std::size_t n = part_->size();
    for (NodeId u = 0; u < n; ++u) {
      if (!dg_->alive(u)) continue;
      loads_[static_cast<std::size_t>((*part_)[u])] += dg_->node_weight(u);
      for (const auto& [v, w] : dg_->neighbors(u)) {
        if (u < v && (*part_)[u] != (*part_)[v]) add_pair((*part_)[u], (*part_)[v], w);
      }
    }
  }

  Weight load(PartId p) const { return loads_[static_cast<std::size_t>(p)]; }
  Weight pair_cut(PartId a, PartId b) const {
    return pairwise_[static_cast<std::size_t>(a) * k_ + b];
  }

  Goodness goodness() const {
    Goodness good;
    for (PartId p = 0; p < k_; ++p)
      good.resource_excess += excess_over(load(p), c_.rmax_of(p));
    for (PartId a = 0; a < k_; ++a) {
      for (PartId b = a + 1; b < k_; ++b) {
        const Weight w = pair_cut(a, b);
        good.cut += w;
        good.bandwidth_excess += excess_over(w, c_.bmax);
      }
    }
    return good;
  }

  /// Moves alive node u to part q, updating loads and pairwise cuts.
  void apply(NodeId u, PartId q) {
    const PartId from = (*part_)[u];
    if (from == q) return;
    loads_[static_cast<std::size_t>(from)] -= dg_->node_weight(u);
    loads_[static_cast<std::size_t>(q)] += dg_->node_weight(u);
    for (const auto& [v, w] : dg_->neighbors(u)) {
      const PartId pv = (*part_)[v];
      if (pv != from) add_pair(from, pv, -w);
      if (pv != q) add_pair(q, pv, w);
    }
    (*part_)[u] = q;
  }

  /// Fills conn[r] with the total weight from u into part r (conn must be
  /// sized k). One O(deg) walk shared by all k target evaluations of u.
  void connectivity_of(NodeId u, std::vector<Weight>& conn) const {
    std::fill(conn.begin(), conn.end(), Weight{0});
    for (const auto& [v, w] : dg_->neighbors(u)) {
      conn[static_cast<std::size_t>((*part_)[v])] += w;
    }
  }

  /// Goodness if u moved to part q, via O(k) incremental deltas over `cur`
  /// (the present goodness) and `conn` (from connectivity_of(u)). Produces
  /// exactly the value that apply(u, q); goodness(); apply(u, from) used to
  /// compute — the excess sums telescope — without touching any state.
  Goodness goodness_if_moved(NodeId u, PartId q, const Goodness& cur,
                             const std::vector<Weight>& conn) const {
    const PartId from = (*part_)[u];
    if (from == q) return cur;
    const Weight w = dg_->node_weight(u);
    Goodness good = cur;
    good.resource_excess +=
        excess_over(load(from) - w, c_.rmax_of(from)) -
        excess_over(load(from), c_.rmax_of(from)) +
        excess_over(load(q) + w, c_.rmax_of(q)) -
        excess_over(load(q), c_.rmax_of(q));
    const Weight cuf = conn[static_cast<std::size_t>(from)];
    const Weight cuq = conn[static_cast<std::size_t>(q)];
    good.cut += cuf - cuq;
    auto bw_delta = [&](Weight old_pair, Weight delta) {
      good.bandwidth_excess += excess_over(old_pair + delta, c_.bmax) -
                               excess_over(old_pair, c_.bmax);
    };
    bw_delta(pair_cut(from, q), cuf - cuq);
    for (PartId r = 0; r < k_; ++r) {
      if (r == from || r == q) continue;
      const Weight cur_r = conn[static_cast<std::size_t>(r)];
      if (cur_r == 0) continue;
      bw_delta(pair_cut(from, r), -cur_r);
      bw_delta(pair_cut(q, r), cur_r);
    }
    return good;
  }

  /// Accounts for node `u` splitting off `v` (both already share a part):
  /// u's load shrinks, v's appears, the (u,v) edge and v's external edges
  /// enter the cut structure. Called right after DynamicGraph::uncontract.
  void on_uncontract(const DynamicGraph::Contraction& rec) {
    // Loads: the part total is unchanged (v inherits u's part), but the
    // pairwise structure must now see v's own external edges instead of
    // their folded copies on u — cheapest correct answer: rebuild locally.
    // v's edges are few (deg(v)), and folded copies were *subtracted* from
    // u by uncontract(), so only edges incident to v need re-adding; all
    // of them currently connect parts identically to before (v is in u's
    // part), so pairwise cuts are in fact unchanged. Nothing to do — kept
    // as an explicit hook (and a place the tests probe).
    (void)rec;
  }

  PartId k() const { return k_; }
  const Constraints& constraints() const { return c_; }

 private:
  void add_pair(PartId a, PartId b, Weight w) {
    pairwise_[static_cast<std::size_t>(a) * k_ + b] += w;
    pairwise_[static_cast<std::size_t>(b) * k_ + a] += w;
  }

  const DynamicGraph* dg_;
  std::vector<PartId>* part_;
  PartId k_;
  Constraints c_;
  std::vector<Weight> loads_;
  std::vector<Weight> pairwise_;
};

}  // namespace

NLevelPartitioner::NLevelPartitioner(NLevelOptions options)
    : options_(options) {}

PartitionResult NLevelPartitioner::run(const Graph& g,
                                       const PartitionRequest& request) {
  if (request.k <= 0)
    throw std::invalid_argument("NLevel: k must be positive");
  support::Timer timer;
  PartitionResult result;
  result.algorithm = name();

  const NodeId n = g.num_nodes();
  const PartId k = request.k;
  const Constraints& c = request.constraints;
  support::Rng rng(request.seed);
  Workspace local_ws;
  Workspace& ws = request.workspace != nullptr ? *request.workspace : local_ws;
  WorkspaceLease lease(ws);
  PhaseContextScope<Workspace> phase_ctx(ws, request.phases, kTraceCat);

  if (n == 0) {
    result.partition = Partition(0, k);
    result.finalize(g, c);
    result.seconds = timer.seconds();
    return result;
  }

  // ---- Coarsening: one heavy edge at a time (lazy max-heap). ----------
  // The heap selection is deterministic and seed-independent, so the pair
  // sequence it produces is a pure function of (graph, stop size). With a
  // CoarseningCache the sequence is built once and replayed in O(deg) per
  // contraction — no heap — for every later run on the same graph.
  DynamicGraph dg(g);
  const NodeId stop =
      std::max<NodeId>(options_.stop_size, static_cast<NodeId>(k));
  std::vector<DynamicGraph::Contraction> stack;
  stack.reserve(n > stop ? n - stop : 0);

  auto heap_coarsen = [&](CoarseningCache::ContractionSeq* record) {
    struct HeapEdge {
      Weight w;
      Weight merged_weight;  // tie-break: prefer lighter merged nodes
      NodeId u, v;
    };
    struct LighterEdge {
      bool operator()(const HeapEdge& a, const HeapEdge& b) const {
        if (a.w != b.w) return a.w < b.w;  // max-heap: heaviest first
        return a.merged_weight > b.merged_weight;
      }
    };
    std::priority_queue<HeapEdge, std::vector<HeapEdge>, LighterEdge> heap;
    auto push_edges_of = [&](NodeId u) {
      for (const auto& [v, w] : dg.neighbors(u)) {
        if (u < v)
          heap.push(HeapEdge{w, dg.node_weight(u) + dg.node_weight(v), u, v});
      }
    };
    for (NodeId u = 0; u < n; ++u) push_edges_of(u);

    while (dg.alive_count() > stop && !heap.empty()) {
      const HeapEdge e = heap.top();
      heap.pop();
      if (!dg.alive(e.u) || !dg.alive(e.v)) continue;
      const auto it = dg.neighbors(e.u).find(e.v);
      if (it == dg.neighbors(e.u).end()) continue;  // edge gone
      if (it->second != e.w ||
          dg.node_weight(e.u) + dg.node_weight(e.v) != e.merged_weight) {
        // Stale key (weights folded since insertion): reinsert fresh.
        heap.push(HeapEdge{
            it->second, dg.node_weight(e.u) + dg.node_weight(e.v), e.u, e.v});
        continue;
      }
      // Keep the lighter endpoint id as the survivor deterministically.
      const NodeId kept =
          dg.node_weight(e.u) <= dg.node_weight(e.v) ? e.u : e.v;
      const NodeId removed = kept == e.u ? e.v : e.u;
      stack.push_back(dg.contract(kept, removed));
      if (record != nullptr) record->emplace_back(kept, removed);
      push_edges_of(kept);
    }
  };

  {
    PhaseScope phase(request.phases, PhaseProfile::kCoarsen, kTraceCat, -1,
                     static_cast<std::int64_t>(n));
    if (request.coarsen_cache != nullptr) {
      const std::uint64_t gkey =
          request.graph_key != 0 ? request.graph_key : graph_digest(g);
      const std::uint64_t okey = support::hash_combine(
          0x6e6c65766c5f6370ull /* "nlevl_cp" */,
          static_cast<std::uint64_t>(stop));
      bool built_here = false;
      const auto seq = request.coarsen_cache->contractions(gkey, okey, [&] {
        CoarseningCache::ContractionSeq s;
        s.reserve(n > stop ? n - stop : 0);
        heap_coarsen(&s);
        built_here = true;
        return s;
      });
      // A hit (or a coalesced wait on another run's build) leaves our
      // dynamic graph untouched: replay the cached pair sequence on it.
      if (!built_here) {
        for (const auto& [kept, removed] : *seq)
          stack.push_back(dg.contract(kept, removed));
      }
    } else {
      heap_coarsen(nullptr);
    }
    phase.arg("contractions", static_cast<std::int64_t>(stack.size()));
    // The phases block's "levels" is the hierarchy depth; for n-level that
    // is the contraction-sequence length (one contraction per level), which
    // the level -1/0 PhaseScopes above cannot record on their own.
    if (request.phases != nullptr)
      request.phases->note_depth(static_cast<std::uint32_t>(stack.size()));
  }

  // ---- Initial partitioning of the coarsest graph. ---------------------
  std::vector<PartId> part(n, 0);
  {
  PhaseScope initial_phase(request.phases, PhaseProfile::kInitial, kTraceCat,
                           -1, static_cast<std::int64_t>(dg.alive_count()),
                           &ws.fm.work);
  // Materialize alive nodes into a static graph for the greedy seeding.
  std::vector<NodeId> alive_nodes;
  alive_nodes.reserve(dg.alive_count());
  for (NodeId u = 0; u < n; ++u)
    if (dg.alive(u)) alive_nodes.push_back(u);

  std::vector<NodeId> dense_of(n, graph::kInvalidNode);
  for (std::size_t i = 0; i < alive_nodes.size(); ++i)
    dense_of[alive_nodes[i]] = static_cast<NodeId>(i);

  graph::GraphBuilder builder(static_cast<NodeId>(alive_nodes.size()));
  for (std::size_t i = 0; i < alive_nodes.size(); ++i) {
    const NodeId u = alive_nodes[i];
    builder.set_node_weight(static_cast<NodeId>(i), dg.node_weight(u));
    for (const auto& [v, w] : dg.neighbors(u)) {
      if (u < v)
        builder.add_edge(static_cast<NodeId>(i), dense_of[v], w);
    }
  }
  const Graph coarsest = builder.build();

  GreedyGrowOptions grow;
  grow.restarts = options_.initial_restarts;
  support::Rng grow_rng = rng.derive(0x91EE);
  Partition coarse_part = greedy_grow_initial(coarsest, k, c, grow, grow_rng);
  FmOptions seed_fm;
  seed_fm.max_passes = 4;
  support::Rng seed_rng = rng.derive(0x91EF);
  constrained_fm_refine(coarsest, coarse_part, c, seed_fm, seed_rng, ws);

  for (std::size_t i = 0; i < alive_nodes.size(); ++i)
    part[alive_nodes[i]] = coarse_part[static_cast<NodeId>(i)];
  }

  // ---- Un-coarsening: pop one contraction, local search around it. ----
  {
  PhaseScope refine_phase(request.phases, PhaseProfile::kRefine, kTraceCat,
                          -1, static_cast<std::int64_t>(n));
  refine_phase.arg("contractions", static_cast<std::int64_t>(stack.size()));
  DynamicPartitionState state(dg, part, k, c);
  std::vector<NodeId> frontier;
  std::vector<Weight> conn_scratch(static_cast<std::size_t>(k), 0);
  for (std::size_t s = stack.size(); s-- > 0;) {
    const DynamicGraph::Contraction& rec = stack[s];
    dg.uncontract(rec);
    part[rec.removed] = part[rec.kept];
    state.on_uncontract(rec);

    // Highly localized search: the un-contracted pair plus its direct
    // neighbourhood, steepest-improving single-node moves. The frontier
    // buffer is reused across the whole un-contraction sweep.
    frontier.clear();
    frontier.push_back(rec.kept);
    frontier.push_back(rec.removed);
    for (const auto& [x, w] : dg.neighbors(rec.kept)) {
      (void)w;
      frontier.push_back(x);
    }
    for (const auto& [x, w] : dg.neighbors(rec.removed)) {
      (void)w;
      frontier.push_back(x);
    }

    std::uint32_t moves = 0;
    const std::uint32_t move_cap =
        options_.local_moves_per_uncontraction == 0
            ? std::numeric_limits<std::uint32_t>::max()
            : options_.local_moves_per_uncontraction;
    bool progress = true;
    while (progress && moves < move_cap) {
      progress = false;
      Goodness current = state.goodness();
      NodeId best_node = graph::kInvalidNode;
      PartId best_target = kUnassigned;
      Goodness best_after = current;
      for (NodeId x : frontier) {
        if (!dg.alive(x)) continue;
        const PartId from = part[x];
        // One O(deg) connectivity walk serves all k targets; each target is
        // then an O(k) delta evaluation of exactly the goodness the old
        // apply-recompute-undo probe produced.
        state.connectivity_of(x, conn_scratch);
        for (PartId q = 0; q < k; ++q) {
          if (q == from) continue;
          const Goodness after =
              state.goodness_if_moved(x, q, current, conn_scratch);
          if (after < best_after) {
            best_after = after;
            best_node = x;
            best_target = q;
          }
        }
      }
      if (best_node != graph::kInvalidNode) {
        state.apply(best_node, best_target);
        ++moves;
        progress = true;
      }
    }
  }
  }

  result.partition = Partition(n, k);
  for (NodeId u = 0; u < n; ++u) result.partition.set(u, part[u]);

  // Final full polish on the finest graph.
  if (options_.final_fm_passes > 0) {
    PhaseScope phase(request.phases, PhaseProfile::kRefine, kTraceCat, 0,
                     static_cast<std::int64_t>(n), &ws.fm.work);
    FmOptions fm;
    fm.max_passes = options_.final_fm_passes;
    // No stopping rule here: after the n-level local search, improvements
    // come after fruitless runs longer than the default window (593 moves
    // on the 10k tracked PN, +5.4% cut with the window), and these passes
    // are a negligible share of an NLevel run.
    fm.stop_after_fruitless = 0;
    support::Rng fm_rng = rng.derive(0xF1AE);
    constrained_fm_refine(g, result.partition, c, fm, fm_rng, ws);
  }

  result.finalize(g, c);
  result.seconds = timer.seconds();
  return result;
}

}  // namespace ppnpart::part
