#include "engine/engine.hpp"

#include <algorithm>
#include <condition_variable>
#include <stdexcept>

#include "engine/fingerprint.hpp"
#include "partition/coarsen.hpp"
#include "partition/initial.hpp"
#include "support/contracts.hpp"
#include "support/fault_injection.hpp"
#include "support/prng.hpp"
#include "support/stop_token.hpp"
#include "support/thread_pool.hpp"
#include "support/timer.hpp"
#include "support/trace.hpp"

namespace ppnpart::engine {

using part::goodness_of;

const char* to_string(AdmissionDecision::Path path) {
  switch (path) {
    case AdmissionDecision::Path::kExactHit: return "exact-hit";
    case AdmissionDecision::Path::kWarmStart: return "warm-start";
    case AdmissionDecision::Path::kSimilarity: return "similarity";
    case AdmissionDecision::Path::kFullPortfolio: return "full-portfolio";
    case AdmissionDecision::Path::kShed: return "shed";
  }
  return "?";
}

const char* to_string(AdmissionDecision::DegradeRung rung) {
  switch (rung) {
    case AdmissionDecision::DegradeRung::kFull: return "full";
    case AdmissionDecision::DegradeRung::kCheapMembers: return "cheap-members";
    case AdmissionDecision::DegradeRung::kGpOnly: return "gp-only";
    case AdmissionDecision::DegradeRung::kProjected: return "projected";
  }
  return "?";
}

const char* to_string(ShedPolicy policy) {
  switch (policy) {
    case ShedPolicy::kRejectNew: return "reject_new";
    case ShedPolicy::kDropOldest: return "drop_oldest";
    case ShedPolicy::kDeadlineAware: return "deadline_aware";
  }
  return "?";
}

support::Result<ShedPolicy> parse_shed_policy(const std::string& name) {
  if (name == "reject_new") return ShedPolicy::kRejectNew;
  if (name == "drop_oldest") return ShedPolicy::kDropOldest;
  if (name == "deadline_aware") return ShedPolicy::kDeadlineAware;
  return support::Result<ShedPolicy>::error(
      support::StatusCode::kInvalidArgument,
      "unknown shed policy '" + name +
          "' (expected reject_new | drop_oldest | deadline_aware)");
}

bool is_cheap_member(const std::string& name) {
  return name == "gp" || name == "metislike" || name == "kl" ||
         name == "spectral" || name == "random";
}

namespace {

constexpr const char* kTraceCat = "engine";

/// The admission decision record on the job's trace track: an instant event
/// carrying the path (and decline reason, when a probe fell through).
void trace_decision(std::uint64_t job_id, const AdmissionDecision& d) {
  if (!support::Tracer::global().enabled()) return;
  std::string detail = to_string(d.path);
  if (d.rung != AdmissionDecision::DegradeRung::kFull) {
    detail += "; rung: ";
    detail += to_string(d.rung);
  }
  if (!d.decline_reason.empty()) {
    detail += "; declined: ";
    detail += d.decline_reason;
  }
  support::trace_instant(kTraceCat, "admission", job_id,
                         {{"sim_probed", d.sim_probed ? 1 : 0}}, detail);
}

}  // namespace

/// All mutable state of one in-flight job. Tasks hold it by shared_ptr so a
/// client collecting the outcome early never races task teardown.
struct Engine::JobState {
  Job job;
  JobId id = 0;
  std::uint64_t key = 0;
  std::uint64_t graph_fp = 0;
  /// How admission answered this job; written in admit() before any waiter
  /// can observe `done`, read by repartition() after collecting the outcome.
  Route route = Route::kFull;
  /// False only for run_one's aliasing const& overload: the graph must not
  /// outlive the call, so it never enters the similarity index (and never
  /// leads a near-twin cohort — its answer could not be indexed, so parked
  /// followers would wait behind nothing).
  bool owns_graph = true;
  /// Computed lazily: at the similarity probe, or in finalize_job for
  /// full-path index insertion. Single-owner at every point in time — the
  /// admitting thread writes it, then hands the state to exactly one
  /// continuation (warm-start task, follower resumption, or member
  /// fan-out/finalize), each ordered by a pool submit or a registry mutex.
  std::optional<support::GraphSketch> sketch;
  /// request_compat_fingerprint of this job, cached at the similarity probe
  /// (the pending-leader registry is keyed by it).
  std::uint64_t compat_fp = 0;
  /// This job registered as a near-twin cohort leader in the similarity
  /// index's pending registry; every completion path must resolve it (see
  /// resolve_sim_pending). Written in admit(), cleared by the completion
  /// path — ordered by the same handoffs as `sketch`.
  bool sim_pending_leader = false;
  /// Built up during admit() and, for deferred similarity verdicts, by the
  /// warm-start task (the state's single owner at that point); copied onto
  /// the outcome when the job completes.
  AdmissionDecision decision;
  support::StopToken token;
  support::Timer timer;

  std::mutex m;
  std::condition_variable cv;
  std::vector<MemberOutcome> members;
  bool have_best = false;
  std::size_t best_index = 0;
  part::Goodness best_goodness;
  part::PartitionResult best;
  std::size_t remaining = 0;
  bool done = false;
  bool collected = false;  // outcome moved out by a wait()/poll() winner
  /// Bounded-admission bookkeeping. `holds_slot` (guarded by the engine
  /// mutex_): this job occupies one of the max_running_jobs slots and must
  /// release it in finalize_job. `queued_start`: the queue pump started this
  /// job, so its fan-out must use the pool even from a worker thread — the
  /// waiter is an external client, nothing on this thread blocks on it.
  bool holds_slot = false;
  bool queued_start = false;
  PortfolioOutcome outcome;
  /// Identical-key jobs coalesced onto this one (single-flight); completed
  /// with a copy of this job's outcome by finalize_job. Guarded by `m`,
  /// drained atomically with the `done` flip so no follower is stranded.
  std::vector<std::shared_ptr<JobState>> followers;
};

Engine::Engine(EngineOptions options)
    : options_(std::move(options)),
      cache_(options_.cache_capacity),
      coarsen_cache_(options_.coarsen_cache_capacity),
      incremental_(options_.incremental),
      sim_index_(options_.similarity.enabled ? options_.similarity.capacity
                                             : 0),
      metrics_(options_.metrics != nullptr
                   ? *options_.metrics
                   : support::MetricsRegistry::global()),
      warm_pool_(options_.warm_workspaces) {
  if (options_.portfolio.empty())
    throw std::invalid_argument("Engine: portfolio has no members");
  for (const std::string& name : options_.portfolio.members) {
    if (part::make_partitioner(name) == nullptr)
      throw std::invalid_argument("Engine: unknown portfolio member '" + name +
                                  "'");
  }

  // Intra-member parallelism, capped against oversubscription: concurrent
  // member tasks already occupy the pool, so members x threads must not
  // exceed it. Deterministic mode keeps the cap result-neutral (parallel
  // answers do not depend on the thread count).
  {
    const std::uint32_t pool_size =
        std::max(1u, support::ThreadPool::global().size());
    const std::uint32_t requested = options_.threads_per_job == 0
                                        ? pool_size
                                        : options_.threads_per_job;
    const std::uint32_t cap = std::max(
        1u, pool_size / static_cast<std::uint32_t>(options_.portfolio.size()));
    threads_per_job_ = std::min(requested, cap);
  }

  // Resolve every metric handle once; the hot path then updates plain
  // relaxed atomics without name lookups or registry locks.
  path_metrics_.jobs = &metrics_.counter("engine.jobs");
  path_metrics_.exact_hits = &metrics_.counter("engine.admit.exact_hit");
  path_metrics_.warm_starts = &metrics_.counter("engine.admit.warm_start");
  path_metrics_.sim_served = &metrics_.counter("engine.admit.similarity");
  path_metrics_.sim_declined = &metrics_.counter("engine.admit.sim_decline");
  // Async-stage series: verdicts handed to the pool, and near-twin
  // followers parked behind a pending leader.
  path_metrics_.sim_deferred = &metrics_.counter("engine.admit.sim_deferred");
  path_metrics_.sim_parked = &metrics_.counter("engine.admit.sim_parked");
  path_metrics_.full_runs = &metrics_.counter("engine.admit.full_portfolio");
  // Overload-protection series. `full_portfolio` keeps meaning "routed to
  // stage 3": rejected/shed jobs routed there and were then refused, so
  // they are a subset of it, and degrade counters are a subset of admitted
  // stage-3 jobs.
  path_metrics_.rejected = &metrics_.counter("engine.admit.rejected");
  path_metrics_.shed = &metrics_.counter("engine.admit.shed");
  path_metrics_.degrade_cheap =
      &metrics_.counter("engine.degrade.cheap_members");
  path_metrics_.degrade_gp = &metrics_.counter("engine.degrade.gp_only");
  path_metrics_.degrade_projected =
      &metrics_.counter("engine.degrade.projected");
  path_metrics_.job_us = &metrics_.histogram("engine.job.time_us");
  path_metrics_.warm_us = &metrics_.histogram("engine.warm.time_us");
  member_metrics_.reserve(options_.portfolio.size());
  for (const std::string& name : options_.portfolio.members) {
    MemberMetrics mm;
    mm.span_name = support::intern_name(name);
    const std::string prefix = "engine.member." + name + ".";
    mm.runs = &metrics_.counter(prefix + "runs");
    mm.wins = &metrics_.counter(prefix + "wins");
    mm.losses = &metrics_.counter(prefix + "losses");
    mm.failures = &metrics_.counter(prefix + "failures");
    mm.time_us = &metrics_.histogram(prefix + "time_us");
    member_metrics_.push_back(mm);
  }

  if (options_.queue_capacity > 0) {
    // Auto cap: enough concurrent jobs that their member tasks about fill
    // the pool; a portfolio larger than the pool still runs one at a time.
    max_running_resolved_ =
        options_.max_running_jobs != 0
            ? options_.max_running_jobs
            : std::max<std::size_t>(1, support::ThreadPool::global().size() /
                                           options_.portfolio.size());
  }
}

Engine::~Engine() {
  // Outstanding member tasks capture `this`; drain them before dying.
  std::vector<std::shared_ptr<JobState>> pending;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    pending.reserve(jobs_.size());
    for (auto& [id, state] : jobs_) pending.push_back(state);
  }
  for (auto& state : pending) {
    std::unique_lock<std::mutex> lock(state->m);
    state->cv.wait(lock, [&] { return state->done; });
  }
}

std::uint64_t Engine::job_key(std::uint64_t graph_fp,
                              const part::PartitionRequest& request) const {
  return hash_combine(hash_combine(graph_fp, request_fingerprint(request)),
                      options_.portfolio.fingerprint());
}

std::uint64_t Engine::shared_graph_fingerprint(
    const std::shared_ptr<const graph::Graph>& g) {
  {
    std::lock_guard<std::mutex> lock(fp_mutex_);
    auto it = fp_memo_.find(g.get());
    if (it != fp_memo_.end()) {
      // The weak_ptr doubles as a validity probe: if the original owner
      // died, this address may belong to a different graph by now.
      if (auto live = it->second.graph.lock(); live.get() == g.get())
        return it->second.fp;
      fp_memo_.erase(it);
    }
  }
  const std::uint64_t fp = graph_fingerprint(*g);
  std::lock_guard<std::mutex> lock(fp_mutex_);
  fp_computed_.fetch_add(1, std::memory_order_relaxed);
  if (fp_memo_.size() > 512) {
    for (auto it = fp_memo_.begin(); it != fp_memo_.end();) {
      it = it->second.graph.expired() ? fp_memo_.erase(it) : std::next(it);
    }
  }
  fp_memo_[g.get()] = FpEntry{g, fp};
  return fp;
}

PortfolioOutcome Engine::run_one(const graph::Graph& g,
                                 const part::PartitionRequest& request) {
  // Alias the caller's graph instead of copying it: run_one blocks until
  // the job finishes, so the reference outlives every member task. Aliased
  // graphs must NOT enter the fingerprint memo: a worker's closure can
  // keep the no-op-deleter control block alive briefly after run_one
  // returns, so the weak_ptr probe could validate a dead graph's entry for
  // a new graph at the reused address. Compute the fingerprint directly.
  // For the same lifetime reason admit() gets owns_graph == false: the
  // similarity index must never retain this pointer.
  fp_computed_.fetch_add(1, std::memory_order_relaxed);
  return run_one_impl(
      std::shared_ptr<const graph::Graph>(&g, [](const graph::Graph*) {}),
      request, graph_fingerprint(g), /*owns_graph=*/false);
}

PortfolioOutcome Engine::run_one(std::shared_ptr<const graph::Graph> g,
                                 const part::PartitionRequest& request) {
  if (g == nullptr)
    throw std::invalid_argument("Engine: run_one with null graph");
  const std::uint64_t graph_fp = shared_graph_fingerprint(g);
  return run_one_impl(std::move(g), request, graph_fp, /*owns_graph=*/true);
}

PortfolioOutcome Engine::run_one_impl(std::shared_ptr<const graph::Graph> g,
                                      const part::PartitionRequest& request,
                                      std::uint64_t graph_fp,
                                      bool owns_graph) {
  // Exact-hit fast path before the JobState is even built: a repeated
  // query costs a hash and a lookup, never job bookkeeping or a pool
  // round-trip. The pipeline's stage 1 is told not to look again — the
  // miss was counted here.
  support::Timer timer;
  const std::uint64_t key = job_key(graph_fp, request);
  if (auto cached = cache_.lookup(key)) {
    PortfolioOutcome out = std::move(*cached);
    out.from_cache = true;
    out.seconds = timer.seconds();
    out.decision = AdmissionDecision{};
    out.decision.path = AdmissionDecision::Path::kExactHit;
    path_metrics_.jobs->add();
    path_metrics_.exact_hits->add();
    path_metrics_.job_us->observe(out.seconds * 1e6);
    keep_indexed(g, graph_fp, request, owns_graph, out.best.partition);
    // Every cached hit draws its own id from the job id stream, so trace
    // instants of distinct queries stay distinguishable instead of all
    // collapsing onto id 0. The id never enters jobs_ — there is no
    // JobState to collect.
    std::uint64_t trace_id = 0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      trace_id = next_id_++;
      ++stats_.jobs_completed;
    }
    trace_decision(trace_id, out.decision);
    return out;
  }
  return wait(admit(Job{std::move(g), request}, graph_fp, owns_graph,
                    /*caller_warm=*/nullptr, /*warm_stats=*/nullptr,
                    /*check_cache=*/false)
                  ->id);
}

std::vector<PortfolioOutcome> Engine::run_batch(const std::vector<Job>& jobs) {
  // Enqueue everything first so members of different jobs overlap on the
  // pool, then collect in job order.
  std::vector<JobId> ids;
  ids.reserve(jobs.size());
  for (const Job& job : jobs) ids.push_back(submit(job));
  std::vector<PortfolioOutcome> out;
  out.reserve(ids.size());
  for (JobId id : ids) out.push_back(wait(id));
  return out;
}

std::vector<PortfolioOutcome> Engine::run_batch(std::vector<Job>&& jobs) {
  std::vector<JobId> ids;
  ids.reserve(jobs.size());
  for (Job& job : jobs) ids.push_back(submit(std::move(job)));
  jobs.clear();
  std::vector<PortfolioOutcome> out;
  out.reserve(ids.size());
  for (JobId id : ids) out.push_back(wait(id));
  return out;
}

Engine::JobId Engine::submit(Job job) {
  if (job.graph == nullptr)
    throw std::invalid_argument("Engine: job has no graph");
  const std::uint64_t graph_fp = shared_graph_fingerprint(job.graph);
  return admit(std::move(job), graph_fp, /*owns_graph=*/true,
               /*caller_warm=*/nullptr, /*warm_stats=*/nullptr)
      ->id;
}

std::shared_ptr<Engine::JobState> Engine::admit(
    Job job, std::uint64_t graph_fp, bool owns_graph,
    const WarmStartSeed* caller_warm, part::IncrementalStats* warm_stats,
    bool check_cache) {
  auto state = std::make_shared<JobState>();
  state->job = std::move(job);
  state->graph_fp = graph_fp;
  state->key = job_key(graph_fp, state->job.request);
  state->owns_graph = owns_graph;

  {
    std::lock_guard<std::mutex> lock(mutex_);
    state->id = next_id_++;
    jobs_[state->id] = state;
  }

  // One async span per job, opened on the admitting thread and closed
  // wherever the job completes (an inline serve here, or a pool worker in
  // finalize_job) — async events pair by (cat, name, id) across threads.
  support::trace_async_begin(
      kTraceCat, "job", state->id,
      {{"nodes", static_cast<std::int64_t>(state->job.graph->num_nodes())},
       {"edges", static_cast<std::int64_t>(state->job.graph->num_edges())},
       {"k", static_cast<std::int64_t>(state->job.request.k)},
       {"seed", static_cast<std::int64_t>(state->job.request.seed)}});

  // Stages 1-2 run inline on the admitting thread; an exception must not
  // leave a never-done state behind for ~Engine to wait on forever.
  try {
    // ---- Stage 1: exact fingerprint hit — a finished twin exists. --------
    if (auto cached = check_cache ? cache_.lookup(state->key)
                                  : std::optional<PortfolioOutcome>{}) {
      state->route = Route::kResultCache;
      state->decision.path = AdmissionDecision::Path::kExactHit;
      path_metrics_.exact_hits->add();
      keep_indexed(state->job.graph, graph_fp, state->job.request,
                   owns_graph, cached->best.partition);
      PortfolioOutcome out = std::move(*cached);
      out.from_cache = true;
      serve_inline(state, std::move(out));
      return state;
    }

    // ---- Stage 2: warm start. --------------------------------------------
    // A caller-supplied delta (repartition) is the stronger signal and owns
    // the stage; plain arrivals probe the similarity index instead. Either
    // way a successful warm start is computed fresh ON this job's graph and
    // is never written to the exact result cache — it depends on the
    // previous answer it was seeded from, and the cache key does not.
    if (caller_warm != nullptr) {
      part::IncrementalStats local_warm;
      part::IncrementalStats* wstats =
          warm_stats != nullptr ? warm_stats : &local_warm;
      if (auto warm = run_warm_start(state, *caller_warm, wstats)) {
        state->route = Route::kWarmStart;
        state->decision.path = AdmissionDecision::Path::kWarmStart;
        path_metrics_.warm_starts->add();
        serve_warm(state, *std::move(warm), "incremental",
                   /*similarity_served=*/false);
        return state;
      }
      // Declined: fall through to the portfolio, but keep the reason on
      // the record — "why didn't my delta warm-start" is the first
      // question a trace answers.
      state->decision.decline_reason = wstats->fallback_reason;
    } else if (similarity_enabled() && admit_similarity(state)) {
      return state;
    }
  } catch (...) {
    // A registered cohort leader must not leave parked followers stranded
    // behind a job that never ran.
    resolve_sim_pending(state);
    std::lock_guard<std::mutex> lock(mutex_);
    jobs_.erase(state->id);
    throw;
  }

  // ---- Stage 3: the full portfolio. --------------------------------------
  launch_full(state);
  return state;
}

std::optional<part::PartitionResult> Engine::run_warm_start(
    const std::shared_ptr<JobState>& state, const WarmStartSeed& seed,
    part::IncrementalStats* stats) {
  part::IncrementalStats local;
  part::IncrementalStats& istats = stats != nullptr ? *stats : local;
  if (!seed.prev->complete()) {
    // An untrustworthy warm start declines like every other one (oversized
    // delta, k change): the portfolio answers instead of the service loop
    // throwing.
    istats.fell_back = true;
    istats.fallback_reason = "previous partition incomplete";
    return std::nullopt;
  }
  // Exclusive scratch from the engine-owned pool: concurrent repartition
  // calls each lease their own workspace instead of serializing on one.
  part::WorkspacePool::Lease lease = warm_pool_.acquire();
  part::PartitionRequest req = state->job.request;
  req.workspace = lease.get();
  return incremental_.try_repartition(*state->job.graph, *seed.prev,
                                      seed.node_map, seed.touched, req,
                                      &istats);
}

bool Engine::admit_similarity(const std::shared_ptr<JobState>& state) {
  support::ScopedSpan span(kTraceCat, "sim-probe", state->id);
  state->decision.sim_probed = true;
  state->sketch = support::sketch_of(*state->job.graph);
  state->compat_fp = request_compat_fingerprint(state->job.request);

  // One atomic probe of the index AND the pending-leader registry: a near
  // twin either warm-starts from an indexed entry, parks behind the leader
  // already computing that entry's answer, or becomes the cohort leader
  // itself. This is ALL the submitter pays for a similarity admission — the
  // diff -> verify -> refine verdict runs off-thread.
  SimilarityIndex::ProbeResult probe = sim_index_.probe_or_park(
      *state->sketch, state->compat_fp,
      options_.similarity.min_sketch_similarity, state->id,
      /*may_lead=*/state->owns_graph, state);
  switch (probe.role) {
    case SimilarityIndex::ProbeRole::kMatch:
      span.arg("match_sim_pct",
               static_cast<std::int64_t>(probe.match->similarity * 100));
      spawn_warm_task(state, *std::move(probe.match));
      return true;
    case SimilarityIndex::ProbeRole::kParked:
      // The leader's full-path answer will land in the index; this job's
      // warm start resumes from it (resolve_sim_pending -> resume_follower)
      // instead of racing a duplicate portfolio. The probe's verdict is
      // still open — it is counted when the warm start resolves.
      state->decision.warm_deferred = true;
      span.detail("parked behind pending leader");
      path_metrics_.sim_parked->add();
      {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.similarity.parked;
      }
      return true;
    case SimilarityIndex::ProbeRole::kLeader:
      // First of a cohort nothing was answered for yet: route full, and let
      // finalize/serve_error/serve_inline resume whoever parks behind us.
      state->sim_pending_leader = true;
      state->decision.warm_leader = true;
      span.detail("pending leader");
      [[fallthrough]];
    case SimilarityIndex::ProbeRole::kMiss:
      count_probe_declined(state, "no sketch match");
      return false;
  }
  return false;
}

void Engine::spawn_warm_task(const std::shared_ptr<JobState>& state,
                             SimilarityIndex::Match match) {
  state->decision.warm_deferred = true;
  path_metrics_.sim_deferred->add();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.similarity.deferred;
  }
  try {
    support::ThreadPool::global().submit(
        [this, state, match = std::move(match)]() mutable {
          run_warm_task(state, std::move(match));
        });
  } catch (...) {
    // A failed task submission must not strand the job (the match was
    // consumed by the dead closure): decline to the untouched full path.
    count_probe_declined(state, "warm task submission failed");
    launch_full(state);
  }
}

void Engine::run_warm_task(const std::shared_ptr<JobState>& state,
                           SimilarityIndex::Match match) {
  support::ScopedSpan span(kTraceCat, "sim-warm", state->id);
  support::Timer timer;
  std::optional<part::PartitionResult> warm;
  part::IncrementalStats istats;
  try {
    // Exclusive scratch from the engine-owned pool: concurrent warm-start
    // tasks each lease their own workspace (never shared — the
    // WorkspaceLease guard inside try_repartition still enforces the
    // one-run-per-workspace rule).
    part::WorkspacePool::Lease lease = warm_pool_.acquire();
    part::PartitionRequest req = state->job.request;
    req.workspace = lease.get();
    // The match is a hint; try_repartition_diffed re-derives the exact edit
    // script and verifies its replay is bit-identical to the arriving graph
    // before anything is reused. Declines (diff too large, k change,
    // projected imbalance, reconstruction mismatch) fall through to the
    // full path.
    warm = incremental_.try_repartition_diffed(*match.entry.graph,
                                               *state->job.graph,
                                               match.entry.partition, req,
                                               &istats);
  } catch (const std::exception& e) {
    // The warm start is an optimization; its failure routes to the full
    // path rather than unwinding a pool worker with the job stranded.
    warm.reset();
    istats.fallback_reason = std::string("warm start threw: ") + e.what();
  } catch (...) {
    warm.reset();
    istats.fallback_reason = "warm start threw";
  }
  // Chaos seam: a verification failure must route the job to the untouched
  // full path — the unverified warm start is never served.
  if (warm.has_value() &&
      support::fault_fire(support::FaultSite::kSimilarityVerify)) {
    warm.reset();
    istats.fallback_reason = "injected: similarity verify";
  }
  path_metrics_.warm_us->observe(timer.seconds() * 1e6);
  if (!warm.has_value()) {
    count_probe_declined(state, istats.fallback_reason.empty()
                                    ? "warm start declined"
                                    : istats.fallback_reason);
    // On this worker thread launch_full degrades to a serial member loop —
    // still off the submitter, exactly the inline-admission discipline.
    launch_full(state);
    return;
  }
  state->route = Route::kSimilarity;
  state->decision.path = AdmissionDecision::Path::kSimilarity;
  path_metrics_.sim_served->add();
  // The probe and its verdict are one transaction under ONE mutex_
  // acquisition — even though the verdict lands on a pool thread, a
  // concurrent stats() reader always sees probes == near_hits + declines,
  // never a probe whose outcome is still in flight.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.similarity.probes;
    ++stats_.similarity.near_hits;
  }
  serve_warm(state, *std::move(warm), "similarity", /*similarity_served=*/true);
}

void Engine::count_probe_declined(const std::shared_ptr<JobState>& state,
                                  const std::string& reason) {
  state->decision.decline_reason = reason;
  path_metrics_.sim_declined->add();
  // Same one-transaction rule as the near-hit side of run_warm_task.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.similarity.probes;
    ++stats_.similarity.declines;
  }
}

void Engine::resume_follower(const std::shared_ptr<JobState>& state) {
  // Parked until the leader resolved. Re-probe the index: on leader success
  // its fresh entry is there (finalize_job insert()s BEFORE it resolves the
  // cohort); a miss means the leader failed, degraded or was shed, and this
  // follower falls to the full path.
  std::optional<SimilarityIndex::Match> match;
  if (similarity_enabled())
    match = sim_index_.best_match(*state->sketch, state->compat_fp,
                                  options_.similarity.min_sketch_similarity);
  if (match.has_value()) {
    run_warm_task(state, *std::move(match));
    return;
  }
  count_probe_declined(state, "pending leader produced no warm seed");
  launch_full(state);
}

void Engine::resolve_sim_pending(const std::shared_ptr<JobState>& state) {
  if (!state->sim_pending_leader) return;
  state->sim_pending_leader = false;
  std::vector<std::shared_ptr<void>> parked =
      sim_index_.resolve_pending(state->compat_fp, state->id);
  for (std::shared_ptr<void>& handle : parked) {
    auto follower = std::static_pointer_cast<JobState>(std::move(handle));
    // Each follower resumes as its own pool task, so the leader's
    // completion path never pays N-1 warm starts serially. The `this`
    // capture is safe: the follower sits un-done in jobs_, and ~Engine
    // drains every such job before the engine dies.
    try {
      support::ThreadPool::global().submit(
          [this, follower] { resume_follower(follower); });
    } catch (...) {
      resume_follower(follower);  // degraded: resolve inline, never strand
    }
  }
}

void Engine::serve_warm(const std::shared_ptr<JobState>& state,
                        part::PartitionResult result, const char* winner,
                        bool similarity_served) {
  // The graph now has a fresh, valid answer of its own: index it so the
  // NEXT near-identical arrival warm-starts from this one.
  maybe_index(state, result.partition);
  PortfolioOutcome out;
  out.best = std::move(result);
  out.winner = winner;
  out.similarity = similarity_served;
  MemberOutcome mo;
  mo.algorithm = winner;
  mo.ran = true;
  mo.won = true;
  mo.goodness = goodness_of(out.best);
  mo.seconds = out.best.seconds;
  out.members.push_back(std::move(mo));
  serve_inline(state, std::move(out));
}

void Engine::serve_inline(const std::shared_ptr<JobState>& state,
                          PortfolioOutcome outcome) {
  outcome.key = state->key;
  outcome.seconds = state->timer.seconds();
  outcome.decision = state->decision;
  trace_decision(state->id, state->decision);
  support::trace_async_end(kTraceCat, "job", state->id, {},
                           to_string(state->decision.path));
  path_metrics_.jobs->add();
  path_metrics_.job_us->observe(outcome.seconds * 1e6);
  // Same ordering rule as finalize_job: every engine-member touch (here the
  // stats bump under mutex_) BEFORE `done` is published — the moment a
  // waiter on another thread observes done it may collect the outcome and
  // destroy the Engine, leaving this thread only the JobState shared_ptr.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.jobs_completed;
  }
  // A pending similarity leader can end up here via the projected rung
  // (launch_full -> gate -> serve_projected): its answer was never indexed,
  // so the parked cohort re-probes, misses, and routes full.
  resolve_sim_pending(state);
  {
    std::lock_guard<std::mutex> lock(state->m);
    state->outcome = std::move(outcome);
    state->done = true;
  }
  state->cv.notify_all();
}

void Engine::maybe_index(const std::shared_ptr<JobState>& state,
                         const part::Partition& partition) {
  if (!similarity_enabled() || !state->owns_graph) return;
  // The index replays this partition as a warm-start seed onto graphs that
  // diff cleanly against ours; an incomplete or mis-sized one is never a
  // valid seed.
  PPN_DCHECK(partition.size() == state->job.graph->num_nodes());
  PPN_DCHECK(partition.complete());
  if (!state->sketch.has_value())
    state->sketch = support::sketch_of(*state->job.graph);
  sim_index_.insert({*state->sketch, state->job.graph, state->graph_fp,
                     request_compat_fingerprint(state->job.request),
                     partition});
}

void Engine::keep_indexed(const std::shared_ptr<const graph::Graph>& graph,
                          std::uint64_t graph_fp,
                          const part::PartitionRequest& request,
                          bool owns_graph, const part::Partition& partition) {
  // A repeat uses its graph's entry as much as a sketch match does. Without
  // this, a network whose traffic is all repeats for a while ages out of
  // the LRU index behind other graphs' insertions, and its next edit misses
  // and runs the full portfolio. The sketch is paid only on re-insertion.
  if (!similarity_enabled()) return;
  const std::uint64_t compat_fp = request_compat_fingerprint(request);
  if (sim_index_.touch(graph_fp, compat_fp) || !owns_graph) return;
  sim_index_.insert(
      {support::sketch_of(*graph), graph, graph_fp, compat_fp, partition});
}

void Engine::launch_full(const std::shared_ptr<JobState>& state) {
  auto& pool = support::ThreadPool::global();

  // Stage 3 is the decision (coalescing below shares the leader's WORK, but
  // this job still routed full-portfolio): record it before fan-out.
  state->decision.path = AdmissionDecision::Path::kFullPortfolio;
  path_metrics_.full_runs->add();

  // Single-flight: a running twin of this job exists — attach to it and
  // share its outcome instead of racing a duplicate portfolio. Jobs
  // carrying a caller stop token keep their own cancellation semantics and
  // never coalesce, in either role. Calls from inside the pool never
  // coalesce either: a follower blocks in wait() until the leader's member
  // tasks run, and a blocked worker could be the very thread those tasks
  // need — the same saturation deadlock the serial-degrade below avoids.
  if (state->job.request.stop == nullptr && !pool.on_worker_thread()) {
    while (true) {
      std::shared_ptr<JobState> leader;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        auto [it, inserted] = inflight_.try_emplace(state->key, state);
        if (!inserted) leader = it->second;
      }
      if (leader == nullptr) break;  // we own the key: run the members below
      {
        std::lock_guard<std::mutex> lock(leader->m);
        if (!leader->done) {
          leader->followers.push_back(state);
          trace_decision(state->id, state->decision);
          std::lock_guard<std::mutex> slock(mutex_);
          ++stats_.jobs_coalesced;
          return;
        }
      }
      // The leader finished between the registry lookup and locking it (it
      // has already left inflight_): retry — either we take the key or a
      // newer leader appears.
    }
  }

  // Bounded admission: the gate picks the degradation rung and either lets
  // the job run now, parks it for a free running slot, or sheds it (or a
  // queued victim). Single-flight attach stays ABOVE the gate on purpose —
  // coalescing consumes no capacity. Inline (pool-worker) admissions are
  // exempt: they degrade to serial below and hold no pool slot, and parking
  // one would block a worker the running jobs may need.
  if (options_.queue_capacity > 0 && !pool.on_worker_thread() &&
      !admission_gate(state))
    return;  // queued (pump_queue fans out later) or shed (outcome is done)

  trace_decision(state->id, state->decision);
  fan_out(state);
}

bool Engine::admission_gate(const std::shared_ptr<JobState>& state) {
  using Rung = AdmissionDecision::DegradeRung;
  const std::size_t cap = options_.queue_capacity;
  std::shared_ptr<JobState> victim;
  support::Status refusal;
  bool queued = false;
  bool run_now = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const std::size_t depth = queue_.size();
    const support::StopToken* stop = state->job.request.stop;
    // The ladder is a pure function of (depth snapshot, caller budget): a
    // fixed submission order replays the same rungs.
    Rung rung = Rung::kFull;
    if (options_.degrade_under_load) {
      if (stop != nullptr && stop->seconds_until_deadline() <= 0) {
        // The caller's budget is already gone: the cheapest valid answer
        // NOW beats a queued full answer the caller stopped waiting for.
        rung = Rung::kProjected;
      } else if (2 * depth >= cap) {
        rung = Rung::kGpOnly;
      } else if (4 * depth >= cap) {
        rung = Rung::kCheapMembers;
      }
    }
    state->decision.rung = rung;

    if (rung == Rung::kProjected) {
      // Projected answers are served inline by the admitting thread: no
      // pool slot, no queue entry — they cannot pile up behind the queue.
      run_now = true;
    } else if (running_full_ < max_running_resolved_) {
      ++running_full_;
      state->holds_slot = true;
      run_now = true;
    } else if (options_.shed_policy == ShedPolicy::kDeadlineAware &&
               stop != nullptr &&
               (stop->seconds_until_deadline() <= 0 ||
                (avg_job_seconds_ > 0 &&
                 stop->seconds_until_deadline() <=
                     static_cast<double>(depth + 1) * avg_job_seconds_))) {
      // The deadline cannot survive the drain of the queue ahead (estimated
      // from recent job latency): refuse now instead of computing an answer
      // nobody is still waiting for. An already-expired deadline needs no
      // estimate at all — before the EWMA's first full-path completion seeds
      // it, avg_job_seconds_ is 0 and the drain test alone would wave a
      // whole cold-start burst of unmeetable deadlines into the queue.
      // Live deadlines stay admitted until the predictor has real data:
      // refusing them on a guess would shed meetable work.
      refusal = support::Status::error(
          support::StatusCode::kDeadlineExceeded,
          "engine: deadline expires before " + std::to_string(depth + 1) +
              " queued job(s) can drain");
      ++stats_.jobs_rejected;
      path_metrics_.rejected->add();
    } else if (depth < cap) {
      queue_.push_back(state);
      queued = true;
    } else if (options_.shed_policy == ShedPolicy::kDropOldest) {
      victim = queue_.front();
      queue_.pop_front();
      queue_.push_back(state);
      queued = true;
      ++stats_.jobs_shed;
      path_metrics_.shed->add();
    } else {
      refusal = support::Status::error(
          support::StatusCode::kResourceExhausted,
          "engine: admission queue full (" + std::to_string(cap) +
              " pending)");
      ++stats_.jobs_rejected;
      path_metrics_.rejected->add();
    }

    if ((run_now || queued) && rung != Rung::kFull) {
      ++stats_.jobs_degraded;
      switch (rung) {
        case Rung::kCheapMembers: path_metrics_.degrade_cheap->add(); break;
        case Rung::kGpOnly: path_metrics_.degrade_gp->add(); break;
        case Rung::kProjected: path_metrics_.degrade_projected->add(); break;
        case Rung::kFull: break;
      }
    }
  }

  if (victim != nullptr)
    serve_error(victim,
                support::Status::error(support::StatusCode::kResourceExhausted,
                                       "engine: shed by drop_oldest"));
  if (!refusal.is_ok()) {
    serve_error(state, std::move(refusal));
    return false;
  }
  if (queued) {
    trace_decision(state->id, state->decision);
    return false;
  }
  return run_now;
}

std::vector<std::size_t> Engine::members_for_rung(
    AdmissionDecision::DegradeRung rung) const {
  using Rung = AdmissionDecision::DegradeRung;
  const std::vector<std::string>& members = options_.portfolio.members;
  std::vector<std::size_t> out;
  if (rung == Rung::kCheapMembers) {
    for (std::size_t i = 0; i < members.size(); ++i)
      if (is_cheap_member(members[i])) out.push_back(i);
    // A portfolio of only expensive members still answers: member 0 runs.
    if (out.empty()) out.push_back(0);
    return out;
  }
  if (rung == Rung::kGpOnly) {
    for (std::size_t i = 0; i < members.size(); ++i)
      if (members[i] == "gp") return {i};
    for (std::size_t i = 0; i < members.size(); ++i)
      if (is_cheap_member(members[i])) return {i};
    return {0};
  }
  // kFull (and kProjected, which never reaches the member loop).
  out.resize(members.size());
  for (std::size_t i = 0; i < members.size(); ++i) out[i] = i;
  return out;
}

void Engine::fan_out(const std::shared_ptr<JobState>& state) {
  auto& pool = support::ThreadPool::global();
  if (state->decision.rung == AdmissionDecision::DegradeRung::kProjected) {
    serve_projected(state);
    return;
  }

  const std::size_t n = options_.portfolio.size();
  const std::vector<std::size_t> selected =
      members_for_rung(state->decision.rung);
  {
    std::lock_guard<std::mutex> lock(state->m);
    state->members.resize(n);
    for (std::size_t i = 0; i < n; ++i)
      state->members[i].algorithm = options_.portfolio.members[i];
    // Members outside the rung stay ran == false — the same "skipped" shape
    // cancellation produces, so every consumer already handles it.
    state->remaining = selected.size();
  }
  if (options_.time_budget_ms > 0)
    state->token.set_deadline_after(options_.time_budget_ms / 1e3);
  // A caller-armed request.stop keeps working inside the engine: the job
  // token observes it as a parent, and run_member hands members the job
  // token (which covers budget + quality-gate + caller cancel at once).
  if (state->job.request.stop != nullptr)
    state->token.set_parent(state->job.request.stop);

  if (pool.on_worker_thread() && !state->queued_start) {
    // Called from inside the pool (e.g. a client task): fanning out and
    // blocking would deadlock a saturated pool, so degrade to serial.
    // (Pump-started jobs fan onto the pool even from a worker: their waiter
    // is an external client thread, nothing on this thread blocks on them.)
    for (std::size_t i : selected) run_member(state, i);
  } else {
    for (std::size_t si = 0; si < selected.size(); ++si) {
      // Futures are intentionally dropped: completion is tracked by
      // `remaining`, and packaged_task keeps the shared state alive.
      try {
        // Chaos seam: an injected submit failure exercises the same
        // unsubmitted-tail accounting a real allocation failure would.
        if (support::fault_fire(support::FaultSite::kPoolTask))
          throw support::FaultInjected("injected: pool task submit");
        const std::size_t i = selected[si];
        pool.submit([this, state, i] { run_member(state, i); });
      } catch (...) {
        // A failed submit (e.g. allocation) must not unwind out of here:
        // already-queued members keep running — and run_one's const&
        // overload aliases the caller's graph, which only stays valid
        // while the caller blocks in wait(). Account the unsubmitted tail
        // as failed so `remaining` reaches zero and waiters never hang.
        bool finished = false;
        {
          std::lock_guard<std::mutex> lock(state->m);
          for (std::size_t sj = si; sj < selected.size(); ++sj) {
            state->members[selected[sj]].failed = true;
            state->members[selected[sj]].error =
                "engine: task submission failed";
          }
          state->remaining -= selected.size() - si;
          finished = state->remaining == 0;
        }
        if (finished) finalize_job(state);
        break;
      }
    }
  }
}

void Engine::pump_queue() {
  // Collect starts under the lock, fan out after it: fan_out takes state->m
  // and pool locks that must not nest under mutex_.
  std::vector<std::shared_ptr<JobState>> start;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    while (!queue_.empty() && running_full_ < max_running_resolved_) {
      std::shared_ptr<JobState> next = queue_.front();
      queue_.pop_front();
      ++running_full_;
      next->holds_slot = true;
      next->queued_start = true;
      start.push_back(std::move(next));
    }
  }
  for (const std::shared_ptr<JobState>& s : start) fan_out(s);
}

void Engine::serve_error(const std::shared_ptr<JobState>& state,
                         support::Status status) {
  // Same ordering rule as finalize_job: every engine-member touch before
  // the `done` flip — a waiter may destroy the Engine the moment it
  // observes done.
  PortfolioOutcome snapshot;
  {
    std::lock_guard<std::mutex> lock(state->m);
    state->decision.path = AdmissionDecision::Path::kShed;
    PortfolioOutcome& out = state->outcome;
    out.status = std::move(status);
    out.key = state->key;
    out.decision = state->decision;
    out.seconds = state->timer.seconds();
    snapshot = out;
  }
  trace_decision(state->id, state->decision);
  support::trace_async_end(kTraceCat, "job", state->id, {},
                           snapshot.status.to_string());
  {
    // A shed single-flight leader must leave the registry before `done`, so
    // a racing twin can take the key and compute a real answer.
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = inflight_.find(state->key);
    if (it != inflight_.end() && it->second == state) inflight_.erase(it);
  }
  // A shed/refused pending similarity leader never indexed an answer: its
  // parked cohort re-probes, misses, and falls to the full path — shedding
  // the leader sheds only the leader.
  resolve_sim_pending(state);

  std::vector<std::shared_ptr<JobState>> followers;
  {
    std::lock_guard<std::mutex> lock(state->m);
    followers.swap(state->followers);
    state->done = true;
  }
  state->cv.notify_all();

  if (!followers.empty()) {
    // Followers share the leader's fate — and its typed error. Account them
    // while they still pin the engine in jobs_ (see finalize_job).
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stats_.jobs_shed += followers.size();
    }
    path_metrics_.shed->add(followers.size());
    for (const std::shared_ptr<JobState>& f : followers) {
      resolve_sim_pending(f);  // same stranding rule as the leader above
      {
        std::lock_guard<std::mutex> lock(f->m);
        f->decision.path = AdmissionDecision::Path::kShed;
        f->outcome = snapshot;
        f->outcome.coalesced = true;
        f->outcome.decision = f->decision;
        f->outcome.seconds = f->timer.seconds();
        support::trace_async_end(kTraceCat, "job", f->id, {}, "shed");
        f->done = true;
      }
      f->cv.notify_all();
    }
  }
}

void Engine::serve_projected(const std::shared_ptr<JobState>& state) {
  support::ScopedSpan span(kTraceCat, "projected", state->id);
  const graph::Graph& g = *state->job.graph;
  const part::PartitionRequest& req = state->job.request;
  support::Timer timer;
  part::PartitionResult result;
  try {
    part::CoarsenOptions copts;
    std::shared_ptr<const part::Hierarchy> h;
    if (options_.coarsen_cache_capacity > 0) {
      // Reuse (or build) the canonical hierarchy every multilevel member
      // shares — under overload it is usually already hot.
      h = coarsen_cache_.hierarchy(state->graph_fp, copts, g);
    } else {
      support::Rng coarsen_rng(hash_combine(req.seed, 0x70726f6aull));
      h = std::make_shared<const part::Hierarchy>(
          part::coarsen(g, copts, coarsen_rng));
    }
    const graph::Graph& coarsest = h->num_levels() == 1 ? g : h->coarsest();
    part::GreedyGrowOptions gopts;
    gopts.parallel = false;  // the saturated pool is the reason we're here
    support::Rng grow_rng(hash_combine(req.seed, 0x70726f6a32ull));
    part::Partition coarse = part::greedy_grow_initial(
        coarsest, req.k, req.constraints, gopts, grow_rng);
    std::vector<part::PartId> assign;
    if (h->num_levels() <= 1) {
      assign = coarse.assignments();
    } else {
      // Cached hierarchies drop graphs[0] (every consumer holds the finest
      // graph), so project to level 1 and walk the last map against g.
      std::vector<part::PartId> lvl1 =
          h->project_to_level(coarse.assignments(), 1);
      assign.resize(g.num_nodes());
      for (graph::NodeId u = 0; u < g.num_nodes(); ++u)
        assign[u] = lvl1[h->maps[0][u]];
    }
    result.partition = part::Partition(g.num_nodes(), req.k);
    for (graph::NodeId u = 0; u < g.num_nodes(); ++u)
      result.partition.set(u, assign[u]);
    result.finalize(g, req.constraints);
    result.algorithm = "projected";
    result.seconds = timer.seconds();
  } catch (...) {
    serve_error(state,
                support::Status::error(support::StatusCode::kInternal,
                                       "engine: projected answer failed"));
    return;
  }
  span.arg("cut", static_cast<std::int64_t>(result.metrics.total_cut));

  // A projected answer is a valid, complete partition but is NEVER cached
  // or similarity-indexed: the rung depends on transient load, the cache
  // key does not (serve_inline touches neither).
  PortfolioOutcome out;
  out.best = std::move(result);
  out.winner = "projected";
  MemberOutcome mo;
  mo.algorithm = "projected";
  mo.ran = true;
  mo.won = true;
  mo.goodness = goodness_of(out.best);
  mo.seconds = out.best.seconds;
  out.members.push_back(std::move(mo));
  serve_inline(state, std::move(out));
}

void Engine::run_member(const std::shared_ptr<JobState>& state,
                        std::size_t index) {
  // Skip members that lost the race: cancellation fired and a best answer
  // already exists. (On budget expiry with no answer yet, everyone still
  // runs — each returns its first-checkpoint solution quickly.)
  bool skip = false;
  {
    std::lock_guard<std::mutex> lock(state->m);
    skip = state->token.stop_requested() && state->have_best;
  }

  MemberOutcome mo;
  part::PartitionResult result;
  bool have_result = false;
  if (!skip) {
    const MemberMetrics& mm = member_metrics_[index];
    support::Timer member_timer;
    {
      // One span per member run, on the worker's own track, tied to the
      // job's async span by id; it carries the member's derived seed going
      // in and its outcome (cut, feasibility) coming out.
      support::ScopedSpan span(kTraceCat, mm.span_name, state->id);
      try {
        // Chaos seam: an injected member failure takes the same catch path
        // a real partitioner exception does — accounted, never fatal.
        if (support::fault_fire(support::FaultSite::kMemberRun))
          throw support::FaultInjected("injected: member run (" +
                                       options_.portfolio.members[index] +
                                       ")");
        auto algo = part::make_partitioner(options_.portfolio.members[index]);
        part::PartitionRequest req = state->job.request;
        // A caller-supplied workspace or phase profile is single-run state
        // ("NEVER share across threads"); members run concurrently, so each
        // must fall back to its own locals instead of aliasing them.
        req.workspace = nullptr;
        req.phases = nullptr;
        // Stream `index` of the job seed: independent across members, stable
        // across scheduling orders.
        req.seed =
            support::SeedStream(state->job.request.seed).seed_for(index);
        req.stop = &state->token;
        // Intra-member parallelism (capped in the constructor). Members run
        // on pool workers, where nested fan-out degrades to inline serial
        // execution — harmless because deterministic parallel results do
        // not depend on the executing thread count.
        req.threads = threads_per_job_;
        span.arg("seed", static_cast<std::int64_t>(req.seed));
        // Coarsening reuse: hand every member the engine's cache plus the
        // job's memoized graph identity, so the multilevel members share one
        // canonical hierarchy per (graph, options) across jobs and members.
        if (options_.coarsen_cache_capacity > 0) {
          req.coarsen_cache = &coarsen_cache_;
          req.graph_key = state->graph_fp;
        }
        result = algo->run(*state->job.graph, req);
        have_result = true;
        mo.ran = true;
        mo.goodness = goodness_of(result);
        span.arg("cut", static_cast<std::int64_t>(result.metrics.total_cut));
        span.arg("feasible", result.feasible ? 1 : 0);
      } catch (const std::exception& e) {
        mo.ran = true;
        mo.failed = true;
        mo.error = e.what();
        span.arg("failed", 1);
        span.detail(mo.error);
      } catch (...) {
        // Never let an escaped exception leak into a dropped future: the
        // `remaining` countdown below must always happen or wait() hangs.
        mo.ran = true;
        mo.failed = true;
        mo.error = "unknown exception";
        span.arg("failed", 1);
      }
    }
    mo.seconds = member_timer.seconds();
    mm.runs->add();
    if (mo.failed) mm.failures->add();
    mm.time_us->observe(mo.seconds * 1e6);
  }

  bool finished = false;
  {
    std::lock_guard<std::mutex> lock(state->m);
    mo.algorithm = state->members[index].algorithm;
    state->members[index] = mo;
    if (have_result) {
      const part::Goodness good = goodness_of(result);
      // Deterministic winner: (goodness, member index), never finish order.
      if (!state->have_best || good < state->best_goodness ||
          (good == state->best_goodness && index < state->best_index)) {
        state->have_best = true;
        state->best_index = index;
        state->best_goodness = good;
        state->best = std::move(result);
      }
      // Quality gate: a good-enough feasible answer stops the rest.
      if (state->best.feasible &&
          (options_.cancel_on_feasible ||
           (options_.cancel_cut_threshold >= 0 &&
            state->best.metrics.total_cut <= options_.cancel_cut_threshold))) {
        state->token.request_stop();
      }
    }
    finished = --state->remaining == 0;
  }
  if (finished) finalize_job(state);
}

void Engine::finalize_job(const std::shared_ptr<JobState>& state) {
  // ORDER MATTERS: every touch of engine members (cache_, stats_, mutex_,
  // inflight_) must happen BEFORE `done` is published — the moment a waiter
  // observes done it may collect the outcome and destroy the Engine,
  // leaving this task with only the JobState shared_ptr to stand on. (The
  // one exception is the follower accounting below, which is pinned by the
  // followers themselves still sitting un-done in jobs_.)
  PortfolioOutcome snapshot;
  std::uint64_t run = 0, skipped = 0, failed = 0;
  {
    std::lock_guard<std::mutex> lock(state->m);
    if (state->have_best) state->members[state->best_index].won = true;
    PortfolioOutcome& out = state->outcome;
    out.key = state->key;
    out.decision = state->decision;
    out.members = state->members;
    out.budget_expired = state->token.deadline_expired();
    out.seconds = state->timer.seconds();
    if (state->have_best) {
      out.best = state->best;
      out.winner = state->members[state->best_index].algorithm;
    } else {
      // No member produced a result (every selected one failed or could not
      // be submitted): a typed error, not a silently empty partition.
      out.status =
          support::Status::error(support::StatusCode::kInternal,
                                 "engine: every portfolio member failed");
    }
    for (const MemberOutcome& mo : state->members) {
      if (mo.failed) ++failed;
      else if (mo.ran) ++run;
      else ++skipped;
    }
    snapshot = out;
  }

  // Per-member win/loss history — the adaptive-portfolio feedback signal.
  // `remaining` hit zero, so no member task writes these entries anymore.
  for (std::size_t i = 0; i < snapshot.members.size(); ++i) {
    const MemberOutcome& mo = snapshot.members[i];
    if (!mo.ran || mo.failed) continue;
    (mo.won ? member_metrics_[i].wins : member_metrics_[i].losses)->add();
  }
  path_metrics_.jobs->add();
  path_metrics_.job_us->observe(snapshot.seconds * 1e6);
  if (!snapshot.winner.empty())
    support::trace_instant(kTraceCat, "winner", state->id, {},
                           snapshot.winner);
  support::trace_async_end(kTraceCat, "job", state->id, {},
                           to_string(snapshot.decision.path));

  // Only complete answers are worth replaying to future twins. Budgets are
  // deliberately not part of the key: a cached answer computed under any
  // budget is a valid (never worse than recomputing) reply to the request.
  // A fired *caller* stop token is different: it truncated this particular
  // run for this particular caller, and the key excludes the token — so
  // caching would serve the degraded answer to future full-effort twins.
  const bool caller_cancelled = state->job.request.stop != nullptr &&
                                state->job.request.stop->stop_requested();
  // A degraded answer is equally excluded: the rung depends on transient
  // load, the cache key does not — caching it would serve reduced-effort
  // answers to future full-effort twins. The kCacheInsert chaos seam models
  // a dropped insert (cache unavailable): future twins recompute, nothing
  // torn, nothing stale.
  const bool degraded =
      snapshot.decision.rung != AdmissionDecision::DegradeRung::kFull;
  if (!snapshot.winner.empty() && !caller_cancelled && !degraded &&
      !support::fault_fire(support::FaultSite::kCacheInsert)) {
    // Cache hygiene contract: only complete partitions of the right shape
    // may be replayed to future twins — a torn entry would poison every
    // exact hit and warm start derived from it.
    PPN_DCHECK(snapshot.best.partition.size() ==
               state->job.graph->num_nodes());
    PPN_DCHECK(snapshot.best.partition.complete());
    cache_.insert(state->key, snapshot);
    // A complete full-path answer also feeds the similarity index, so the
    // next near-identical arrival can warm-start from it. (Followers share
    // the leader's outcome but not its graph identity bookkeeping; only the
    // leader inserts.)
    maybe_index(state, snapshot.best.partition);
  }
  // Resume any near-twins parked behind this job — strictly AFTER
  // maybe_index, so their re-probe finds the fresh entry. On the paths that
  // skipped the insert (degraded, cancelled, failed, chaos) they re-probe,
  // miss, and fall to the full path; either way nobody stays parked.
  resolve_sim_pending(state);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.jobs_completed;
    stats_.members_run += run;
    stats_.members_skipped += skipped;
    stats_.members_failed += failed;
    // Release this job's running slot and feed the deadline-aware policy's
    // latency estimate. Only full-rung completions seed/update the EWMA:
    // degraded rungs finish fast by design, and letting them in would bias
    // the drain estimate low — exactly when overload makes it matter most.
    if (state->holds_slot) --running_full_;
    if (snapshot.decision.rung == AdmissionDecision::DegradeRung::kFull) {
      avg_job_seconds_ =
          avg_job_seconds_ == 0
              ? snapshot.seconds
              : 0.8 * avg_job_seconds_ + 0.2 * snapshot.seconds;
    }
    // Leave the single-flight registry before publishing done, so a racer
    // that finds this state there can rely on attaching or retrying.
    auto it = inflight_.find(state->key);
    if (it != inflight_.end() && it->second == state) inflight_.erase(it);
  }
  // Start queued work into the freed slot — still BEFORE the done flip
  // (the ordering rule above: pump touches queue_/mutex_ and the pool).
  pump_queue();

  // Drain followers atomically with the done flip: a new follower can only
  // attach while !done, so none is stranded after the swap.
  std::vector<std::shared_ptr<JobState>> followers;
  {
    std::lock_guard<std::mutex> lock(state->m);
    followers.swap(state->followers);
    state->done = true;
  }
  state->cv.notify_all();

  if (!followers.empty()) {
    // The engine is still pinned: every follower sits in jobs_ with
    // done == false, and ~Engine waits for them. Account them all before
    // publishing the first follower `done` — after that a follower's
    // waiter may destroy the Engine.
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stats_.jobs_completed += followers.size();
    }
    for (const auto& f : followers) {
      path_metrics_.jobs->add();
      // A coalesced job can itself be a pending similarity leader (it
      // probed, registered, routed full, then attached to this twin): its
      // parked cohort resumes now — the shared answer was already indexed
      // above, so their re-probe finds it.
      resolve_sim_pending(f);
      {
        std::lock_guard<std::mutex> lock(f->m);
        f->outcome = snapshot;
        f->outcome.coalesced = true;
        // The follower's own admission record, not the leader's (it routed
        // full-portfolio and coalesced; the leader may have probed).
        f->outcome.decision = f->decision;
        f->outcome.seconds = f->timer.seconds();
        path_metrics_.job_us->observe(f->outcome.seconds * 1e6);
        support::trace_async_end(kTraceCat, "job", f->id, {}, "coalesced");
        f->done = true;
      }
      f->cv.notify_all();
    }
  }
}

RepartitionOutcome Engine::repartition(const Job& job,
                                       const graph::GraphDelta& delta,
                                       const part::PartitionResult& prev) {
  if (job.graph == nullptr)
    throw std::invalid_argument("Engine: repartition with null graph");
  if (prev.partition.size() != job.graph->num_nodes())
    throw std::invalid_argument(
        "Engine: previous partition does not match the job graph");
  support::Timer timer;

  graph::GraphDelta::Applied applied = delta.apply(*job.graph);
  RepartitionOutcome out;
  out.graph = std::make_shared<const graph::Graph>(std::move(applied.graph));
  out.node_map = std::move(applied.node_map);
  out.touched = std::move(applied.touched);

  // Rekey, don't invalidate: the edited graph is a new immutable object
  // with its own content fingerprint, so the result and coarsening caches
  // see a distinct key — pre-edit entries stay valid for the pre-edit graph
  // and can never be served for the post-edit one. From here the job flows
  // through the same admission pipeline as every other entry point, with
  // the caller's delta seeding stage 2:
  //   stage 1 — a finished FULL answer for exactly the edited graph +
  //             request is a strictly better reply than re-refining, serve
  //             it; stage 2 — warm-started refinement (NOT cached: the
  //             answer depends on `prev`, the cache key does not); stage 3
  //             — the delta was too large or the warm start too skewed, the
  //             portfolio answers and IS cached for future twins.
  const std::uint64_t graph_fp = shared_graph_fingerprint(out.graph);
  const WarmStartSeed seed{&prev.partition, out.node_map, out.touched};
  part::IncrementalStats istats;
  auto state = admit(Job{out.graph, job.request}, graph_fp,
                     /*owns_graph=*/true, &seed, &istats);
  out.outcome = wait(state->id);
  out.outcome.seconds = timer.seconds();

  switch (state->route) {
    case Route::kResultCache:
      out.fallback_reason = "result-cache hit for the edited graph";
      {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.repartition_cache_hits;
      }
      break;
    case Route::kWarmStart:
      out.incremental = true;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.repartitions_incremental;
      }
      break;
    default:
      out.fallback_reason = istats.fallback_reason;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.repartitions_fallback;
      }
      break;
  }
  return out;
}

std::shared_ptr<Engine::JobState> Engine::find_job(JobId id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = jobs_.find(id);
  if (it == jobs_.end())
    throw std::invalid_argument("Engine: unknown or already-collected job id");
  return it->second;
}

PortfolioOutcome Engine::take_outcome(
    const std::shared_ptr<JobState>& state) {
  PortfolioOutcome out;
  {
    std::lock_guard<std::mutex> lock(state->m);
    // Two clients racing wait()/poll() on the same id can both pass
    // find_job before either erases it; only the first may move the
    // outcome out — the loser gets the documented error, not a silently
    // empty result.
    if (state->collected)
      throw std::invalid_argument(
          "Engine: unknown or already-collected job id");
    state->collected = true;
    out = std::move(state->outcome);
  }
  std::lock_guard<std::mutex> lock(mutex_);
  jobs_.erase(state->id);
  return out;
}

std::optional<PortfolioOutcome> Engine::poll(JobId id) {
  auto state = find_job(id);
  {
    std::lock_guard<std::mutex> lock(state->m);
    if (!state->done) return std::nullopt;
  }
  return take_outcome(state);
}

PortfolioOutcome Engine::wait(JobId id) {
  auto state = find_job(id);
  {
    std::unique_lock<std::mutex> lock(state->m);
    state->cv.wait(lock, [&] { return state->done; });
  }
  return take_outcome(state);
}

EngineStats Engine::stats() const {
  EngineStats s;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    s = stats_;
    s.avg_job_seconds = avg_job_seconds_;
  }
  s.cache = cache_.stats();
  s.coarsening = coarsen_cache_.stats();
  // One lock acquisition for the pair, so evictions can never exceed
  // insertions within a snapshot.
  const SimilarityIndex::Counters sim = sim_index_.counters();
  s.similarity.insertions = sim.insertions;
  s.similarity.evictions = sim.evictions;
  s.graph_fingerprints_computed =
      fp_computed_.load(std::memory_order_relaxed);
  // Per-slot growth counters snapshotted at lease release — a leased
  // workspace's live counter is never read here (it belongs to its holder).
  s.repartition_ws_growths = warm_pool_.total_growths();
  s.metrics = metrics_.snapshot();
  return s;
}

void Engine::clear_cache() {
  cache_.clear();
  coarsen_cache_.clear();
  sim_index_.clear();
}

}  // namespace ppnpart::engine
