// perfbench_driver: one run of one workload of the libppnpart benchmark.
//
// Generates the workload's inputs from the seed, sets up the partitioner or
// engine, runs a fixed number of closed-loop requests, validates every
// answer with its own arithmetic, and prints one JSON object with the raw
// measurements. perfbench/run.py turns them into the benchmark's metrics
// (reference-speed scaling, quantiles); README.md defines every field.
//
// Usage:
//   perfbench_driver --workload W --seed S [--seconds T] [--trace 0|1]
//                    [--probe PATH]
//   perfbench_driver --self-test
//   perfbench_driver --print-digests   (seed-0 input digests, to re-pin)
//
// The request count is a function of the workload and --seconds only, never
// of elapsed time. With --probe, the machine-speed probe runs in its own
// process before the first set-up and after each one, before the timed
// phase and after each of its segments, while no request is in flight. With
// --trace 1 the run is made twice on fresh state: once untraced (for the
// tracing overhead) and once with spans on, from which the per-layer
// figures come.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "engine/engine.hpp"
#include "engine/fingerprint.hpp"
#include "graph/delta.hpp"
#include "graph/diff.hpp"
#include "graph/generators.hpp"
#include "partition/partitioner.hpp"
#include "partition/phase_profile.hpp"
#include "partition/workspace.hpp"
#include "support/graph_sketch.hpp"
#include "support/metrics.hpp"
#include "support/prng.hpp"
#include "support/trace.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace ppnpart;
using Clock = std::chrono::steady_clock;
using graph::Graph;
using graph::NodeId;
using graph::Weight;
using part::PartId;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a * 0x9E3779B97F4A7C15ull + b + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// ----------------------------------------------------------------- inputs

constexpr NodeId kNodes = 10000;
constexpr PartId kK = 8;
constexpr double kSlack = 1.15;
constexpr double kBandwidthSlack = 1.3;
// Requests per run at --seconds 10.
constexpr std::size_t kColdAtTen = 40;
constexpr std::size_t kSweepAtTen = 48;
constexpr std::size_t kEvolvingAtTen = 640;

// Seed of the fixed corpus: the PNs of the cold workloads and the bases of
// serve_evolving are the same networks for every run seed (see there).
constexpr std::uint64_t kCorpusSeed = 0xBA5E;

// The tracked PN workload: random_process_network with layers = n / 64.
Graph make_pn(std::uint64_t seed, std::uint64_t index) {
  graph::ProcessNetworkParams params;
  params.num_nodes = kNodes;
  params.layers = kNodes / 64;
  support::Rng rng(mix(seed, index));
  return graph::random_process_network(params, rng);
}

// Rmax = slack * W / k; Bmax = 1.3 * (total edge weight) / (k choose 2) / 2.
part::PartitionRequest make_request(const Graph& g, PartId k, double slack,
                                    std::uint64_t seed) {
  part::PartitionRequest r;
  r.k = k;
  r.seed = seed;
  const double pairs = static_cast<double>(k) * (k - 1) / 2.0;
  r.constraints.rmax = static_cast<Weight>(
      slack * static_cast<double>(g.total_node_weight()) / k);
  r.constraints.bmax = static_cast<Weight>(
      kBandwidthSlack * static_cast<double>(g.total_edge_weight()) / pairs /
      2.0);
  return r;
}

// About `fraction * n` edge edits of `g`: reweights, additions between
// nearby processes and removals. Node ids are stable, so every version of
// an evolving network keeps the same total resource weight.
graph::GraphDelta make_edit(const Graph& g, double fraction,
                            support::Rng& rng) {
  graph::GraphDelta delta(g);
  const NodeId n = g.num_nodes();
  const auto ops = static_cast<std::size_t>(fraction * n);
  for (std::size_t i = 0; i < ops; ++i) {
    const NodeId u = static_cast<NodeId>(rng.uniform_index(n));
    const std::size_t roll = rng.uniform_index(10);
    if (roll < 6 && g.degree(u) > 0) {
      const NodeId v = g.neighbors(u)[rng.uniform_index(g.degree(u))];
      delta.set_edge_weight(u, v,
                            1 + static_cast<Weight>(rng.uniform_index(12)));
    } else if (roll < 9 || g.degree(u) <= 1) {
      const NodeId v = static_cast<NodeId>((u + 1 + rng.uniform_index(64)) % n);
      if (v != u)
        delta.add_edge(u, v, 1 + static_cast<Weight>(rng.uniform_index(12)));
    } else {
      delta.remove_edge(u, g.neighbors(u)[rng.uniform_index(g.degree(u))]);
    }
  }
  return delta;
}

// FNV-1a over everything an answer depends on: the CSR arrays and the
// request fields that change results.
struct Digest {
  std::uint64_t h = 0xCBF29CE484222325ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001B3ull;
    }
  }
  void add(const Graph& g) {
    add(g.num_nodes());
    for (std::uint64_t x : g.xadj()) add(x);
    for (NodeId v : g.adj()) add(v);
    for (Weight w : g.raw_edge_weights()) add(static_cast<std::uint64_t>(w));
    for (Weight w : g.node_weights()) add(static_cast<std::uint64_t>(w));
  }
  void add(const part::PartitionRequest& r) {
    add(static_cast<std::uint64_t>(r.k));
    add(r.seed);
    add(static_cast<std::uint64_t>(r.constraints.rmax));
    add(static_cast<std::uint64_t>(r.constraints.bmax));
    add(r.threads > 1 ? 1 : 0);  // serial or parallel, not the box's cores
  }
};

bool same_csr(const Graph& a, const Graph& b) {
  return a.xadj() == b.xadj() && a.adj() == b.adj() &&
         a.raw_edge_weights() == b.raw_edge_weights() &&
         a.node_weights() == b.node_weights();
}

// ------------------------------------------------------------- validation

// The benchmark's own recomputation of an answer. It uses only the graph's
// CSR arrays and the partition's assignment vector, never the library's
// metrics, and reports every disagreement with what the library claimed.
struct Check {
  bool valid = false;  // complete, sized to the graph, parts in [0, k)
  bool meets = false;  // every load <= Rmax and every pair cut <= Bmax
  Weight cut = 0;
  Weight total_edge_weight = 0;
  std::vector<std::string> contradictions;
};

Check check_answer(const Graph& g, const part::PartitionRequest& req,
                   const part::PartitionResult& r) {
  Check c;
  const std::vector<PartId>& assign = r.partition.assignments();
  const NodeId n = g.num_nodes();
  if (assign.size() != n || r.partition.k() != req.k) {
    c.contradictions.push_back("partition sized " +
                               std::to_string(assign.size()) + "/k=" +
                               std::to_string(r.partition.k()) + " for " +
                               std::to_string(n) + " nodes/k=" +
                               std::to_string(req.k));
    return c;
  }
  const auto k = static_cast<std::size_t>(req.k);
  for (NodeId u = 0; u < n; ++u) {
    if (assign[u] < 0 || static_cast<std::size_t>(assign[u]) >= k) {
      c.contradictions.push_back("node " + std::to_string(u) +
                                 " has part " + std::to_string(assign[u]));
      return c;
    }
  }
  c.valid = true;
  std::vector<Weight> load(k, 0);
  std::vector<Weight> pair(k * k, 0);
  for (NodeId u = 0; u < n; ++u) {
    load[static_cast<std::size_t>(assign[u])] += g.node_weights()[u];
    for (std::uint64_t e = g.xadj()[u]; e < g.xadj()[u + 1]; ++e) {
      const NodeId v = g.adj()[e];
      if (v <= u) continue;
      const Weight w = g.raw_edge_weights()[e];
      c.total_edge_weight += w;
      const auto a = static_cast<std::size_t>(assign[u]);
      const auto b = static_cast<std::size_t>(assign[v]);
      if (a != b) {
        c.cut += w;
        pair[std::min(a, b) * k + std::max(a, b)] += w;
      }
    }
  }
  const Weight max_load = *std::max_element(load.begin(), load.end());
  const Weight max_pair = *std::max_element(pair.begin(), pair.end());
  c.meets = max_load <= req.constraints.rmax && max_pair <= req.constraints.bmax;
  if (r.metrics.total_cut != c.cut)
    c.contradictions.push_back("library cut " +
                               std::to_string(r.metrics.total_cut) +
                               " != recomputed " + std::to_string(c.cut));
  if (r.metrics.max_load != max_load)
    c.contradictions.push_back("library max load " +
                               std::to_string(r.metrics.max_load) +
                               " != recomputed " + std::to_string(max_load));
  if (r.feasible != c.meets)
    c.contradictions.push_back(std::string("library feasible=") +
                               (r.feasible ? "true" : "false") +
                               " but recomputed " +
                               (c.meets ? "meets" : "violates") +
                               " Rmax/Bmax");
  return c;
}

// ---------------------------------------------------------------- machine

struct CpuCounters {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
  std::uint64_t psi_some_us = 0;
  bool psi = false;
};

CpuCounters read_cpu_counters() {
  CpuCounters c;
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  for (int i = 0; i < 8; ++i) {
    std::uint64_t v = 0;
    if (!(stat >> v)) break;
    c.total += v;
    if (i == 7) c.steal = v;
  }
  std::ifstream psi("/proc/pressure/cpu");
  std::string line;
  if (std::getline(psi, line) && line.rfind("some", 0) == 0) {
    const std::size_t at = line.find("total=");
    if (at != std::string::npos) {
      c.psi_some_us = std::strtoull(line.c_str() + at + 6, nullptr, 10);
      c.psi = true;
    }
  }
  return c;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Runs the probe program; returns its JSON line ("" on failure).
std::string run_probe(const std::string& probe, unsigned threads,
                      double warmup_s) {
  const std::string cmd = "'" + probe + "' --threads " +
                          std::to_string(threads) + " --reps 5 --warmup-s " +
                          std::to_string(warmup_s);
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return "";
  std::string out;
  char buf[512];
  while (std::fgets(buf, sizeof buf, pipe) != nullptr) out += buf;
  const int status = pclose(pipe);
  if (status != 0) return "";
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r'))
    out.pop_back();
  return out;
}

// ------------------------------------------------------------------ trace

// Layer of a span, named after the source module under src/ it belongs to.
// The benchmark's own spans carry the layer as their category; the
// library's spans carry "engine" or the partitioner's name. An engine span
// named after a portfolio member times that member's partitioner run.
std::string layer_of(const support::TraceEvent& ev) {
  const std::string cat = ev.cat != nullptr ? ev.cat : "";
  const std::string name = ev.name != nullptr ? ev.name : "";
  if (cat == "engine") {
    for (const std::string& m : engine::Portfolio::defaults().members)
      if (name == m) return "partition";
    return "engine";
  }
  if (cat == "bench" || cat == "graph" || cat == "support") return cat;
  return "partition";
}

std::int64_t arg_of(const support::TraceEvent& ev, const char* key) {
  for (const auto& a : ev.args)
    if (a.key != nullptr && std::strcmp(a.key, key) == 0) return a.value;
  return -1;
}

struct TraceSummary {
  std::map<std::string, double> self_s;  // per layer, all threads
  double request_s = 0;  // total duration of the bench.request spans
  double covered_s = 0;  // self time of the spans nested in them
  std::map<std::string, double> phase_s;  // partition phase self time
  std::uint64_t gp_level0_refines = 0;    // one per GP V-cycle
  std::int64_t max_gp_level = -1;
  std::vector<double> fanout_wait_s;      // per full-portfolio job

  /// Share of the request spans' time that the spans nested in them cover:
  /// 1 when every moment of a request is inside some library or benchmark
  /// call span, less by the gaps no span accounts for.
  double coverage() const { return request_s > 0 ? covered_s / request_s : 0; }
};

TraceSummary summarize(std::vector<support::TraceEvent> events) {
  TraceSummary s;
  std::unordered_map<std::uint64_t, std::uint64_t> job_begin;
  std::unordered_map<std::uint64_t, std::uint64_t> last_member_start;
  std::vector<support::TraceEvent> spans;
  for (const support::TraceEvent& ev : events) {
    if (ev.kind == support::TraceEvent::Kind::kAsyncBegin &&
        std::strcmp(ev.name, "job") == 0)
      job_begin[ev.id] = ev.ts_us;
    if (ev.kind != support::TraceEvent::Kind::kSpan) continue;
    spans.push_back(ev);
    if (std::strcmp(ev.cat, "engine") == 0 && layer_of(ev) == "partition") {
      std::uint64_t& t = last_member_start[ev.id];
      t = std::max(t, ev.ts_us);
    }
  }
  for (const auto& [id, start] : last_member_start) {
    auto it = job_begin.find(id);
    if (it != job_begin.end() && start >= it->second)
      s.fanout_wait_s.push_back(static_cast<double>(start - it->second) * 1e-6);
  }
  // Self time: a span's duration minus the part its children on the same
  // thread cover. Children nest strictly inside their parent.
  std::sort(spans.begin(), spans.end(),
            [](const support::TraceEvent& a, const support::TraceEvent& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
              return a.dur_us > b.dur_us;
            });
  struct Open {
    std::size_t index;
    std::uint64_t end;
    std::uint64_t child_us;
    bool under_request;
  };
  std::vector<double> self_us(spans.size(), 0);
  // Nested in a request span (the request span itself is not).
  std::vector<bool> under_request(spans.size(), false);
  std::vector<Open> stack;
  auto close = [&](const Open& o) {
    const std::uint64_t dur = spans[o.index].dur_us;
    self_us[o.index] = dur > o.child_us ? static_cast<double>(dur - o.child_us)
                                        : 0.0;
  };
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const support::TraceEvent& ev = spans[i];
    while (!stack.empty() &&
           (stack.back().end <= ev.ts_us ||
            spans[stack.back().index].tid != ev.tid)) {
      close(stack.back());
      stack.pop_back();
    }
    const bool is_request = std::strcmp(ev.cat, "bench") == 0 &&
                            std::strcmp(ev.name, "request") == 0;
    if (is_request) s.request_s += static_cast<double>(ev.dur_us) * 1e-6;
    if (!stack.empty()) {
      stack.back().child_us += ev.dur_us;
      under_request[i] = stack.back().under_request;
    }
    stack.push_back({i, ev.ts_us + ev.dur_us, 0,
                     is_request || under_request[i]});
  }
  while (!stack.empty()) {
    close(stack.back());
    stack.pop_back();
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const support::TraceEvent& ev = spans[i];
    const std::string layer = layer_of(ev);
    const double sec = self_us[i] * 1e-6;
    s.self_s[layer] += sec;
    if (under_request[i]) s.covered_s += sec;
    if (layer != "partition") continue;
    const std::string name = ev.name;
    if (name == "coarsen" || name == "initial" || name == "refine")
      s.phase_s[name] += sec;
    if (std::strcmp(ev.cat, "gp") == 0 && name == "refine") {
      const std::int64_t level = arg_of(ev, "level");
      if (level == 0) ++s.gp_level0_refines;
      s.max_gp_level = std::max(s.max_gp_level, level);
    }
  }
  return s;
}

// ----------------------------------------------------------------- output

struct Json {
  std::ostringstream out;
  bool first = true;
  Json() {
    out.precision(10);
    out << "{";
  }
  void key(const std::string& k) {
    out << (first ? "" : ",") << "\"" << k << "\":";
    first = false;
  }
  void num(const std::string& k, double v) {
    key(k);
    if (std::isfinite(v)) out << v;
    else out << "null";
  }
  void str(const std::string& k, const std::string& v) {
    key(k);
    out << "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') out << '\\';
      if (static_cast<unsigned char>(c) >= 0x20) out << c;
    }
    out << "\"";
  }
  void list(const std::string& k, const std::vector<double>& v) {
    key(k);
    out << "[";
    for (std::size_t i = 0; i < v.size(); ++i) out << (i ? "," : "") << v[i];
    out << "]";
  }
  void raw(const std::string& k, const std::string& json) {
    key(k);
    out << (json.empty() ? "null" : json);
  }
  std::string done() {
    out << "}";
    return out.str();
  }
};

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2;
}

// -------------------------------------------------------------- workloads

// One request's answer while it is live: held until it is validated, right
// after the request, and then dropped.
struct Answer {
  std::shared_ptr<const Graph> graph;  // the graph the answer is for
  const part::PartitionRequest* request = nullptr;
  part::PartitionResult result;
  std::shared_ptr<const Graph> engine_graph;  // repartition: engine's graph
};

// What the run keeps of one request.
struct Record {
  bool ok = false;     // the call returned an answer (status ok)
  bool valid = false;  // ok, complete and free of contradictions
  bool meets = false;  // valid and within Rmax and Bmax
  double cut_norm = 0;
  std::vector<std::string> contradictions;
  std::string path;  // admission path, or "direct" for Partitioner::run
  std::string kind;  // serve_evolving: "plain", "delta" or "repeat"
  std::vector<engine::MemberOutcome> members;
  double latency_s = 0;
  double submit_s = 0;  // engine workloads: time inside submit()
  double diff_s = 0;    // delta arrivals: the client's graph::diff
  bool repartition = false;
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual std::size_t requests() const = 0;
  /// Client threads of the closed loop.
  virtual unsigned clients() const { return 1; }
  /// Threads the timed phase keeps busy (the probe uses as many).
  virtual unsigned busy_threads() const = 0;
  /// Untimed client work before request i (building what it sends).
  virtual void prepare(std::size_t) {}
  /// One timed request. prepare/request/release are called from clients()
  /// threads at once, for distinct i.
  virtual void request(std::size_t i, Answer& a, Record& r) = 0;
  /// Untimed, after request i was validated.
  virtual void release(std::size_t) {}
  virtual void collect_layers(std::map<std::string, double>& out,
                              const std::vector<Record>& records) = 0;
  /// Adds every input the requests send to `d`.
  virtual void digest(Digest& d) const = 0;
  /// Per-call timings of the graph generator, taken during set-up.
  std::vector<double> generate_s;
  std::string input_error;

 protected:
  Graph timed_generate(std::uint64_t seed, std::uint64_t index) {
    const auto t0 = Clock::now();
    support::ScopedSpan span("graph", "generate");
    Graph g = make_pn(seed, index);
    generate_s.push_back(seconds_since(t0));
    return g;
  }
};

unsigned hardware_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

// Requests per run at --seconds 10; scaled linearly with --seconds and
// never fewer than 20.
std::size_t scaled(std::size_t at_ten, double seconds) {
  return std::max<std::size_t>(
      20, static_cast<std::size_t>(std::llround(at_ten * seconds / 10.0)));
}

// Distinct PNs partitioned by GP through Partitioner::run with one reused
// Workspace; the engine is never touched.
//
// The PNs are a fixed corpus, the same for every seed, as partitioners are
// compared on a fixed instance set; the seed draws each request's
// partitioner seed. Drawn per seed, the median latency differed between
// seeds by up to 18%, reproducibly (two runs of one seed agreed within
// 4%): the median over 40 PNs did not average the networks' costs out.
class ColdWorkload : public Workload {
 public:
  ColdWorkload(std::uint64_t seed, bool parallel, std::size_t count,
               bool profile)
      : parallel_(parallel),
        profile_(profile),
        gp_(part::make_partitioner("gp")) {
    for (std::size_t i = 0; i < count; ++i) {
      graphs_.push_back(
          std::make_shared<const Graph>(timed_generate(kCorpusSeed, i)));
      part::PartitionRequest r =
          make_request(*graphs_[i], kK, kSlack, mix(seed, i));
      r.threads = parallel ? hardware_threads() : 1;
      requests_.push_back(r);
    }
    profiles_.resize(count);
    growths_before_ = ws_.stats().growths;
  }
  std::size_t requests() const override { return graphs_.size(); }
  unsigned busy_threads() const override {
    return parallel_ ? hardware_threads() : 1;
  }
  void request(std::size_t i, Answer& a, Record& r) override {
    part::PartitionRequest req = requests_[i];
    req.workspace = &ws_;
    if (profile_) req.phases = &profiles_[i];
    a.graph = graphs_[i];
    a.request = &requests_[i];
    r.path = "direct";
    support::ScopedSpan span("partition", "run");
    a.result = gp_->run(*graphs_[i], req);
    r.ok = true;
  }
  void collect_layers(std::map<std::string, double>& out,
                      const std::vector<Record>&) override {
    double levels = 0;
    for (const part::PhaseProfile& p : profiles_) levels += p.max_level + 1;
    out["partition.levels"] = levels / static_cast<double>(profiles_.size());
    out["partition.ws_growths"] =
        static_cast<double>(ws_.stats().growths - growths_before_);
  }
  void digest(Digest& d) const override {
    for (std::size_t i = 0; i < graphs_.size(); ++i) {
      d.add(*graphs_[i]);
      d.add(requests_[i]);
    }
  }

 private:
  bool parallel_;
  bool profile_;
  std::unique_ptr<part::Partitioner> gp_;
  std::vector<std::shared_ptr<const Graph>> graphs_;
  std::vector<part::PartitionRequest> requests_;
  std::vector<part::PhaseProfile> profiles_;
  part::Workspace ws_;
  std::uint64_t growths_before_ = 0;
};

// Shared engine bookkeeping for the two serving workloads.
class EngineWorkload : public Workload {
 protected:
  EngineWorkload() {
    engine::EngineOptions opts;
    opts.similarity.enabled = true;
    opts.metrics = &metrics_;
    engine_ = std::make_unique<engine::Engine>(opts);
  }
  void submit_and_wait(std::shared_ptr<const Graph> g,
                       const part::PartitionRequest& req, Answer& a,
                       Record& r) {
    a.graph = g;
    a.request = &req;
    engine::Engine::JobId id = 0;
    {
      support::ScopedSpan span("engine", "submit");
      const auto t0 = Clock::now();
      id = engine_->submit(engine::Job{std::move(g), req});
      r.submit_s = seconds_since(t0);
    }
    engine::PortfolioOutcome out;
    {
      support::ScopedSpan span("engine", "wait");
      out = engine_->wait(id);
    }
    take(std::move(out), a, r);
  }
  static void take(engine::PortfolioOutcome out, Answer& a, Record& r) {
    r.ok = out.status.ok() && !out.winner.empty();
    r.path = engine::to_string(out.decision.path);
    r.members = std::move(out.members);
    a.result = std::move(out.best);
  }
  void snapshot_before() { before_ = engine_->stats(); }
  void collect_layers(std::map<std::string, double>& out,
                      const std::vector<Record>& records) override {
    const engine::EngineStats now = engine_->stats();
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    auto delta = [](std::uint64_t after, std::uint64_t before) {
      return static_cast<double>(after - before);
    };
    const double hits = delta(now.cache.hits, before_.cache.hits);
    const double misses = delta(now.cache.misses, before_.cache.misses);
    out["engine.cache.hit_ratio"] = ratio(hits, hits + misses);
    const double chits = delta(now.coarsening.hits, before_.coarsening.hits);
    const double cmiss =
        delta(now.coarsening.misses, before_.coarsening.misses);
    out["engine.coarsen_cache.hit_ratio"] = ratio(chits, chits + cmiss);
    out["engine.sim.near_hit_ratio"] =
        ratio(delta(now.similarity.near_hits, before_.similarity.near_hits),
              delta(now.similarity.probes, before_.similarity.probes));
    const double inc = delta(now.repartitions_incremental,
                             before_.repartitions_incremental);
    const double fb =
        delta(now.repartitions_fallback, before_.repartitions_fallback);
    out["engine.repartition.fallback_ratio"] = ratio(fb, inc + fb);
    out["partition.ws_growths"] =
        delta(now.repartition_ws_growths, before_.repartition_ws_growths);
    // Member figures come from the outcomes of full-portfolio jobs.
    double full_jobs = 0;
    double members_run = 0;
    std::map<std::string, std::vector<double>> member_s;
    std::map<std::string, double> wins, setter;
    for (const Record& rec : records) {
      if (rec.path != "full-portfolio") continue;  // cache hits, warm starts
      const engine::MemberOutcome* slowest = nullptr;
      for (const engine::MemberOutcome& m : rec.members) {
        if (!m.ran || m.failed) continue;
        members_run += 1;
        member_s[m.algorithm].push_back(m.seconds);
        if (m.won) wins[m.algorithm] += 1;
        if (slowest == nullptr || m.seconds > slowest->seconds) slowest = &m;
      }
      if (slowest == nullptr) continue;
      full_jobs += 1;
      setter[slowest->algorithm] += 1;
    }
    out["engine.members_run_per_job"] = ratio(members_run, full_jobs);
    for (const std::string& m : engine::Portfolio::defaults().members) {
      out["engine.member." + m + "_s"] = median(member_s[m]);
      out["engine.member." + m + ".wins"] = wins[m];
      out["engine.setter." + m] = ratio(setter[m], full_jobs);
    }
  }

  support::MetricsRegistry metrics_;
  std::unique_ptr<engine::Engine> engine_;
  engine::EngineStats before_;
};

// Fresh PNs swept over K x Rmax slack by closed-loop clients of one engine
// with the default portfolio: every job fans out the whole portfolio, the
// sweep over one graph reuses its coarsening, and similarity always misses.
// Each graph is swept over the three Ks at one slack, alternating between
// graphs: that halves the requests per graph of a full 6-way sweep, and
// doubling the graphs behind a run's median narrows its spread between
// seeds, which came mostly from which graphs a seed drew.
class SweepWorkload : public EngineWorkload {
 public:
  static constexpr PartId kKs[] = {2, 4, 8};
  static constexpr double kSlacks[] = {1.05, 1.3};
  static constexpr std::size_t kPerGraph = 3;

  SweepWorkload(std::uint64_t seed, std::size_t graphs) {
    for (std::size_t i = 0; i < graphs; ++i) {
      graphs_.push_back(std::make_shared<const Graph>(timed_generate(seed, i)));
      for (PartId k : kKs)
        requests_.push_back(
            make_request(*graphs_[i], k, kSlacks[i % 2], seed + i));
    }
    snapshot_before();
  }
  std::size_t requests() const override { return requests_.size(); }
  unsigned clients() const override { return 2; }
  unsigned busy_threads() const override { return hardware_threads(); }
  void request(std::size_t i, Answer& a, Record& r) override {
    submit_and_wait(graphs_[i / kPerGraph], requests_[i], a, r);
  }
  void digest(Digest& d) const override {
    for (const auto& g : graphs_) d.add(*g);
    for (const auto& r : requests_) d.add(r);
  }

 private:
  std::vector<std::shared_ptr<const Graph>> graphs_;
  std::vector<part::PartitionRequest> requests_;
};

// Near twins of answered 10k PNs: every request sends a distinct ~1% edit
// of one of kBases base networks, as a plain graph (similarity admission)
// or as a client-computed delta (graph::diff + Engine::repartition against
// the base's answer), or repeats a base exactly (a result-cache hit).
// Set-up answers the bases; the client builds each edited graph before its
// request, untimed.
//
// The bases are the first corpus networks, the same for every seed, as a
// service keeps answering the networks it tracks; the seed draws the
// edits, their kinds and their order. With bases drawn per seed, the tail
// latency differed by up to 40% between seeds, set by whichever base had
// the costliest warm starts, and repeated runs of one seed agreed within a
// few percent.
class EvolvingWorkload : public EngineWorkload {
 public:
  enum Kind : int { kPlain, kDelta, kRepeat };
  static constexpr std::size_t kBases = 8;

  EvolvingWorkload(std::uint64_t seed, std::size_t count) {
    for (std::size_t b = 0; b < kBases; ++b) {
      Base base;
      base.graph =
          std::make_shared<const Graph>(timed_generate(kCorpusSeed, b));
      base.request = make_request(*base.graph, kK, kSlack, kCorpusSeed + b);
      base.fp = engine::graph_fingerprint(*base.graph);
      base.sketch = support::sketch_of(*base.graph);
      bases_.push_back(std::move(base));
    }
    // Exactly 40% plain, 40% delta and 20% repeat requests, in an order
    // shuffled by the seed: the mix, which sets the latency distribution,
    // does not vary between seeds. The proportions are an assumption, not
    // a measured traffic mix; each kind's latency is reported on its own.
    support::Rng rng(mix(seed, 0xE7017));
    for (std::size_t i = 0; i < count; ++i)
      kinds_.push_back(i % 5 < 2 ? kPlain : i % 5 < 4 ? kDelta : kRepeat);
    for (std::size_t i = count; i > 1; --i)
      std::swap(kinds_[i - 1], kinds_[rng.uniform_index(i)]);
    for (std::size_t i = 0; i < count; ++i)
      edits_.push_back(make_edit(*bases_[i % kBases].graph, 0.01, rng));
    arrivals_.resize(count);
    sketch_s_.resize(count);
    fingerprint_s_.resize(count);
    // Answering the bases is part of setting the engine up: near twins are
    // served from their answers.
    std::vector<engine::Engine::JobId> ids;
    for (const Base& base : bases_)
      ids.push_back(engine_->submit(engine::Job{base.graph, base.request}));
    for (std::size_t b = 0; b < kBases; ++b)
      bases_[b].answer = engine_->wait(ids[b]).best;
    snapshot_before();
  }
  std::size_t requests() const override { return kinds_.size(); }
  // Two clients, as many as the engine's warm-start workspaces by default:
  // one client left the pool idling between its short requests, and every
  // request paid a variable wake-up of an idle virtual core; one per core
  // queued for the two workspaces, and half of a request's latency was
  // that queue.
  unsigned clients() const override { return 2; }
  unsigned busy_threads() const override { return 2; }
  void prepare(std::size_t i) override {
    if (kinds_[i] == kRepeat) return;
    const Base& base = bases_[i % kBases];
    arrivals_[i] =
        std::make_shared<const Graph>(edits_[i].apply(*base.graph).graph);
    check_arrival(i, *arrivals_[i], base);
  }
  void request(std::size_t i, Answer& a, Record& r) override {
    static constexpr const char* kKindNames[] = {"plain", "delta", "repeat"};
    r.kind = kKindNames[kinds_[i]];
    const Base& base = bases_[i % kBases];
    if (kinds_[i] == kRepeat) {
      submit_and_wait(base.graph, base.request, a, r);
      return;
    }
    if (kinds_[i] == kPlain) {
      submit_and_wait(arrivals_[i], base.request, a, r);
      return;
    }
    r.repartition = true;
    a.graph = arrivals_[i];
    a.request = &base.request;
    graph::GraphDelta delta(*base.graph);
    {
      support::ScopedSpan span("graph", "diff");
      const auto t0 = Clock::now();
      delta = graph::diff(*base.graph, *arrivals_[i]);
      r.diff_s = seconds_since(t0);
    }
    engine::RepartitionOutcome out;
    {
      support::ScopedSpan span("engine", "repartition");
      out = engine_->repartition(engine::Job{base.graph, base.request}, delta,
                                 base.answer);
    }
    a.engine_graph = out.graph;
    take(std::move(out.outcome), a, r);
  }
  void release(std::size_t i) override { arrivals_[i].reset(); }
  void collect_layers(std::map<std::string, double>& out,
                      const std::vector<Record>& records) override {
    EngineWorkload::collect_layers(out, records);
    std::vector<double> sketch_s, fingerprint_s;
    for (std::size_t i = 0; i < kinds_.size(); ++i) {
      if (kinds_[i] == kRepeat) continue;
      sketch_s.push_back(sketch_s_[i]);
      fingerprint_s.push_back(fingerprint_s_[i]);
    }
    out["support.sketch_s"] = median(sketch_s);
    out["engine.fingerprint_s"] = median(fingerprint_s);
  }
  void digest(Digest& d) const override {
    for (const Base& base : bases_) {
      d.add(*base.graph);
      d.add(base.request);
    }
    for (std::size_t i = 0; i < kinds_.size(); ++i) {
      d.add(static_cast<std::uint64_t>(kinds_[i]));
      if (kinds_[i] != kRepeat)
        d.add(edits_[i].apply(*bases_[i % kBases].graph).graph);
    }
  }

 private:
  struct Base {
    std::shared_ptr<const Graph> graph;
    part::PartitionRequest request;
    std::uint64_t fp = 0;
    support::GraphSketch sketch;
    part::PartitionResult answer;
  };

  // Checks that arrival i is what the workload says: a near twin of its
  // base by sketch, and not the base itself by fingerprint. The two calls
  // are the ones admission makes, timed for engine.fingerprint_s and
  // support.sketch_s.
  void check_arrival(std::size_t i, const Graph& g, const Base& base) {
    auto t0 = Clock::now();
    std::uint64_t fp = 0;
    {
      support::ScopedSpan span("engine", "fingerprint");
      fp = engine::graph_fingerprint(g);
    }
    fingerprint_s_[i] = seconds_since(t0);
    t0 = Clock::now();
    support::GraphSketch sketch;
    {
      support::ScopedSpan span("support", "sketch");
      sketch = support::sketch_of(g);
    }
    sketch_s_[i] = seconds_since(t0);
    std::string error;
    if (fp == base.fp)
      error = "request " + std::to_string(i) + " repeats its base";
    if (support::sketch_similarity(sketch, base.sketch) < 0.5)
      error = "request " + std::to_string(i) + " is no near twin of its base";
    if (!error.empty()) {
      std::lock_guard<std::mutex> lock(input_error_mutex_);
      input_error = error;
    }
  }

  std::mutex input_error_mutex_;
  // Per arrival: its input check's fingerprint and sketch times.
  std::vector<double> sketch_s_, fingerprint_s_;
  std::vector<Base> bases_;
  std::vector<Kind> kinds_;
  std::vector<graph::GraphDelta> edits_;
  std::vector<std::shared_ptr<const Graph>> arrivals_;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, double seconds,
                                        bool profile) {
  if (name == "cold_serial")
    return std::make_unique<ColdWorkload>(seed, false, scaled(kColdAtTen, seconds),
                                          profile);
  if (name == "cold_parallel")
    return std::make_unique<ColdWorkload>(seed, true, scaled(kColdAtTen, seconds),
                                          profile);
  if (name == "serve_sweep")
    return std::make_unique<SweepWorkload>(
        seed, (scaled(kSweepAtTen, seconds) + SweepWorkload::kPerGraph - 1) /
                  SweepWorkload::kPerGraph);
  if (name == "serve_evolving")
    return std::make_unique<EvolvingWorkload>(seed,
                                              scaled(kEvolvingAtTen, seconds));
  return nullptr;
}

// ------------------------------------------------------------------ runs

void validate(std::size_t i, const Answer& a, Record& r) {
  if (!r.ok) return;
  Check c = check_answer(*a.graph, *a.request, a.result);
  if (a.engine_graph != nullptr && !same_csr(*a.engine_graph, *a.graph))
    c.contradictions.push_back("repartition built a different graph");
  for (const std::string& msg : c.contradictions)
    r.contradictions.push_back("request " + std::to_string(i) + ": " + msg);
  r.valid = c.valid && c.contradictions.empty();
  r.meets = r.valid && c.meets;
  if (r.valid)
    r.cut_norm = static_cast<double>(c.cut) /
                 static_cast<double>(c.total_edge_weight);
}

struct Pass {
  std::vector<Record> records;
  std::vector<double> segment_wall_s;
  std::vector<std::string> probes;  // before segment 0, then after each
  std::vector<support::TraceEvent> events;
  std::uint64_t trace_lost = 0;
};

// The closed loop, in kSegments segments of consecutive requests: within a
// segment clients() threads take the next request until the segment is
// done; between segments, and before the first, the probe runs (when one
// is given) while no request is in flight. Latency is the wall time of one
// request() call. A traced pass drains the trace ring after every segment,
// and a single client also between its requests, so that no span is lost
// while the ring holds a segment's worth; Pass::trace_lost counts any that
// were.
Pass run_pass(Workload& w, bool traced, const std::string& probe) {
  constexpr std::size_t kSegments = 5;
  Pass p;
  const std::size_t n = w.requests();
  p.records.resize(n);
  support::Tracer& tracer = support::Tracer::global();
  std::mutex drain_mutex;
  std::uint64_t drained_at = 0;
  auto drain = [&] {
    p.trace_lost += tracer.overwritten();
    std::vector<support::TraceEvent> ev = tracer.snapshot();
    p.events.insert(p.events.end(), ev.begin(), ev.end());
    tracer.clear();
  };
  auto run_probe_now = [&] {
    if (!probe.empty())
      p.probes.push_back(run_probe(probe, w.busy_threads(), 0.1));
  };
  if (traced) {
    tracer.clear();
    tracer.set_enabled(true);
  }
  run_probe_now();
  for (std::size_t s = 0; s < kSegments; ++s) {
    const std::size_t end = n * (s + 1) / kSegments;
    std::atomic<std::size_t> next{n * s / kSegments};
    auto client = [&] {
      for (std::size_t i = next++; i < end; i = next++) {
        Record& r = p.records[i];
        w.prepare(i);
        Answer a;
        const auto t0 = Clock::now();
        {
          support::ScopedSpan span("bench", "request", i + 1);
          w.request(i, a, r);
        }
        r.latency_s = seconds_since(t0);
        validate(i, a, r);
        a = Answer{};
        w.release(i);
        // A single client drains the ring between requests, when nothing
        // else records, so long runs lose no spans.
        if (traced && w.clients() == 1 &&
            tracer.recorded() - drained_at > tracer.capacity() / 2) {
          std::lock_guard<std::mutex> lock(drain_mutex);
          drain();
          drained_at = tracer.recorded();
        }
      }
    };
    const auto t0 = Clock::now();
    std::vector<std::thread> threads;
    for (unsigned c = 1; c < w.clients(); ++c) threads.emplace_back(client);
    client();
    for (std::thread& t : threads) t.join();
    p.segment_wall_s.push_back(seconds_since(t0));
    if (traced) drain();
    run_probe_now();
  }
  if (traced) {
    tracer.set_enabled(false);
    drain();
  }
  return p;
}

int run(const std::string& name, std::uint64_t seed, double seconds,
        bool trace, const std::string& probe) {
  // Set-up is repeated and the last copy runs. The first copy meets a cold
  // allocator and cores that were idle; run.py leaves it out and reports
  // the median of the others. The probe runs before the first set-up (with
  // a longer warm-up) and after each one, on the threads the set-up keeps
  // busy: one to generate inputs, the engine's pool to answer
  // serve_evolving's bases. Each set-up is scaled by the two probes around
  // it, since the box's speed moves within a run.
  const bool answers_bases = name == "serve_evolving";
  const int setups = answers_bases ? 4 : 9;
  const unsigned setup_threads = answers_bases ? hardware_threads() : 1;
  std::vector<double> setup_s;
  std::vector<std::string> setup_probes;
  std::unique_ptr<Workload> w;
  for (int i = 0; i < setups; ++i) {
    w.reset();
    if (!probe.empty())
      setup_probes.push_back(run_probe(probe, setup_threads, i ? 0.1 : 1.0));
    const auto t0 = Clock::now();
    w = make_workload(name, seed, seconds, false);
    setup_s.push_back(seconds_since(t0));
    if (w == nullptr) {
      std::fprintf(stderr, "perfbench_driver: unknown workload '%s'\n",
                   name.c_str());
      return 2;
    }
  }
  if (!probe.empty())
    setup_probes.push_back(run_probe(probe, setup_threads, 0.1));

  auto probe_list = [](Json& j, const std::string& key,
                       const std::vector<std::string>& probes) {
    j.key(key);
    j.out << "[";
    for (std::size_t i = 0; i < probes.size(); ++i)
      j.out << (i ? "," : "") << (probes[i].empty() ? "null" : probes[i]);
    j.out << "]";
  };
  Json j;
  j.str("workload", name);
  j.num("seed", static_cast<double>(seed));
  j.num("clients", w->clients());
  j.num("hardware_threads", hardware_threads());
  j.str("compiler", PERFBENCH_COMPILER);
  j.str("build_type", PERFBENCH_BUILD_TYPE);
  j.list("setup_s", setup_s);
  j.num("setup_probe_threads", setup_threads);
  probe_list(j, "setup_probes", setup_probes);

  std::vector<double> untraced_latency_s;
  if (trace) {
    // The untraced twin pass on fresh state gives the tracing overhead.
    for (const Record& r : run_pass(*w, false, "").records)
      untraced_latency_s.push_back(r.latency_s);
    w = make_workload(name, seed, seconds, true);
  }

  const auto interval_start = Clock::now();
  const CpuCounters before = read_cpu_counters();
  Pass pass = run_pass(*w, trace, probe);
  const CpuCounters after = read_cpu_counters();

  std::vector<double> latency_s, cut_norm;
  std::size_t failed = 0, answered = 0, contradictions = 0;
  std::string errors;
  for (const Record& r : pass.records) {
    latency_s.push_back(r.latency_s);
    if (!r.valid) ++failed;
    if (r.meets) ++answered;
    if (r.valid) cut_norm.push_back(r.cut_norm);
    for (const std::string& msg : r.contradictions)
      if (contradictions++ < 5) errors += (errors.empty() ? "" : "; ") + msg;
  }
  j.str("input_error", w->input_error);
  j.num("probe_threads", w->busy_threads());
  probe_list(j, "probes", pass.probes);
  j.list("latency_s", latency_s);
  // Median latency per request kind, where the workload mixes kinds.
  std::map<std::string, std::vector<double>> kind_latency_s;
  for (const Record& r : pass.records)
    if (!r.kind.empty()) kind_latency_s[r.kind].push_back(r.latency_s);
  Json kinds;
  for (const auto& [kind, l] : kind_latency_s) kinds.num(kind, median(l));
  j.raw("kind_p50_s", kinds.done());
  j.list("segment_wall_s", pass.segment_wall_s);
  j.num("attempted", static_cast<double>(pass.records.size()));
  j.num("failed", static_cast<double>(failed));
  j.num("answered", static_cast<double>(answered));
  j.list("cut_norm", cut_norm);
  j.num("peak_rss_mb", peak_rss_mb());
  const double dtotal = double(after.total - before.total);
  j.num("steal_pct",
        dtotal > 0 ? 100.0 * double(after.steal - before.steal) / dtotal : 0);
  // Share of the timed interval in which some task waited for a CPU;
  // -1 where the kernel has no pressure stall information.
  j.num("cpu_psi_pct",
        before.psi && after.psi
            ? 100.0 * double(after.psi_some_us - before.psi_some_us) /
                  (1e6 * seconds_since(interval_start))
            : -1);
  j.str("contradictions", errors);
  j.num("contradiction_count", static_cast<double>(contradictions));

  if (trace) {
    std::map<std::string, double> layers;
    w->collect_layers(layers, pass.records);
    const TraceSummary ts = summarize(std::move(pass.events));
    const double n = static_cast<double>(pass.records.size());
    for (const char* layer :
         {"partition", "engine", "graph", "support", "bench"})
      layers[std::string("self.") + layer + "_s"] =
          ts.self_s.count(layer) ? ts.self_s.at(layer) / n : 0.0;
    for (const char* phase : {"coarsen", "initial", "refine"})
      layers[std::string("partition.") + phase + "_s"] =
          ts.phase_s.count(phase) ? ts.phase_s.at(phase) / n : 0.0;
    layers["trace.coverage"] = ts.coverage();
    layers["trace.lost"] = static_cast<double>(pass.trace_lost);
    layers["engine.fanout_wait_p50_s"] = median(ts.fanout_wait_s);
    if (!layers.count("partition.levels"))
      layers["partition.levels"] = double(ts.max_gp_level + 1);
    double gp_runs = 0;
    std::vector<double> submit_s, diff_s, warm_s;
    std::map<std::string, double> paths;
    for (const Record& r : pass.records) {
      if (r.path == "direct") gp_runs += 1;
      for (const auto& m : r.members)
        if (m.ran && m.algorithm == "gp") gp_runs += 1;
      if (r.path != "direct" && !r.repartition) submit_s.push_back(r.submit_s);
      if (r.repartition) diff_s.push_back(r.diff_s);
      if (r.path == "similarity" || r.path == "warm-start")
        warm_s.push_back(r.latency_s);
      paths[r.path] += 1;
    }
    layers["partition.vcycles"] =
        gp_runs > 0 ? double(ts.gp_level0_refines) / gp_runs : 0;
    layers["engine.submit_p50_s"] = median(submit_s);
    layers["graph.diff_s"] = median(diff_s);
    layers["engine.warm_p50_s"] = median(warm_s);
    layers["engine.path.exact_hit"] = paths["exact-hit"] / n;
    layers["engine.path.similarity"] = paths["similarity"] / n;
    layers["engine.path.warm_start"] = paths["warm-start"] / n;
    layers["engine.path.full"] = paths["full-portfolio"] / n;
    layers["graph.generate_s"] = median(w->generate_s);
    // Only serve_evolving sends edited graphs, whose input check times
    // these two calls.
    layers.emplace("support.sketch_s", 0.0);
    layers.emplace("engine.fingerprint_s", 0.0);
    Json lj;
    for (const auto& [k, val] : layers) lj.num(k, val);
    j.raw("layers", lj.done());
    j.list("untraced_latency_s", untraced_latency_s);
  }
  std::printf("%s\n", j.done().c_str());
  return 0;
}

// ------------------------------------------------------------- self-test

int failures = 0;
void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "self-test FAILED: %s\n", what.c_str());
  }
}

// A hand-built 4-node ring: 0-1 (5), 1-2 (3), 2-3 (2), 3-0 (1).
void test_check_answer() {
  graph::GraphBuilder b(4);
  for (NodeId u = 0; u < 4; ++u) b.set_node_weight(u, 10 + u);
  b.add_edge(0, 1, 5);
  b.add_edge(1, 2, 3);
  b.add_edge(2, 3, 2);
  b.add_edge(3, 0, 1);
  const Graph g = b.build();
  part::PartitionRequest req;
  req.k = 2;
  req.constraints.rmax = 23;  // loads are 10+11=21 and 12+13=25
  req.constraints.bmax = 4;
  part::PartitionResult r;
  r.partition = part::Partition(4, 2);
  for (NodeId u = 0; u < 4; ++u) r.partition.set(u, u < 2 ? 0 : 1);
  r.metrics.total_cut = 4;  // edges 1-2 and 3-0 cross
  r.metrics.max_load = 25;
  r.feasible = false;       // load 25 > Rmax 23

  Check c = check_answer(g, req, r);
  expect(c.valid && c.cut == 4 && c.total_edge_weight == 11,
         "cut 4 of total 11 on the ring");
  expect(!c.meets && c.contradictions.empty(),
         "Rmax violation seen, no contradiction");
  req.constraints.rmax = 25;
  r.feasible = true;
  c = check_answer(g, req, r);
  expect(c.meets && c.contradictions.empty(), "meets Rmax 25 and Bmax 4");
  req.constraints.bmax = 3;
  c = check_answer(g, req, r);
  expect(!c.meets && c.contradictions.size() == 1,
         "pair cut 4 > Bmax 3 contradicts feasible=true");
  req.constraints.bmax = 4;
  r.metrics.total_cut = 3;
  c = check_answer(g, req, r);
  expect(c.contradictions.size() == 1, "a wrong library cut is caught");
  r.metrics.total_cut = 4;
  r.metrics.max_load = 21;
  c = check_answer(g, req, r);
  expect(c.contradictions.size() == 1, "a wrong library max load is caught");
  r.metrics.max_load = 25;
  part::PartitionResult incomplete = r;
  incomplete.partition = part::Partition(4, 2);
  incomplete.partition.set(0, 0);
  expect(!check_answer(g, req, incomplete).valid,
         "an unassigned node is caught");
  part::PartitionResult short_one = r;
  short_one.partition = part::Partition(3, 2);
  expect(!check_answer(g, req, short_one).valid,
         "a partition of the wrong size is caught");
  req.k = 4;
  expect(!check_answer(g, req, r).valid, "a partition with the wrong k is caught");
}

// A request span on thread 1 over [0, 100) us holding a call span over
// [10, 60), itself holding one over [20, 30); thread 2 runs a pool span at
// the same time. Only the nested spans cover the request: half of it.
void test_coverage() {
  auto span = [](const char* cat, const char* name, std::uint32_t tid,
                 std::uint64_t ts, std::uint64_t dur) {
    support::TraceEvent ev;
    ev.cat = cat;
    ev.name = name;
    ev.tid = tid;
    ev.ts_us = ts;
    ev.dur_us = dur;
    return ev;
  };
  std::vector<support::TraceEvent> events = {
      span("bench", "request", 1, 0, 100), span("partition", "run", 1, 10, 50),
      span("gp", "refine", 1, 20, 10), span("gp", "coarsen", 2, 0, 100)};
  TraceSummary s = summarize(events);
  expect(std::abs(s.coverage() - 0.5) < 1e-9, "a 50 us gap halves coverage");
  expect(std::abs(s.self_s["partition"] - 150e-6) < 1e-12,
         "self time of partition.run and the gp spans");
  expect(std::abs(s.self_s["bench"] - 50e-6) < 1e-12,
         "the request's own self time is the gap");
  events[1].ts_us = 0;
  events[1].dur_us = 100;
  expect(std::abs(summarize(events).coverage() - 1.0) < 1e-9,
         "a call span over the whole request covers it");
  events.resize(1);
  expect(summarize(events).coverage() == 0, "a bare request is not covered");
}

// The cold workloads (the corpus) and serve_sweep (seed 0) send distinct
// graphs: make_pn for the indices they use differ pairwise by the engine's
// fingerprint.
void test_distinct_inputs() {
  for (std::uint64_t seed : {kCorpusSeed, std::uint64_t{0}}) {
    std::vector<std::uint64_t> fps;
    for (std::size_t i = 0; i < kColdAtTen; ++i)
      fps.push_back(engine::graph_fingerprint(make_pn(seed, i)));
    std::sort(fps.begin(), fps.end());
    expect(std::adjacent_find(fps.begin(), fps.end()) == fps.end(),
           "inputs of seed " + std::to_string(seed) + " are pairwise distinct");
  }
}

// Digests of the seed-0 inputs of every workload at --seconds 10. A change
// means the inputs changed, and runs before and after it are not
// comparable.
const std::map<std::string, std::uint64_t> kPinnedDigests = {
    {"cold_serial", 0xec1cd1db2221dfabull},
    {"cold_parallel", 0x240b5932b8a1cdb7ull},
    {"serve_sweep", 0x282012415eb66b75ull},
    {"serve_evolving", 0x3d93e110dde52ab2ull},
};

std::uint64_t input_digest(const std::string& name) {
  Digest d;
  make_workload(name, 0, 10, false)->digest(d);
  return d.h;
}

int self_test(bool print_digests) {
  test_check_answer();
  test_coverage();
  test_distinct_inputs();
  for (const auto& [name, pinned] : kPinnedDigests) {
    const std::uint64_t got = input_digest(name);
    if (print_digests)
      std::printf("%s 0x%016llx\n", name.c_str(),
                  static_cast<unsigned long long>(got));
    else
      expect(got == pinned, "seed-0 input digest of " + name);
  }
  if (failures == 0 && !print_digests) std::printf("driver self-test ok\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, probe;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") return self_test(false);
    if (arg == "--print-digests") return self_test(true);
    if (i + 1 >= argc) {
      std::fprintf(stderr, "perfbench_driver: %s needs a value\n", arg.c_str());
      return 2;
    }
    const std::string val = argv[++i];
    if (arg == "--workload") workload = val;
    else if (arg == "--seed") seed = std::strtoull(val.c_str(), nullptr, 10);
    else if (arg == "--seconds") seconds = std::strtod(val.c_str(), nullptr);
    else if (arg == "--trace") trace = val == "1";
    else if (arg == "--probe") probe = val;
    else {
      std::fprintf(stderr, "perfbench_driver: unknown option %s\n", arg.c_str());
      return 2;
    }
  }
  if (workload.empty() || !(seconds > 0 && seconds <= 600)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload W --seed S [--seconds T] "
                 "[--trace 0|1] [--probe PATH] | --self-test\n");
    return 2;
  }
  return run(workload, seed, seconds, trace, probe);
}
