// Machine-speed probe: label propagation over a private CSR graph.
//
// The benchmark divides every timing by this probe's time, measured in its
// own process right before and right after the timed phase, and multiplies
// by a fixed reference probe time. A box whose speed steps between runs
// then reports the same figures for the same program.
//
// The kernel is integer- and cache-heavy like the partitioner's refinement
// loops: for every node, count the labels of its neighbours in a small
// open-addressing table and take the most frequent one (plus a small
// per-node offset). It includes no header of the partitioning library and
// links nothing from it, so a change to the library cannot move the
// yardstick it is measured with.
//
// Usage: perfbench_probe [--threads T] [--reps R] [--warmup-s W]
// Prints one JSON line: {"threads":T,"warmup_reps":N,"reps_s":[...],
// "median_s":...,"checksum":...}. Each repetition runs the kernel once on
// each of T threads at the same time, every thread on its own graph. Its
// time is the harmonic mean of the threads' own kernel times: the time per
// kernel at the threads' combined rate. The workloads spread their work
// over the threads they keep busy, so one slow or descheduled core slows
// them by its share of the rate, not as much as it delays the last thread
// to finish. Repetitions in the first W seconds, and after that until one
// is within 20% of the fastest so far, are not recorded: a virtual machine
// that was idle runs its cores several times slower for a second or two.

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint32_t kNodes = 1u << 16;
constexpr std::uint32_t kDegree = 8;
constexpr int kSweeps = 12;

struct Csr {
  std::vector<std::uint32_t> xadj;
  std::vector<std::uint32_t> adj;
};

std::uint64_t splitmix(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// Half the neighbours are local (within a window, like a pipeline layer),
// half are anywhere, so the kernel touches both cached and cold lines.
Csr make_graph(std::uint64_t seed) {
  Csr g;
  g.xadj.resize(kNodes + 1);
  g.adj.resize(static_cast<std::size_t>(kNodes) * kDegree);
  std::uint64_t s = seed;
  for (std::uint32_t u = 0; u < kNodes; ++u) {
    g.xadj[u] = u * kDegree;
    for (std::uint32_t j = 0; j < kDegree; ++j) {
      const std::uint64_t r = splitmix(s);
      const std::uint32_t v =
          j % 2 == 0 ? static_cast<std::uint32_t>((u + 1 + r % 64) % kNodes)
                     : static_cast<std::uint32_t>(r % kNodes);
      g.adj[static_cast<std::size_t>(u) * kDegree + j] = v;
    }
  }
  g.xadj[kNodes] = kNodes * kDegree;
  return g;
}

std::uint64_t label_propagation(const Csr& g,
                                std::vector<std::uint32_t>& label) {
  for (std::uint32_t u = 0; u < kNodes; ++u) label[u] = u % 4096;
  constexpr std::uint32_t kTable = 16;
  std::uint32_t keys[kTable];
  std::uint32_t counts[kTable];
  for (int sweep = 0; sweep < kSweeps; ++sweep) {
    for (std::uint32_t u = 0; u < kNodes; ++u) {
      std::memset(counts, 0, sizeof counts);
      std::uint32_t best = label[u];
      std::uint32_t best_count = 0;
      for (std::uint32_t e = g.xadj[u]; e < g.xadj[u + 1]; ++e) {
        const std::uint32_t l = label[g.adj[e]];
        std::uint32_t slot = (l * 2654435761u) & (kTable - 1);
        while (counts[slot] != 0 && keys[slot] != l)
          slot = (slot + 1) & (kTable - 1);
        keys[slot] = l;
        const std::uint32_t c = ++counts[slot];
        if (c > best_count || (c == best_count && l < best)) {
          best = l;
          best_count = c;
        }
      }
      // A small per-node offset keeps the labels from converging, so every
      // sweep does the same amount of table work.
      label[u] = (best + ((u * 2654435761u) >> 28)) & 4095;
    }
  }
  std::uint64_t sum = 0;
  for (std::uint32_t u = 0; u < kNodes; ++u) sum = sum * 31 + label[u];
  return sum;
}

}  // namespace

int main(int argc, char** argv) {
  unsigned threads = 1;
  int reps = 7;
  double warmup_s = 1.0;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--threads") == 0)
      threads = static_cast<unsigned>(std::strtoul(argv[i + 1], nullptr, 10));
    else if (std::strcmp(argv[i], "--reps") == 0)
      reps = std::atoi(argv[i + 1]);
    else if (std::strcmp(argv[i], "--warmup-s") == 0)
      warmup_s = std::strtod(argv[i + 1], nullptr);
    else {
      std::fprintf(stderr, "perfbench_probe: unknown option %s\n", argv[i]);
      return 2;
    }
  }
  if (threads < 1 || threads > 256 || reps < 1 || reps > 100 ||
      !(warmup_s >= 0 && warmup_s <= 10)) {
    std::fprintf(stderr,
                 "perfbench_probe: --threads 1..256, --reps 1..100, "
                 "--warmup-s 0..10\n");
    return 2;
  }

  std::vector<Csr> graphs;
  for (unsigned t = 0; t < threads; ++t) graphs.push_back(make_graph(7 + t));
  std::vector<std::vector<std::uint32_t>> labels(
      threads, std::vector<std::uint32_t>(kNodes));
  std::vector<std::uint64_t> sums(threads);
  std::vector<double> thread_s(threads);
  std::vector<double> reps_s;
  int warmup_reps = 0;

  std::atomic<bool> stop{false};
  std::barrier sync(static_cast<std::ptrdiff_t>(threads) + 1);
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      while (true) {
        sync.arrive_and_wait();  // common start (or the stop signal)
        if (stop.load()) return;
        const auto start = Clock::now();
        sums[t] = label_propagation(graphs[t], labels[t]);
        thread_s[t] = std::chrono::duration<double>(Clock::now() - start).count();
        sync.arrive_and_wait();  // last one done
      }
    });
  }
  const Clock::time_point warm_start = Clock::now();
  double best = 1e300;
  while (static_cast<int>(reps_s.size()) < reps) {
    sync.arrive_and_wait();
    sync.arrive_and_wait();
    double rate = 0;
    for (double t : thread_s) rate += 1 / t;
    const double rep = static_cast<double>(threads) / rate;
    const double warm =
        std::chrono::duration<double>(Clock::now() - warm_start).count();
    best = std::min(best, rep);
    // Warm until W seconds have passed and the cores stopped speeding up
    // (a rep within 20% of the fastest so far), for at most 5 W.
    if (reps_s.empty() &&
        (warm < warmup_s || (rep > 1.2 * best && warm < 5 * warmup_s)))
      ++warmup_reps;
    else
      reps_s.push_back(rep);
  }
  stop.store(true);
  sync.arrive_and_wait();
  for (std::thread& w : workers) w.join();

  std::vector<double> sorted = reps_s;
  std::sort(sorted.begin(), sorted.end());
  const double median = sorted[sorted.size() / 2];
  std::uint64_t checksum = 0;
  for (std::uint64_t s : sums) checksum ^= s;

  std::printf("{\"threads\":%u,\"warmup_reps\":%d,\"reps_s\":[", threads,
              warmup_reps);
  for (std::size_t i = 0; i < reps_s.size(); ++i)
    std::printf("%s%.9f", i == 0 ? "" : ",", reps_s[i]);
  std::printf("],\"median_s\":%.9f,\"checksum\":%llu}\n", median,
              static_cast<unsigned long long>(checksum));
  return 0;
}
