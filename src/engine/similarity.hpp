#pragma once
// Similarity index — the engine's memory of recently served graphs, keyed
// by sketch rather than by exact fingerprint.
//
// The exact result cache answers "have I seen exactly this job?". The
// SimilarityIndex answers the softer admission question: "have I recently
// served a graph so close to this arrival that diffing into it and
// warm-starting beats a full portfolio run?". Each entry retains the served
// graph itself (shared, immutable), its content fingerprint, its
// GraphSketch, a request-compatibility digest (k + constraints, not the
// seed) and the complete partition that answered it — everything
// IncrementalPartitioner::try_repartition_diffed needs to turn a near-hit
// into a warm start.
//
// Lookup is a linear scan of at most `capacity` entries, each a kSlots-word
// sketch comparison: ~microseconds against portfolio runs that cost
// milliseconds to seconds, so no sublinear structure is warranted at these
// capacities. Matching entries are LRU-touched; insertion replaces an entry
// with the same (graph fingerprint, compatibility) identity, and evicts the
// least recently used entry past capacity.
//
// Memory: entries hold shared_ptr<const Graph>, so the index pins up to
// `capacity` graphs (plus one partition vector each). Size the capacity to
// the working set you want warm, not to the traffic rate.
//
// Batch-aware probing: alongside the entries the index keeps a small
// pending-leader registry (keyed by compat fingerprint + sketch
// neighborhood). When a burst of near-twins arrives before any of them has
// been answered, the first probe registers as the cohort's LEADER and runs
// the full path once; the others PARK behind it and warm-start from the
// leader's answer the moment it lands in the index — N concurrent
// near-twins cost one portfolio run and N-1 warm starts instead of N races.
// probe_or_park makes the entry-vs-leader decision under one lock, so no
// arrival can slip between "no entry" and "no leader".
//
// Thread-safe; every method takes the internal mutex. Correctness contract
// (enforced by the caller, see engine.cpp): a match is a HINT — the caller
// must re-verify via diff + bit-identical reconstruction before reusing
// anything, and must never write a similarity-served answer into the exact
// result cache.

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "graph/graph.hpp"
#include "partition/partition.hpp"
#include "support/graph_sketch.hpp"

namespace ppnpart::engine {

/// Admission-pipeline knobs (EngineOptions::similarity). Defaults are
/// documented in README "Tuning the admission pipeline".
struct SimilarityOptions {
  /// Master switch, off by default: similarity admission deliberately
  /// trades a little cut quality (warm starts refine, they do not V-cycle)
  /// and cross-history reproducibility (answers depend on which graphs were
  /// served before) for a large latency win on near-identical traffic.
  /// Opt-in keeps the default engine bit-compatible with its history.
  bool enabled = false;
  /// Retained entries (graphs pinned); 0 behaves like enabled == false.
  std::size_t capacity = 32;
  /// Minimum sketch similarity to attempt a diff. 1%-edited twins sketch
  /// at ~0.95; unrelated graphs at ~0. The gap is wide — 0.5 is a
  /// round-trip-saving pre-filter, not a precision instrument.
  double min_sketch_similarity = 0.5;
};

struct SimilarityStats {
  std::uint64_t probes = 0;     // admissions that consulted the index
  std::uint64_t near_hits = 0;  // warm starts served from a sketch match
  std::uint64_t declines = 0;   // probes routed to the full path instead
  /// Async-stage traffic. `deferred`: probes whose diff/verify/refine ran
  /// as a pool task instead of on the submitting thread. `parked`: probes
  /// that waited for a pending leader's full-path answer before resolving
  /// (batch-aware near-twin coalescing). Both are bumped at decision time;
  /// the probe itself is only counted when its verdict lands, so neither
  /// participates in the probes == near_hits + declines transaction.
  std::uint64_t deferred = 0;
  std::uint64_t parked = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
};

class SimilarityIndex {
 public:
  explicit SimilarityIndex(std::size_t capacity) : capacity_(capacity) {}

  struct Entry {
    support::GraphSketch sketch;
    std::shared_ptr<const graph::Graph> graph;
    std::uint64_t graph_fp = 0;   // content fingerprint of `graph`
    std::uint64_t compat_fp = 0;  // request_compat_fingerprint of the answer
    part::Partition partition;    // the complete partition served for it
  };

  struct Match {
    Entry entry;  // copied out under the lock; safe to use unlocked
    double similarity = 0;
  };

  /// Best entry with matching `compat_fp` and sketch similarity >=
  /// `min_similarity` (ties broken toward recency); LRU-touches it.
  std::optional<Match> best_match(const support::GraphSketch& sketch,
                                  std::uint64_t compat_fp,
                                  double min_similarity);

  /// Batch-aware probing: the outcome of one atomic probe of the index AND
  /// the pending-leader registry. A single lock acquisition rules out the
  /// TOCTOU window between "no entry yet" and "park behind the leader that
  /// is computing one".
  enum class ProbeRole : std::uint8_t {
    kMatch,   // an indexed entry matched: warm-start from `match`
    kParked,  // a sketch-similar pending leader exists; the caller's handle
              // was parked and will be returned by resolve_pending
    kLeader,  // no entry, no leader: the caller is now the pending leader
              // for this neighborhood and must resolve_pending on EVERY
              // completion path
    kMiss,    // no entry, no leader, and the caller may not lead
  };
  struct ProbeResult {
    ProbeRole role = ProbeRole::kMiss;
    std::optional<Match> match;  // set only for kMatch
  };

  /// One probe of both structures under one lock: an indexed best match
  /// wins (LRU-touched, like best_match); otherwise a pending leader with
  /// the same compat key and sketch similarity >= `min_similarity` adopts
  /// `follower` as a parked handle; otherwise the caller registers as the
  /// pending leader (when `may_lead`) or plainly misses. The registry is
  /// keyed by compat fingerprint + sketch neighborhood — at these scales a
  /// similarity scan over the few pending leaders stands in for banded LSH
  /// buckets.
  ProbeResult probe_or_park(const support::GraphSketch& sketch,
                            std::uint64_t compat_fp, double min_similarity,
                            std::uint64_t leader_job, bool may_lead,
                            std::shared_ptr<void> follower);

  /// Removes the pending entry owned by (compat_fp, leader_job) and returns
  /// its parked follower handles for the caller to resume. Call it AFTER the
  /// leader's answer was insert()ed (or when the leader failed/was shed):
  /// followers re-probe and either warm-start from the fresh entry or fall
  /// to the full path. Safe when no such entry exists (returns empty).
  std::vector<std::shared_ptr<void>> resolve_pending(
      std::uint64_t compat_fp, std::uint64_t leader_job);

  /// Pending leaders currently registered (diagnostics/tests).
  std::size_t pending_leaders() const;

  /// Inserts (or refreshes, keyed by graph_fp + compat_fp) an entry.
  /// Incomplete partitions are rejected — only servable warm starts belong
  /// in the index.
  void insert(Entry entry);

  /// LRU-touches the entry keyed by graph_fp + compat_fp; false when no
  /// such entry is retained.
  bool touch(std::uint64_t graph_fp, std::uint64_t compat_fp);

  std::size_t size() const;
  /// Drops every retained entry. Pending leaders are deliberately NOT
  /// cleared: they describe in-flight jobs whose parked followers would be
  /// stranded forever if the registry forgot them mid-flight.
  void clear();

  /// Lifetime insert/evict traffic (probe counters live in EngineStats —
  /// hits and declines are admission decisions, not index properties).
  std::uint64_t insertions() const;
  std::uint64_t evictions() const;

  /// Both lifetime counters under ONE lock acquisition, so a stats()
  /// assembled from them can never pair an old insertion count with a newer
  /// eviction count (evictions <= insertions always holds in the pair).
  struct Counters {
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
  };
  Counters counters() const;

 private:
  std::optional<Match> best_match_locked(const support::GraphSketch& sketch,
                                         std::uint64_t compat_fp,
                                         double min_similarity);

  /// One near-twin cohort awaiting its leader's full-path answer. Follower
  /// handles are opaque (the engine parks JobStates); they are only ever
  /// handed back to the code that parked them.
  struct PendingLeader {
    support::GraphSketch sketch;
    std::uint64_t compat_fp = 0;
    std::uint64_t leader_job = 0;
    std::vector<std::shared_ptr<void>> followers;
  };

  mutable std::mutex mutex_;
  std::size_t capacity_;
  std::list<Entry> entries_;  // front = most recently used
  std::vector<PendingLeader> pending_;  // few entries: linear scan
  std::uint64_t insertions_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace ppnpart::engine
