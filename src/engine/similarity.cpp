#include "engine/similarity.hpp"

namespace ppnpart::engine {

std::optional<SimilarityIndex::Match> SimilarityIndex::best_match(
    const support::GraphSketch& sketch, std::uint64_t compat_fp,
    double min_similarity) {
  std::lock_guard<std::mutex> lock(mutex_);
  return best_match_locked(sketch, compat_fp, min_similarity);
}

std::optional<SimilarityIndex::Match> SimilarityIndex::best_match_locked(
    const support::GraphSketch& sketch, std::uint64_t compat_fp,
    double min_similarity) {
  auto best = entries_.end();
  double best_sim = 0;
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->compat_fp != compat_fp) continue;
    const double sim = support::sketch_similarity(sketch, it->sketch);
    // Strict >: ties keep the earlier (more recently used) entry, so equal
    // candidates resolve deterministically toward recency.
    if (sim >= min_similarity && sim > best_sim) {
      best = it;
      best_sim = sim;
    }
  }
  if (best == entries_.end()) return std::nullopt;
  entries_.splice(entries_.begin(), entries_, best);  // LRU touch
  return Match{*best, best_sim};
}

SimilarityIndex::ProbeResult SimilarityIndex::probe_or_park(
    const support::GraphSketch& sketch, std::uint64_t compat_fp,
    double min_similarity, std::uint64_t leader_job, bool may_lead,
    std::shared_ptr<void> follower) {
  if (capacity_ == 0) return ProbeResult{};
  std::lock_guard<std::mutex> lock(mutex_);
  // Indexed answers beat pending ones: a hit warm-starts right now.
  if (auto match = best_match_locked(sketch, compat_fp, min_similarity))
    return ProbeResult{ProbeRole::kMatch, std::move(match)};
  // No entry yet — is a sketch-similar leader already computing one? Pick
  // the most similar cohort (ties toward the earliest-registered leader, so
  // the choice is deterministic under a fixed submission order).
  PendingLeader* cohort = nullptr;
  double best_sim = 0;
  for (PendingLeader& p : pending_) {
    if (p.compat_fp != compat_fp) continue;
    const double sim = support::sketch_similarity(sketch, p.sketch);
    if (sim >= min_similarity && sim > best_sim) {
      cohort = &p;
      best_sim = sim;
    }
  }
  if (cohort != nullptr) {
    cohort->followers.push_back(std::move(follower));
    return ProbeResult{ProbeRole::kParked, std::nullopt};
  }
  if (!may_lead) return ProbeResult{};
  pending_.push_back(PendingLeader{sketch, compat_fp, leader_job, {}});
  return ProbeResult{ProbeRole::kLeader, std::nullopt};
}

std::vector<std::shared_ptr<void>> SimilarityIndex::resolve_pending(
    std::uint64_t compat_fp, std::uint64_t leader_job) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = pending_.begin(); it != pending_.end(); ++it) {
    if (it->compat_fp != compat_fp || it->leader_job != leader_job) continue;
    std::vector<std::shared_ptr<void>> followers = std::move(it->followers);
    pending_.erase(it);
    return followers;
  }
  return {};
}

std::size_t SimilarityIndex::pending_leaders() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return pending_.size();
}

void SimilarityIndex::insert(Entry entry) {
  if (capacity_ == 0) return;
  if (!entry.partition.complete()) return;  // never index a non-answer
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->graph_fp == entry.graph_fp && it->compat_fp == entry.compat_fp) {
      *it = std::move(entry);
      entries_.splice(entries_.begin(), entries_, it);
      return;
    }
  }
  entries_.push_front(std::move(entry));
  ++insertions_;
  if (entries_.size() > capacity_) {
    entries_.pop_back();
    ++evictions_;
  }
}

bool SimilarityIndex::touch(std::uint64_t graph_fp, std::uint64_t compat_fp) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->graph_fp == graph_fp && it->compat_fp == compat_fp) {
      entries_.splice(entries_.begin(), entries_, it);
      return true;
    }
  }
  return false;
}

std::size_t SimilarityIndex::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

void SimilarityIndex::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
}

std::uint64_t SimilarityIndex::insertions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return insertions_;
}

std::uint64_t SimilarityIndex::evictions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return evictions_;
}

SimilarityIndex::Counters SimilarityIndex::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return Counters{insertions_, evictions_};
}

}  // namespace ppnpart::engine
