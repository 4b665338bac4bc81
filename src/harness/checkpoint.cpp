#include "harness/checkpoint.h"

#include <utility>

#include "obs/instrument.h"

namespace segroute::harness {

CheckpointStore::CheckpointStore(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

void CheckpointStore::save(std::uint64_t fingerprint, const Routing& routing,
                           std::string source) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_fp_.find(fingerprint);
  if (it != by_fp_.end()) {
    RoutingCheckpoint& old = *it->second;
    old.routing = routing;
    old.source = std::move(source);
    old.sequence = next_sequence_++;
    ++stats_.saves;
    ++stats_.supersedes;
    entries_.splice(entries_.begin(), entries_, it->second);
    SEGROUTE_COUNT("checkpoint.saves", 1);
    return;
  }
  RoutingCheckpoint ckpt;
  ckpt.fingerprint = fingerprint;
  ckpt.routing = routing;
  ckpt.source = std::move(source);
  ckpt.sequence = next_sequence_++;
  entries_.push_front(std::move(ckpt));
  by_fp_.emplace(fingerprint, entries_.begin());
  ++stats_.saves;
  SEGROUTE_COUNT("checkpoint.saves", 1);
  while (entries_.size() > capacity_) {
    by_fp_.erase(entries_.back().fingerprint);
    entries_.pop_back();
    ++stats_.evictions;
    SEGROUTE_COUNT("checkpoint.evictions", 1);
  }
}

std::optional<RoutingCheckpoint> CheckpointStore::find(
    std::uint64_t fingerprint) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_fp_.find(fingerprint);
  if (it == by_fp_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.hits;
  entries_.splice(entries_.begin(), entries_, it->second);  // touch
  return *it->second;
}

std::optional<RoutingCheckpoint> CheckpointStore::restore(
    std::uint64_t fingerprint, const SegmentedChannel& ch,
    const ConnectionSet& cs, const VerifyOptions& vo) const {
  std::optional<RoutingCheckpoint> ckpt = find(fingerprint);
  if (!ckpt) return std::nullopt;
  const RouteVerifier verifier(ch, cs);
  const VerifyResult v = verifier.check(ckpt->routing, vo);
  if (!v) {
    // Stale or corrupt — drop it so it cannot be handed out again.
    std::lock_guard<std::mutex> lock(mu_);
    auto it = by_fp_.find(fingerprint);
    if (it != by_fp_.end()) {
      entries_.erase(it->second);
      by_fp_.erase(it);
    }
    ++stats_.rejected;
    SEGROUTE_COUNT("checkpoint.rejected", 1);
    return std::nullopt;
  }
  SEGROUTE_COUNT("checkpoint.restores", 1);
  return ckpt;
}

void CheckpointStore::invalidate(std::uint64_t fingerprint) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_fp_.find(fingerprint);
  if (it == by_fp_.end()) return;
  entries_.erase(it->second);
  by_fp_.erase(it);
}

CheckpointStats CheckpointStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  CheckpointStats s = stats_;
  s.size = entries_.size();
  s.capacity = capacity_;
  return s;
}

}  // namespace segroute::harness
