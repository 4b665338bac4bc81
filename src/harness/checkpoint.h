// CheckpointStore: fingerprint-keyed save/restore of known-good routings.
//
// A survivable router needs somewhere safe to stand: when a repair
// attempt on a degraded channel fails, the session must roll back to the
// last known-good routing instead of keeping a corrupt or empty state
// (the spirit of VPR's place_checkpoint). A RoutingCheckpoint captures
// one routing together with the fingerprint (segroute::fingerprint,
// core/channel.h) of the substrate it was verified on; a CheckpointStore holds a bounded LRU
// set of them, one slot per fingerprint.
//
// Two safety properties distinguish a checkpoint from a plain cache:
//
//  1. keyed by substrate structure — the fingerprint hashes the full
//     channel geometry, so a routing saved on the pristine channel can
//     never be restored onto an incompatible degraded one (and vice
//     versa): a storm that changes the channel changes the key;
//  2. re-verified on restore — restore() runs the saved routing back
//     through RouteVerifier against the caller's channel + connection
//     set before handing it out, so a checkpoint that has gone stale
//     (different workload, corrupted store, fingerprint collision) is
//     rejected, counted, and dropped rather than re-introduced. A store
//     keeps routings only, not the connection spans they were saved
//     for: an edited workload whose old routing no longer verifies is
//     simply a miss, and the caller routes it afresh.
//
// save() replaces any existing state for a fingerprint: the store holds
// the most recent good routing per substrate.
//
// Thread-safe; all methods take an internal lock. Deterministic: no
// clocks, no RNG — `sequence` is a per-store save counter, so equal call
// sequences produce equal stores.
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "core/channel.h"
#include "core/connection.h"
#include "core/routing.h"
#include "harness/verify.h"

namespace segroute::harness {

/// One saved routing state, keyed by the substrate fingerprint it was
/// verified on (segroute::fingerprint()).
struct RoutingCheckpoint {
  std::uint64_t fingerprint = 0;
  Routing routing;
  std::string source;       // who saved it (router / winner name)
  std::uint64_t sequence = 0;  // per-store save order (monotonic)
};

/// Store observability counters (a snapshot).
struct CheckpointStats {
  std::uint64_t saves = 0;      // save() calls
  std::uint64_t supersedes = 0; // saves that replaced an existing slot
  std::uint64_t hits = 0;       // find/restore found the fingerprint
  std::uint64_t misses = 0;     // ... or did not
  std::uint64_t rejected = 0;   // restores rejected by re-verification
  std::uint64_t evictions = 0;  // LRU evictions
  std::size_t size = 0;
  std::size_t capacity = 0;
};

class CheckpointStore {
 public:
  /// `capacity`: max distinct fingerprints held; least-recently-used
  /// slots are evicted (find/restore/save all refresh recency).
  explicit CheckpointStore(std::size_t capacity = 16);

  /// Saves `routing` for `fingerprint`, replacing any earlier state.
  void save(std::uint64_t fingerprint, const Routing& routing,
            std::string source = {});

  /// The checkpoint for `fingerprint` (a copy), without verification.
  [[nodiscard]] std::optional<RoutingCheckpoint> find(
      std::uint64_t fingerprint) const;

  /// The checkpoint for `fingerprint`, re-verified against (ch, cs) with
  /// `vo` before being handed out. A checkpoint that fails verification
  /// is dropped from the store and counted in `rejected`.
  [[nodiscard]] std::optional<RoutingCheckpoint> restore(
      std::uint64_t fingerprint, const SegmentedChannel& ch,
      const ConnectionSet& cs, const VerifyOptions& vo = {}) const;

  /// Drops the checkpoint for `fingerprint` (no-op when absent).
  void invalidate(std::uint64_t fingerprint);

  [[nodiscard]] CheckpointStats stats() const;

 private:
  // Bounded LRU: entries_ is most-recent-first; by_fp_ points into it.
  // Mutable so find()/restore() can refresh recency and count.
  mutable std::mutex mu_;
  mutable std::list<RoutingCheckpoint> entries_;
  mutable std::unordered_map<std::uint64_t,
                             std::list<RoutingCheckpoint>::iterator>
      by_fp_;
  std::size_t capacity_;
  std::uint64_t next_sequence_ = 0;
  mutable CheckpointStats stats_;
};

}  // namespace segroute::harness
