// BatchRouter: a memoizing, multi-threaded front end for repeated
// routing on one channel.
//
// FPGA-style workloads route the *same* segmented channel over and over
// — capacity probes re-route under growing prefixes, the fabric router
// re-routes every channel each negotiation round, Monte-Carlo
// routability draws thousands of random connection sets. The direct
// path pays full price each time: workspace allocation and — when
// instances repeat — the whole DP again for an answer already computed.
//
// The engine stacks three layers on one ChannelIndex, built once per
// BatchRouter for its fingerprint:
//
//   1. the fingerprint, which keys the scratch and the memo cache;
//   2. per-thread scratch arenas (engine/scratch.h), so steady-state
//      calls are allocation-free;
//   3. a bounded, *sharded* LRU memo cache keyed by (channel
//      fingerprint, router name, connection sequence, routing options),
//      with hit/miss/eviction counters merged across shards.
//
// Cache sharding. One mutex in front of the memo cache serializes every
// worker of a parallel sweep — the fabric router (fpga/fabric.h) routes
// all channels of a device through one BatchRouter, and past ~2 threads
// the single lock, not the routing, becomes the bottleneck. The cache is
// therefore split into `BatchOptions::cache_shards` independent LRU
// shards selected by the key hash; each shard has its own mutex, list
// and map. The capacity bound stays global-equivalent — the configured
// capacity is distributed over the shards, so the total resident entries
// never exceed it — but the LRU *order* is per shard: with more than one
// shard, eviction approximates global LRU (an entry is evicted by
// pressure within its own shard). `cache_shards = 1` restores the exact
// single-lock global-LRU behavior. Hit/miss determinism is unaffected:
// for a replayed workload that fits in capacity, sharded and unsharded
// caches produce identical stats, and results are bit-identical always.
//
// Routing dispatches through alg::registry() — EngineRouteOptions names
// the router ("dp" by default), so the same engine front end serves any
// registered strategy.
//
// Determinism contract. route() and route_many() return results
// bit-identical to the named router's direct path, for every thread
// count and with the cache on or off:
//   - cache keys compare the exact connection sequence (the hash is
//     permutation-invariant, the equality is not), so an id-permuted
//     instance can never be served another permutation's routing;
//   - only *pure* results — success or proven infeasibility under an
//     unlimited budget — are cached; budget-limited calls bypass the
//     cache entirely in both directions (unless the caller opts into
//     read-only service via allow_cached_when_budgeted, which can only
//     substitute the exact unlimited answer);
//   - route_many() partitions statically (instance i's result never
//     depends on scheduling); only the cache *counters* may vary with
//     thread interleaving, never the results.
//
// Degradation support (the survivability layer, harness/chaos.h):
// rebind() re-points the engine at a structurally different channel —
// typically a FaultPlan-degraded one — rebuilding the index while
// *keeping* the memo cache. Entries are keyed by the substrate
// fingerprint (it participates in key equality, not just the hash), so
// entries from other substrates can never be served wrongly, and
// returning to a previously seen substrate re-hits its entries — that is
// what makes recovery after a storm cheap. invalidate(fingerprint)
// evicts exactly the entries of one substrate (fingerprint-delta-aware:
// a storm only invalidates what it touched).
#pragma once

#include <chrono>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "alg/result.h"
#include "core/channel_index.h"
#include "core/connection.h"
#include "core/weights.h"
#include "harness/budget.h"
#include "util/pool.h"

namespace segroute::engine {

/// Hashable weight selection for the memo cache (a raw WeightFn is an
/// opaque std::function and cannot key a cache). kNone = feasibility
/// routing (Problems 1/2); the rest name the catalog in core/weights.h.
enum class WeightKind {
  kNone = 0,
  kOccupiedLength,
  kSegmentCount,
  kWastedLength,
  kUnit,
};

const char* to_string(WeightKind k);

/// The WeightFn a WeightKind names (kNone yields an empty optional).
std::optional<WeightFn> make_weight(WeightKind k);

/// Per-instance routing options understood by the engine (the hashable
/// subset of a RouteRequest).
struct EngineRouteOptions {
  /// Which registered router (alg::registry() name) routes the instance.
  /// The memo cache is keyed on it, so one BatchRouter can serve mixed
  /// strategies without cross-serving results. An unknown name yields
  /// FailureKind::kInvalidInput.
  std::string router = "dp";

  /// 0 = unlimited-segment routing; K > 0 = K-segment routing.
  int max_segments = 0;

  /// Optimization objective (Problem 3) or kNone for feasibility.
  WeightKind weight = WeightKind::kNone;

  /// Custom weight hook: when set, overrides `weight`. This is how a
  /// caller folds per-instance pricing — e.g. the fabric router's
  /// Lagrangian congestion multipliers (fpga/fabric.h) — into the
  /// registry's weight contract while keeping the memo cache usable:
  /// `weight_tag` must uniquely fingerprint the function's *behavior*
  /// (e.g. a hash of the quantized price table), because the cache keys
  /// on the tag, not the closure. Tag 0 is reserved for "untagged": a
  /// custom weight with tag 0 bypasses the cache in both directions
  /// rather than risk cross-serving two functions under one key.
  std::optional<WeightFn> custom_weight;
  std::uint64_t weight_tag = 0;

  /// Per-instance resource bounds. A non-unlimited budget makes the call
  /// bypass the memo cache (budget-limited outcomes are not pure
  /// functions of the instance).
  harness::Budget budget;

  /// Opt-in relaxation of the budget/cache rule for service front ends
  /// (svc::RoutingService sets it): a budget-limited call may be *served
  /// from* the memo cache. Sound because cached entries are pure results
  /// — success or proven infeasibility computed under an unlimited
  /// budget — so a hit returns the exact unlimited answer instead of
  /// re-deriving a kBudgetExhausted. Results computed under a budget are
  /// still never inserted. Off by default: the strict "budget-limited
  /// calls bypass the cache in both directions" contract stays the
  /// engine's default behavior.
  bool allow_cached_when_budgeted = false;
};

/// Memo-cache observability counters (a snapshot; `size` <= `capacity`).
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t invalidations = 0;  // entries evicted by invalidate()
  std::size_t size = 0;
  std::size_t capacity = 0;
};

struct BatchOptions {
  /// Worker threads for route_many. The library-wide convention
  /// (shared with alg::CapacityOptions::threads,
  /// fpga::FabricOptions::threads and svc::SvcOptions::threads):
  /// 1 = serial, N > 1 = fixed, and <= 0 = "auto" —
  /// util::hardware_threads(), the clamped hardware concurrency.
  /// Partitioning stays static and deterministic for every resolved
  /// value, so results never depend on the choice.
  int threads = 1;

  /// Enable the memo cache.
  bool use_cache = true;

  /// Maximum cached results; least-recently-used entries are evicted.
  std::size_t cache_capacity = 256;

  /// Number of independent cache shards (clamped to [1, 64] and to
  /// cache_capacity). 1 = one global LRU behind one mutex (the exact
  /// legacy behavior); the default 16 keeps parallel warm-hit streams
  /// from serializing on a single lock. See the file comment for the
  /// eviction-order caveat.
  int cache_shards = 16;

  /// Optional total wall-clock allowance for each route_many() call,
  /// divided evenly into per-instance deadline slices (instance budgets
  /// stay independent of thread count, preserving determinism up to
  /// deadline jitter). Unset = no batch-level deadline.
  std::optional<std::chrono::milliseconds> deadline;
};

/// Receipt from BatchRouter::rebind_delta(): the structural diff between
/// the old and new substrate and what happened to the old substrate's
/// memo entries.
struct RebindDelta {
  std::uint64_t old_fingerprint = 0;
  std::uint64_t new_fingerprint = 0;

  /// True when the substrates are not migration-comparable — different
  /// track count or width, or a changed identical-segmentation type
  /// partition (which can shift a canonicalizing router's tie-breaks
  /// even far from the edit). The rebind then behaved exactly like
  /// rebind(): entries stay cached under their old fingerprint.
  bool structural = false;

  /// The affected-column mask: interval hull of every segment adjacent
  /// to a changed switch, over the old AND new extents ([0, -1] = no
  /// structural difference). Cached results whose connection spans are
  /// disjoint from it are valid verbatim on the new substrate.
  Column affected_lo = 0;
  Column affected_hi = -1;

  std::size_t migrated = 0;  // entries re-keyed to the new fingerprint
  std::size_t evicted = 0;   // entries overlapping the mask, invalidated
};

class BatchRouter {
 public:
  /// Builds the channel's index once. The channel must outlive the router.
  explicit BatchRouter(const SegmentedChannel& ch, BatchOptions opts = {});

  [[nodiscard]] const ChannelIndex& index() const { return index_; }
  [[nodiscard]] const BatchOptions& options() const { return opts_; }

  /// Routes one instance through the engine (thread scratch + memo
  /// cache), dispatching to the registered router named in the
  /// options. Bit-identical to calling that router's free function
  /// directly with the same options (the default "dp" matches dp_route).
  alg::RouteResult route(const ConnectionSet& cs,
                         const EngineRouteOptions& opts = {});

  /// Routes every instance, deterministically partitioned over the
  /// worker pool. results[i] corresponds to batch[i] and is independent
  /// of the thread count.
  std::vector<alg::RouteResult> route_many(
      const std::vector<ConnectionSet>& batch,
      const EngineRouteOptions& opts = {});

  /// As above but with per-instance options (opts[i] routes batch[i]) —
  /// the shape a fabric sweep needs, where every channel carries its own
  /// congestion-priced weight. opts.size() must equal batch.size();
  /// a mismatch returns kInvalidInput results without routing anything.
  std::vector<alg::RouteResult> route_many(
      const std::vector<ConnectionSet>& batch,
      const std::vector<EngineRouteOptions>& opts);

  /// Re-points the engine at `ch` (which must outlive it), rebuilding the
  /// index. The memo cache is kept: entries are fingerprint-keyed,
  /// so stale service is impossible and returning to a previously seen
  /// substrate re-hits its entries. Not thread-safe against concurrent
  /// route()/route_many() calls — quiesce the engine first.
  void rebind(const SegmentedChannel& ch);

  /// Delta-aware rebind: re-points the engine at `ch` like rebind(), but
  /// instead of stranding the old substrate's memo entries under a dead
  /// fingerprint, *migrates* the ones an edit provably did not touch.
  /// The structural diff of the two channels yields an affected-column
  /// mask (segments adjacent to changed switches, old and new extents);
  /// when the substrates are migration-comparable (same track count,
  /// width and type partition), entries whose connection spans are
  /// disjoint from the mask are re-keyed to the new fingerprint — every
  /// segment such a result can see is bit-identical in both channels,
  /// so the cached answer is the new substrate's answer — and entries
  /// overlapping the mask are evicted (counted as invalidations).
  /// Incomparable substrates degrade to plain rebind() semantics.
  /// Like rebind(): not thread-safe against concurrent routes.
  RebindDelta rebind_delta(const SegmentedChannel& ch);

  /// Evicts exactly the cache entries computed on the substrate with this
  /// fingerprint, leaving every other substrate's entries hot.
  void invalidate(std::uint64_t fingerprint);

  [[nodiscard]] CacheStats cache_stats() const;

  /// Per-shard snapshots, in shard order (the obs registry exposes these
  /// as svc.cache.shard<i>.* gauges via the routing service). Their field
  /// sums equal cache_stats() up to updates racing the walk.
  [[nodiscard]] std::vector<CacheStats> shard_stats() const;

  void clear_cache();

 private:
  struct CacheKey {
    std::string router;  // registry name the result came from
    std::uint64_t fingerprint = 0;  // substrate the result was computed on
    int max_segments = 0;
    WeightKind weight = WeightKind::kNone;
    std::uint64_t weight_tag = 0;  // custom-weight fingerprint (0 = none)
    std::vector<std::pair<Column, Column>> conns;  // exact sequence
    std::uint64_t hash = 0;  // permutation-invariant, precomputed

    friend bool operator==(const CacheKey& a, const CacheKey& b) {
      return a.fingerprint == b.fingerprint &&
             a.max_segments == b.max_segments && a.weight == b.weight &&
             a.weight_tag == b.weight_tag && a.router == b.router &&
             a.conns == b.conns;
    }
  };
  struct CacheKeyHash {
    std::size_t operator()(const CacheKey& k) const {
      return static_cast<std::size_t>(k.hash);
    }
  };
  struct CacheEntry {
    CacheKey key;
    alg::RouteResult result;
  };

  /// One cache shard: an independent bounded LRU behind its own mutex.
  /// entries is most-recent-first; by_key points into it. Counters are
  /// per shard and summed by cache_stats().
  struct Shard {
    mutable std::mutex mu;
    std::list<CacheEntry> entries;
    std::unordered_map<CacheKey, std::list<CacheEntry>::iterator, CacheKeyHash>
        by_key;
    std::size_t capacity = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t invalidations = 0;
  };

  [[nodiscard]] Shard& shard_of(std::uint64_t hash) {
    // Finalize (splitmix64) before selecting: the raw key hash sums
    // per-connection FNV terms whose bits 32..39 are nearly constant
    // for small column operands, so the previous `(hash >> 32) %
    // nshards` pinned every key of a typical small-channel workload to
    // ONE shard — an LRU thrashing that 1/16th of the nominal capacity.
    // The mix spreads all input bits into the selector; the map inside
    // the shard keeps using the unfinalized hash.
    std::uint64_t z = hash;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    return *shards_[z % shards_.size()];
  }

  /// The cache hash as a pure function of the key fields — make_key()
  /// and rebind_delta()'s re-keying must agree bit for bit.
  static std::uint64_t key_hash(const CacheKey& key);

  CacheKey make_key(const ConnectionSet& cs,
                    const EngineRouteOptions& opts) const;
  alg::RouteResult route_one(const ConnectionSet& cs,
                             const EngineRouteOptions& opts,
                             const harness::Budget& budget);
  EngineRouteOptions sliced(const EngineRouteOptions& opts,
                            std::size_t batch_size) const;

  const SegmentedChannel* ch_;
  ChannelIndex index_;
  BatchOptions opts_;
  std::optional<WeightFn> weight_fns_[5];  // one per WeightKind, lazy-free
  util::ThreadPool pool_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace segroute::engine
