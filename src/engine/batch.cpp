#include "engine/batch.h"

#include <algorithm>

#include "alg/registry.h"
#include "core/router.h"
#include "obs/clock.h"
#include "obs/instrument.h"

namespace segroute::engine {

namespace {

std::uint64_t fnv_pair(Column l, Column r) {
  std::uint64_t h = 1469598103934665603ull;
  h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(l));
  h *= 1099511628211ull;
  h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(r));
  h *= 1099511628211ull;
  return h;
}

/// Cache-safe results are pure functions of (channel, instance, options):
/// success or proven infeasibility. Budget-limited and invalid-input
/// outcomes are not cached (the former depend on machine load, the
/// latter are cheap to recompute and carry no routing).
bool cacheable(const alg::RouteResult& r) {
  return r.success || r.failure == alg::FailureKind::kInfeasible;
}

}  // namespace

const char* to_string(WeightKind k) {
  switch (k) {
    case WeightKind::kNone:
      return "none";
    case WeightKind::kOccupiedLength:
      return "occupied-length";
    case WeightKind::kSegmentCount:
      return "segment-count";
    case WeightKind::kWastedLength:
      return "wasted-length";
    case WeightKind::kUnit:
      return "unit";
  }
  return "?";
}

std::optional<WeightFn> make_weight(WeightKind k) {
  switch (k) {
    case WeightKind::kNone:
      return std::nullopt;
    case WeightKind::kOccupiedLength:
      return weights::occupied_length();
    case WeightKind::kSegmentCount:
      return weights::segment_count();
    case WeightKind::kWastedLength:
      return weights::wasted_length();
    case WeightKind::kUnit:
      return weights::unit();
  }
  return std::nullopt;
}

BatchRouter::BatchRouter(const SegmentedChannel& ch, BatchOptions opts)
    : ch_(&ch),
      fingerprint_(segroute::fingerprint(ch)),
      opts_(opts),
      pool_(opts.threads) {
  for (int k = 0; k < 5; ++k) {
    weight_fns_[k] = make_weight(static_cast<WeightKind>(k));
  }
  // Resolve the shard layout once: clamp to [1, 64], and never keep more
  // shards than capacity (a shard with capacity 0 could cache nothing and
  // would silently drop every entry routed to it). The configured
  // capacity is distributed across the shards so the global resident
  // bound is exactly cache_capacity.
  std::size_t nshards = static_cast<std::size_t>(
      std::clamp(opts_.cache_shards, 1, 64));
  if (opts_.cache_capacity > 0) {
    nshards = std::min(nshards, opts_.cache_capacity);
  }
  shards_.reserve(nshards);
  const std::size_t base = opts_.cache_capacity / nshards;
  const std::size_t rem = opts_.cache_capacity % nshards;
  for (std::size_t s = 0; s < nshards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
    shards_.back()->capacity = base + (s < rem ? 1 : 0);
  }
}

// Permutation-invariant hash (commutative combine over per-connection
// hashes, mixed with the options and the channel fingerprint) so the
// "connection multiset" lands in one bucket; equality still compares
// the exact sequence, because a routing maps connection *ids* to
// tracks and a permuted instance needs its own entry.
BatchRouter::CacheKey BatchRouter::make_key(
    const ConnectionSet& cs, const EngineRouteOptions& opts) const {
  CacheKey key;
  key.router = opts.router;
  key.fingerprint = fingerprint_;
  key.max_segments = opts.max_segments;
  key.weight = opts.weight;
  key.weight_tag = opts.custom_weight ? opts.weight_tag : 0;
  std::uint64_t h = key.fingerprint;
  h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(key.max_segments))
       * 1099511628211ull;
  h ^= static_cast<std::uint64_t>(key.weight) * 1099511628211ull;
  h ^= key.weight_tag * 0x9e3779b97f4a7c15ull;
  for (const char c : key.router) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    h *= 1099511628211ull;
  }
  key.conns.reserve(static_cast<std::size_t>(cs.size()));
  for (const Connection& c : cs.all()) {
    key.conns.emplace_back(c.left, c.right);
    h += fnv_pair(c.left, c.right);
  }
  key.hash = h;
  return key;
}

alg::RouteResult BatchRouter::route_one(const ConnectionSet& cs,
                                        const EngineRouteOptions& opts) {
  RouteRequest rq;
  rq.channel = ch_;
  rq.connections = &cs;
  rq.options.max_segments = opts.max_segments;
  rq.options.weight = opts.custom_weight
                          ? opts.custom_weight
                          : weight_fns_[static_cast<int>(opts.weight)];
  rq.budget = opts.budget;
  return alg::route(opts.router, rq);
}

bool BatchRouter::cache_readable(const EngineRouteOptions& opts) const {
  const bool taggable = !opts.custom_weight || opts.weight_tag != 0;
  // Budgeted calls may opt into cache *reads* (a cached entry is a pure
  // result, so serving it under a budget is exact); only pure results are
  // ever inserted by route().
  return opts_.use_cache && taggable && opts_.cache_capacity != 0 &&
         (opts.budget.unlimited() || opts.allow_cached_when_budgeted);
}

std::optional<alg::RouteResult> BatchRouter::lookup(Shard& shard,
                                                    const CacheKey& key,
                                                    bool count_miss) {
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.by_key.find(key);
  if (it == shard.by_key.end()) {
    if (count_miss) ++shard.misses;
    return std::nullopt;
  }
  ++shard.hits;
  shard.entries.splice(shard.entries.begin(), shard.entries,
                       it->second);  // touch
  SEGROUTE_COUNT("engine.cache.hits", 1);
  return it->second->result;
}

std::optional<alg::RouteResult> BatchRouter::cached(
    const ConnectionSet& cs, const EngineRouteOptions& opts) {
  if (!cache_readable(opts)) return std::nullopt;
  const CacheKey key = make_key(cs, opts);
  return lookup(shard_of(key.hash), key, /*count_miss=*/false);
}

alg::RouteResult BatchRouter::route(const ConnectionSet& cs,
                                    const EngineRouteOptions& opts) {
  SEGROUTE_SPAN(route_span, "engine.route", "fingerprint", fingerprint_);
  if (!cache_readable(opts)) return route_one(cs, opts);
  CacheKey key = make_key(cs, opts);
  Shard& shard = shard_of(key.hash);
  if (std::optional<alg::RouteResult> hit =
          lookup(shard, key, /*count_miss=*/true)) {
    return std::move(*hit);
  }
  SEGROUTE_COUNT("engine.cache.misses", 1);
  alg::RouteResult res = route_one(cs, opts);
  if (opts.budget.unlimited() && cacheable(res)) {
    std::lock_guard<std::mutex> lock(shard.mu);
    // Another thread may have inserted the same key while we routed;
    // both computed identical results, so keeping the existing entry is
    // equivalent.
    if (shard.by_key.find(key) == shard.by_key.end()) {
      shard.entries.push_front(CacheEntry{std::move(key), res});
      shard.by_key.emplace(shard.entries.front().key, shard.entries.begin());
      while (shard.entries.size() > shard.capacity) {
        shard.by_key.erase(shard.entries.back().key);
        shard.entries.pop_back();
        ++shard.evictions;
        SEGROUTE_COUNT("engine.cache.evictions", 1);
      }
    }
  }
  return res;
}

std::vector<alg::RouteResult> BatchRouter::route_many(
    const std::vector<ConnectionSet>& batch, const EngineRouteOptions& opts) {
  std::vector<alg::RouteResult> results(batch.size());
  if (batch.empty()) return results;

  pool_.parallel_for(static_cast<std::int64_t>(batch.size()),
                     [&](std::int64_t i) {
                       results[static_cast<std::size_t>(i)] =
                           route(batch[static_cast<std::size_t>(i)], opts);
                     });
  return results;
}

std::vector<alg::RouteResult> BatchRouter::route_many(
    const std::vector<ConnectionSet>& batch,
    const std::vector<EngineRouteOptions>& opts,
    std::vector<std::uint64_t>* elapsed_ns) {
  std::vector<alg::RouteResult> results(batch.size());
  if (elapsed_ns) elapsed_ns->assign(batch.size(), 0);
  if (batch.empty()) return results;
  if (opts.size() != batch.size()) {
    for (auto& r : results) {
      r.fail(alg::FailureKind::kInvalidInput,
             "route_many: per-instance options size != batch size");
    }
    return results;
  }

  pool_.parallel_for(static_cast<std::int64_t>(batch.size()),
                     [&](std::int64_t i) {
                       const auto k = static_cast<std::size_t>(i);
                       const std::uint64_t t0 = elapsed_ns ? obs::now_ns() : 0;
                       results[k] = route(batch[k], opts[k]);
                       if (elapsed_ns) (*elapsed_ns)[k] = obs::now_ns() - t0;
                     });
  return results;
}

void BatchRouter::rebind(const SegmentedChannel& ch) {
  ch_ = &ch;
  fingerprint_ = segroute::fingerprint(ch);
  SEGROUTE_INSTANT("engine.rebind", "fingerprint", fingerprint_);
}

void BatchRouter::invalidate(std::uint64_t fingerprint) {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (auto it = shard->entries.begin(); it != shard->entries.end();) {
      if (it->key.fingerprint == fingerprint) {
        shard->by_key.erase(it->key);
        it = shard->entries.erase(it);
        ++shard->invalidations;
        SEGROUTE_COUNT("engine.cache.invalidated", 1);
      } else {
        ++it;
      }
    }
  }
}

CacheStats BatchRouter::cache_stats() const {
  CacheStats s;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    s.hits += shard->hits;
    s.misses += shard->misses;
    s.evictions += shard->evictions;
    s.invalidations += shard->invalidations;
    s.size += shard->entries.size();
  }
  s.capacity = opts_.use_cache ? opts_.cache_capacity : 0;
  return s;
}

std::vector<CacheStats> BatchRouter::shard_stats() const {
  std::vector<CacheStats> out;
  out.reserve(shards_.size());
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    CacheStats s;
    s.hits = shard->hits;
    s.misses = shard->misses;
    s.evictions = shard->evictions;
    s.invalidations = shard->invalidations;
    s.size = shard->entries.size();
    s.capacity = shard->capacity;
    out.push_back(s);
  }
  return out;
}

}  // namespace segroute::engine
