#include "engine/batch.h"

#include <algorithm>
#include <limits>

#include "alg/registry.h"
#include "core/router.h"
#include "engine/scratch.h"
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
    : ch_(&ch), index_(ch), opts_(opts), pool_(opts.threads) {
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
// tracks and a permuted instance needs its own entry. A pure function
// of the key fields: rebind_delta() recomputes it when it re-keys a
// migrated entry to a new fingerprint.
std::uint64_t BatchRouter::key_hash(const CacheKey& key) {
  std::uint64_t h = key.fingerprint;
  h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(key.max_segments))
       * 1099511628211ull;
  h ^= static_cast<std::uint64_t>(key.weight) * 1099511628211ull;
  h ^= key.weight_tag * 0x9e3779b97f4a7c15ull;
  for (const char c : key.router) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    h *= 1099511628211ull;
  }
  for (const auto& [l, r] : key.conns) {
    h += fnv_pair(l, r);
  }
  return h;
}

BatchRouter::CacheKey BatchRouter::make_key(
    const ConnectionSet& cs, const EngineRouteOptions& opts) const {
  CacheKey key;
  key.router = opts.router;
  key.fingerprint = index_.fingerprint();
  key.max_segments = opts.max_segments;
  key.weight = opts.weight;
  key.weight_tag = opts.custom_weight ? opts.weight_tag : 0;
  key.conns.reserve(static_cast<std::size_t>(cs.size()));
  for (const Connection& c : cs.all()) {
    key.conns.emplace_back(c.left, c.right);
  }
  key.hash = key_hash(key);
  return key;
}

alg::RouteResult BatchRouter::route_one(const ConnectionSet& cs,
                                        const EngineRouteOptions& opts,
                                        const harness::Budget& budget) {
  Scratch& scratch = thread_scratch();
  RouteRequest rq;
  rq.channel = ch_;
  rq.connections = &cs;
  rq.context.occupancy = &scratch.occupancy_for(index_);
  rq.dp_workspace = &scratch.dp();
  rq.options.max_segments = opts.max_segments;
  rq.options.weight = opts.custom_weight
                          ? opts.custom_weight
                          : weight_fns_[static_cast<int>(opts.weight)];
  rq.budget = budget;
  alg::RouteResult res = alg::route(opts.router, rq);
  // The scratch arenas grow during the route; record the retained
  // high-water mark after the fact.
  SEGROUTE_GAUGE_MAX("engine.scratch.bytes_held", scratch.bytes_held());
  return res;
}

alg::RouteResult BatchRouter::route(const ConnectionSet& cs,
                                    const EngineRouteOptions& opts) {
  SEGROUTE_SPAN(route_span, "engine.route", "fingerprint",
                index_.fingerprint());
  const bool pure = opts.budget.unlimited();
  const bool taggable = !opts.custom_weight || opts.weight_tag != 0;
  const bool cache_on =
      opts_.use_cache && taggable && opts_.cache_capacity != 0;
  // Budgeted calls may opt into cache *reads* (a cached entry is a pure
  // result, so serving it under a budget is exact); only pure results are
  // ever inserted below.
  if (!cache_on || (!pure && !opts.allow_cached_when_budgeted)) {
    return route_one(cs, opts, opts.budget);
  }
  CacheKey key = make_key(cs, opts);
  Shard& shard = shard_of(key.hash);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.by_key.find(key);
    if (it != shard.by_key.end()) {
      ++shard.hits;
      shard.entries.splice(shard.entries.begin(), shard.entries,
                           it->second);  // touch
      SEGROUTE_COUNT("engine.cache.hits", 1);
      return it->second->result;
    }
    ++shard.misses;
  }
  SEGROUTE_COUNT("engine.cache.misses", 1);
  alg::RouteResult res = route_one(cs, opts, opts.budget);
  if (pure && cacheable(res)) {
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

// Per-instance budget: the caller's, tightened by an even slice of the
// batch deadline when one is configured. Slices are a function of the
// batch size only — not of the thread count — so results stay
// thread-count invariant (up to wall-clock jitter inherent in any
// deadline).
EngineRouteOptions BatchRouter::sliced(const EngineRouteOptions& opts,
                                       std::size_t batch_size) const {
  EngineRouteOptions inst_opts = opts;
  if (opts_.deadline && batch_size > 0) {
    const auto slice = *opts_.deadline / static_cast<int>(batch_size);
    inst_opts.budget.deadline =
        inst_opts.budget.deadline ? std::min(*inst_opts.budget.deadline, slice)
                                  : slice;
  }
  return inst_opts;
}

std::vector<alg::RouteResult> BatchRouter::route_many(
    const std::vector<ConnectionSet>& batch, const EngineRouteOptions& opts) {
  std::vector<alg::RouteResult> results(batch.size());
  if (batch.empty()) return results;

  const EngineRouteOptions inst_opts = sliced(opts, batch.size());
  pool_.parallel_for(static_cast<std::int64_t>(batch.size()),
                     [&](std::int64_t i) {
                       results[static_cast<std::size_t>(i)] =
                           route(batch[static_cast<std::size_t>(i)], inst_opts);
                     });
  return results;
}

std::vector<alg::RouteResult> BatchRouter::route_many(
    const std::vector<ConnectionSet>& batch,
    const std::vector<EngineRouteOptions>& opts) {
  std::vector<alg::RouteResult> results(batch.size());
  if (batch.empty()) return results;
  if (opts.size() != batch.size()) {
    for (auto& r : results) {
      r.fail(alg::FailureKind::kInvalidInput,
             "route_many: per-instance options size != batch size");
    }
    return results;
  }

  std::vector<EngineRouteOptions> inst_opts;
  inst_opts.reserve(opts.size());
  for (const EngineRouteOptions& o : opts) {
    inst_opts.push_back(sliced(o, batch.size()));
  }
  pool_.parallel_for(static_cast<std::int64_t>(batch.size()),
                     [&](std::int64_t i) {
                       results[static_cast<std::size_t>(i)] = route(
                           batch[static_cast<std::size_t>(i)],
                           inst_opts[static_cast<std::size_t>(i)]);
                     });
  return results;
}

void BatchRouter::rebind(const SegmentedChannel& ch) {
  ch_ = &ch;
  index_ = ChannelIndex(ch);
  SEGROUTE_INSTANT("engine.rebind", "fingerprint", index_.fingerprint());
}

RebindDelta BatchRouter::rebind_delta(const SegmentedChannel& ch) {
  RebindDelta d;
  d.old_fingerprint = index_.fingerprint();
  const SegmentedChannel& old_ch = *ch_;
  // Migration-comparable: same shape AND the same identical-segmentation
  // type partition. The partition guard matters because a canonicalizing
  // router (the DP's type dedup) can change tie-breaks *globally* when a
  // class splits or merges, even for connections far from the edit; the
  // dense first-occurrence type ids make vector equality mean partition
  // equality.
  const bool comparable = old_ch.num_tracks() == ch.num_tracks() &&
                          old_ch.width() == ch.width() &&
                          old_ch.type_of() == ch.type_of();
  Column lo = std::numeric_limits<Column>::max();
  Column hi = -1;
  if (comparable) {
    for (TrackId t = 0; t < ch.num_tracks(); ++t) {
      const Track& ot = old_ch.track(t);
      const Track& nt = ch.track(t);
      const std::vector<Column> a = ot.switch_positions();
      const std::vector<Column> b = nt.switch_positions();
      // A switch at p separates columns p and p+1; a switch present in
      // only one segmentation changes exactly the segments adjacent to
      // it — widen the mask to their extents in BOTH segmentations.
      const auto widen = [&](Column p) {
        const auto [al, ar] = ot.align_to_segments(p, p + 1);
        const auto [bl, br] = nt.align_to_segments(p, p + 1);
        lo = std::min({lo, al, bl});
        hi = std::max({hi, ar, br});
      };
      std::size_t i = 0;
      std::size_t j = 0;
      while (i < a.size() || j < b.size()) {
        if (j == b.size() || (i < a.size() && a[i] < b[j])) {
          widen(a[i++]);
        } else if (i == a.size() || b[j] < a[i]) {
          widen(b[j++]);
        } else {
          ++i;
          ++j;
        }
      }
    }
  }
  ch_ = &ch;
  index_ = ChannelIndex(ch);
  d.new_fingerprint = index_.fingerprint();
  SEGROUTE_INSTANT("engine.rebind", "fingerprint", index_.fingerprint());
  if (!comparable) {
    d.structural = true;
    return d;  // plain rebind() semantics: entries stay under the old fp
  }
  if (hi >= lo) {
    d.affected_lo = lo;
    d.affected_hi = hi;
  }
  if (d.old_fingerprint == d.new_fingerprint) return d;  // same substrate

  // Pass 1: under each shard's lock, pull out the old substrate's
  // entries — mask-disjoint ones migrate, the rest are invalidated.
  // (Re-keying changes the hash, and the hash picks the shard, so
  // migrated entries may move shards; like rebind(), callers quiesce
  // routing first.)
  std::vector<CacheEntry> moving;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (auto it = shard->entries.begin(); it != shard->entries.end();) {
      if (it->key.fingerprint != d.old_fingerprint) {
        ++it;
        continue;
      }
      bool disjoint = true;
      for (const auto& [l, r] : it->key.conns) {
        if (l <= d.affected_hi && r >= d.affected_lo) {
          disjoint = false;
          break;
        }
      }
      shard->by_key.erase(it->key);
      if (disjoint) {
        moving.push_back(std::move(*it));
      } else {
        ++shard->invalidations;
        SEGROUTE_COUNT("engine.cache.invalidated", 1);
        ++d.evicted;
      }
      it = shard->entries.erase(it);
    }
  }
  // Pass 2: re-key and re-insert at MRU position in the (possibly
  // different) shard the new hash selects.
  for (CacheEntry& e : moving) {
    e.key.fingerprint = d.new_fingerprint;
    e.key.hash = key_hash(e.key);
    Shard& shard = shard_of(e.key.hash);
    std::lock_guard<std::mutex> lock(shard.mu);
    if (shard.by_key.find(e.key) != shard.by_key.end()) continue;
    shard.entries.push_front(std::move(e));
    shard.by_key.emplace(shard.entries.front().key, shard.entries.begin());
    ++d.migrated;
    while (shard.entries.size() > shard.capacity) {
      shard.by_key.erase(shard.entries.back().key);
      shard.entries.pop_back();
      ++shard.evictions;
      SEGROUTE_COUNT("engine.cache.evictions", 1);
    }
  }
  return d;
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

void BatchRouter::clear_cache() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->entries.clear();
    shard->by_key.clear();
  }
}

}  // namespace segroute::engine
