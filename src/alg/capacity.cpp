#include "alg/capacity.h"

#include <algorithm>
#include <vector>

#include "alg/registry.h"
#include "core/router.h"
#include "engine/batch.h"
#include "util/pool.h"

namespace segroute::alg {

namespace {

// Direct registry probe, bypassing the engine. min_tracks keeps using it
// because every probe builds a *different* channel, so a BatchRouter's
// fingerprint-keyed cache and scratch have nothing to amortize; the
// fixed-channel searches below go through the engine instead.
bool routes(const SegmentedChannel& ch, const ConnectionSet& cs,
            const CapacityOptions& opts) {
  RouteRequest rq;
  rq.channel = &ch;
  rq.connections = &cs;
  rq.options.max_segments = opts.max_segments;
  return route(opts.router, rq).success;
}

}  // namespace

std::optional<int> min_tracks(const ConnectionSet& cs,
                              const ChannelFactory& make,
                              const CapacityOptions& opts,
                              bool assume_monotone) {
  const int lo_bound = std::max(1, cs.density());
  const int W = util::resolve_threads(opts.threads);
  const auto probe = [&](int t) { return routes(make(t), cs, opts); };

  if (assume_monotone) {
    int lo = lo_bound;
    int hi;
    if (W <= 1) {
      // Find a routable upper end by doubling, then binary search.
      hi = lo_bound;
      while (hi <= opts.track_limit && !probe(hi)) hi *= 2;
      if (hi > opts.track_limit) {
        if (!probe(opts.track_limit)) return std::nullopt;
        hi = opts.track_limit;
      }
      while (lo < hi) {
        const int mid = lo + (hi - lo) / 2;
        if (probe(mid)) {
          hi = mid;
        } else {
          lo = mid + 1;
        }
      }
      return lo;
    }

    util::ThreadPool pool(W);
    // Evaluate the whole doubling ladder in one parallel sweep, then
    // shrink the bracket with a multisection search (W probes per round
    // cut the interval by a factor of W+1). On a monotone factory this
    // returns exactly the serial answer.
    std::vector<int> ladder;
    for (int t = lo_bound; t <= opts.track_limit; t *= 2) ladder.push_back(t);
    if (ladder.empty() || ladder.back() != opts.track_limit) {
      ladder.push_back(opts.track_limit);
    }
    std::vector<char> ok(ladder.size(), 0);
    pool.parallel_for(static_cast<std::int64_t>(ladder.size()),
                      [&](std::int64_t i) {
                        const auto iu = static_cast<std::size_t>(i);
                        ok[iu] = probe(ladder[iu]) ? 1 : 0;
                      });
    std::size_t first_ok = ladder.size();
    for (std::size_t i = 0; i < ladder.size(); ++i) {
      if (ok[i]) {
        first_ok = i;
        break;
      }
    }
    if (first_ok == ladder.size()) return std::nullopt;
    hi = ladder[first_ok];
    lo = first_ok == 0 ? lo_bound : ladder[first_ok - 1] + 1;
    while (lo < hi) {
      const int span = hi - lo;  // unknown candidates: lo..hi-1
      std::vector<int> pts;
      if (span <= W) {
        for (int t = lo; t < hi; ++t) pts.push_back(t);
      } else {
        for (int k = 1; k <= W; ++k) {
          const int p =
              lo + static_cast<int>(static_cast<long long>(k) * span / (W + 1));
          if (pts.empty() || pts.back() != p) pts.push_back(p);
        }
      }
      std::vector<char> r(pts.size(), 0);
      pool.parallel_for(static_cast<std::int64_t>(pts.size()),
                        [&](std::int64_t i) {
                          const auto iu = static_cast<std::size_t>(i);
                          r[iu] = probe(pts[iu]) ? 1 : 0;
                        });
      for (std::size_t i = 0; i < pts.size(); ++i) {
        if (r[i]) {
          hi = pts[i];  // smallest routable probe
          break;
        }
        lo = pts[i] + 1;  // largest unroutable probe so far
      }
    }
    return lo;
  }

  // Non-monotone factory: first routable track count from the density
  // lower bound, scanning in deterministic batches of W.
  if (W <= 1) {
    for (int t = lo_bound; t <= opts.track_limit; ++t) {
      if (probe(t)) return t;
    }
    return std::nullopt;
  }
  util::ThreadPool pool(W);
  for (int base = lo_bound; base <= opts.track_limit; base += W) {
    const int n = std::min(W, opts.track_limit - base + 1);
    std::vector<char> ok(static_cast<std::size_t>(n), 0);
    pool.parallel_for(n, [&](std::int64_t i) {
      ok[static_cast<std::size_t>(i)] =
          probe(base + static_cast<int>(i)) ? 1 : 0;
    });
    for (int i = 0; i < n; ++i) {
      if (ok[static_cast<std::size_t>(i)]) return base + i;
    }
  }
  return std::nullopt;
}

int max_routable_prefix(const SegmentedChannel& ch, const ConnectionSet& cs,
                        const CapacityOptions& opts) {
  // Fixed channel, many probes: route through the engine. The channel
  // is fingerprinted once, probes reuse per-thread scratch, and the memo
  // cache keeps its answers across repeated calls on the same channel
  // (e.g. a capacity sweep re-probing overlapping prefixes).
  engine::BatchOptions bo;
  bo.threads = opts.threads;
  engine::BatchRouter router(ch, bo);
  engine::EngineRouteOptions eo;
  eo.router = opts.router;
  eo.max_segments = opts.max_segments;
  // One bulk slice per probe from the stored vector — not an add()-loop
  // rebuild — so a probe of prefix m costs one O(m) copy.
  const std::vector<Connection>& all = cs.all();
  const auto probe = [&](int m) {
    return router
        .route(ConnectionSet(std::vector<Connection>(all.begin(),
                                                     all.begin() + m)),
               eo)
        .success;
  };
  const int W = util::resolve_threads(opts.threads);
  int lo = 0, hi = cs.size();
  if (W <= 1) {
    while (lo < hi) {
      const int mid = lo + (hi - lo + 1) / 2;
      if (probe(mid)) {
        lo = mid;
      } else {
        hi = mid - 1;
      }
    }
    return lo;
  }
  util::ThreadPool pool(W);
  while (lo < hi) {
    const int span = hi - lo;  // unknown candidates: lo+1..hi
    std::vector<int> pts;
    if (span <= W) {
      for (int m = lo + 1; m <= hi; ++m) pts.push_back(m);
    } else {
      for (int k = 1; k <= W; ++k) {
        const int p =
            lo + static_cast<int>(static_cast<long long>(k) * span / (W + 1));
        if (pts.empty() || pts.back() != p) pts.push_back(p);
      }
    }
    std::vector<char> r(pts.size(), 0);
    pool.parallel_for(static_cast<std::int64_t>(pts.size()),
                      [&](std::int64_t i) {
                        const auto iu = static_cast<std::size_t>(i);
                        r[iu] = probe(pts[iu]) ? 1 : 0;
                      });
    for (std::size_t i = 0; i < pts.size(); ++i) {
      if (!r[i]) {
        hi = pts[i] - 1;  // smallest unroutable probe
        break;
      }
      lo = pts[i];  // largest routable probe so far
    }
  }
  return lo;
}

double routability(const SegmentedChannel& ch,
                   const std::function<ConnectionSet(std::mt19937_64&)>& draw,
                   int trials, std::mt19937_64& rng,
                   const CapacityOptions& opts) {
  if (trials <= 0) return 0.0;
  // Per-trial RNG streams: the master rng emits exactly one seed per
  // trial, in trial order, so both the master stream consumption and
  // every trial's workload are independent of the thread count. The
  // workloads are drawn up front (same streams, same order) and routed
  // as one engine batch: per-thread scratch, memo
  // cache off — independently drawn random workloads essentially never
  // repeat, so caching them would only burn memory.
  std::vector<std::uint64_t> seeds(static_cast<std::size_t>(trials));
  for (auto& s : seeds) s = rng();
  std::vector<ConnectionSet> batch(static_cast<std::size_t>(trials));
  for (std::size_t i = 0; i < batch.size(); ++i) {
    std::mt19937_64 trial_rng(seeds[i]);
    batch[i] = draw(trial_rng);
  }
  engine::BatchOptions bo;
  bo.threads = opts.threads;
  bo.use_cache = false;
  engine::BatchRouter router(ch, bo);
  engine::EngineRouteOptions eo;
  eo.router = opts.router;
  eo.max_segments = opts.max_segments;
  const std::vector<RouteResult> results = router.route_many(batch, eo);
  int n = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (batch[i].max_right() <= ch.width() && results[i].success) ++n;
  }
  return static_cast<double>(n) / static_cast<double>(trials);
}

}  // namespace segroute::alg
