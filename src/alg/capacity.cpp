#include "alg/capacity.h"

#include <algorithm>
#include <vector>

#include "alg/registry.h"
#include "core/router.h"
#include "util/pool.h"

namespace segroute::alg {

namespace {

bool routes(const SegmentedChannel& ch, const ConnectionSet& cs,
            int max_segments) {
  RouteRequest rq;
  rq.channel = &ch;
  rq.connections = &cs;
  rq.options.max_segments = max_segments;
  return route("dp", rq).success;
}

}  // namespace

std::optional<int> min_tracks(const ConnectionSet& cs,
                              const ChannelFactory& make,
                              const CapacityOptions& opts) {
  for (int t = std::max(1, cs.density()); t <= opts.track_limit; ++t) {
    if (routes(make(t), cs, opts.max_segments)) return t;
  }
  return std::nullopt;
}

int max_routable_prefix(const SegmentedChannel& ch, const ConnectionSet& cs,
                        const CapacityOptions& opts) {
  // One bulk slice per probe from the stored vector — not an add()-loop
  // rebuild — so a probe of prefix m costs one O(m) copy.
  const std::vector<Connection>& all = cs.all();
  int lo = 0, hi = cs.size();
  while (lo < hi) {
    const int mid = lo + (hi - lo + 1) / 2;
    const ConnectionSet prefix(
        std::vector<Connection>(all.begin(), all.begin() + mid));
    if (routes(ch, prefix, opts.max_segments)) {
      lo = mid;
    } else {
      hi = mid - 1;
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
  // one pool index each.
  std::vector<std::uint64_t> seeds(static_cast<std::size_t>(trials));
  for (auto& s : seeds) s = rng();
  std::vector<ConnectionSet> batch(static_cast<std::size_t>(trials));
  for (std::size_t i = 0; i < batch.size(); ++i) {
    std::mt19937_64 trial_rng(seeds[i]);
    batch[i] = draw(trial_rng);
  }
  std::vector<char> ok(batch.size(), 0);
  util::ThreadPool pool(opts.threads);
  pool.parallel_for(trials, [&](std::int64_t i) {
    const auto k = static_cast<std::size_t>(i);
    ok[k] = batch[k].max_right() <= ch.width() &&
            routes(ch, batch[k], opts.max_segments);
  });
  return static_cast<double>(std::count(ok.begin(), ok.end(), 1)) /
         static_cast<double>(trials);
}

}  // namespace segroute::alg
