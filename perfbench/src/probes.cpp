// Per-layer probes of a traced run: direct calls into one layer's public
// functions on inputs drawn from the run's seed, timed from outside.
#include <algorithm>
#include <atomic>
#include <string>
#include <vector>

#include "alg/decompose.h"
#include "alg/online.h"
#include "alg/registry.h"
#include "common.h"
#include "core/channel_index.h"
#include "engine/batch.h"
#include "fpga/fabric.h"
#include "harness/verify.h"
#include "util/pool.h"

namespace segbench {
namespace {

constexpr int kIndexBuilds = 2000;
constexpr int kForkJoins = 20000;
constexpr int kHitRounds = 200;
constexpr int kDpInstances = 64;
constexpr int kOnlineEdits = 3000;
constexpr double kOnlineSeconds = 1.5;
constexpr int kFabricScenarios = 4;
constexpr int kFabricReps = 3;

std::atomic<std::uint64_t> g_sink{0};  // keeps probed results observable

void probe_core(const SegmentedChannel& ch) {
  std::vector<double> t;
  t.reserve(kIndexBuilds);
  for (int i = 0; i < kIndexBuilds; ++i) {
    const Clock::time_point a = Clock::now();
    const ChannelIndex idx(ch);
    const Clock::time_point b = Clock::now();
    g_sink.fetch_add(idx.fingerprint(), std::memory_order_relaxed);
    t.push_back(us_between(a, b));
  }
  metric("core.index_build_us", median(t), "us", t.size());
}

void probe_pool(double fill) {
  util::ThreadPool pool(kSvcThreads);
  const std::int64_t n = std::max<std::int64_t>(1, std::llround(fill));
  std::vector<double> t;
  t.reserve(kForkJoins);
  for (int i = 0; i < kForkJoins; ++i) {
    const Clock::time_point a = Clock::now();
    pool.parallel_for(n, [](std::int64_t) {});
    t.push_back(us_between(a, Clock::now()));
  }
  metric("pool.fork_join_us", median(t), "us", t.size());
}

void probe_engine_hit(std::uint64_t seed, Outcome& out) {
  const SegmentedChannel ch = hot_channel();
  const std::vector<ConnectionSet> pool = hot_pool(ch, seed);
  engine::BatchRouter eng(ch);
  for (const ConnectionSet& cs : pool) {
    out.check(eng.route(cs).success, "engine probe: pool instance not routed");
  }
  std::vector<double> per_route;
  per_route.reserve(kHitRounds);
  for (int r = 0; r < kHitRounds; ++r) {
    std::uint64_t ok = 0;
    const Clock::time_point a = Clock::now();
    {
      obs::Span sp("engine.route_hit_round");
      for (const ConnectionSet& cs : pool) ok += eng.route(cs).success ? 1 : 0;
    }
    const Clock::time_point b = Clock::now();
    out.check(ok == pool.size(), "engine probe: warm hit not routed");
    per_route.push_back(us_between(a, b) / static_cast<double>(pool.size()));
  }
  metric("engine.hit_us", median(per_route), "us",
         per_route.size() * pool.size());
}

/// Direct registry "dp" on the svc-cold instances, beside the same
/// instances through a cache-less engine.
void probe_dp(std::uint64_t seed, Outcome& out) {
  const SegmentedChannel ch = cold_channel();
  const std::vector<ConnectionSet> inst = cold_instances(ch, seed, kDpInstances);
  engine::BatchOptions bo;
  bo.use_cache = false;
  engine::BatchRouter eng(ch, bo);
  std::vector<double> direct, overhead;
  std::uint64_t nodes = 0;
  std::size_t max_level = 0;
  // Pass 0 warms allocators and caches; pass 1 is recorded.
  for (int pass = 0; pass < 2; ++pass) {
    for (const ConnectionSet& cs : inst) {
      RouteRequest req;
      req.channel = &ch;
      req.connections = &cs;
      // Alternate which call goes first, so neither always finds the
      // instance warm in the CPU caches.
      const bool direct_first = (&cs - inst.data()) % 2 == 0;
      alg::RouteResult r, e;
      Clock::time_point a, b, c, d;
      const auto engine_route = [&] {
        obs::Span sp("engine.route_nocache");
        c = Clock::now();
        e = eng.route(cs);
        d = Clock::now();
      };
      if (!direct_first) engine_route();
      {
        obs::Span sp("alg.route_dp");
        a = Clock::now();
        r = alg::route("dp", req);
        b = Clock::now();
      }
      if (direct_first) engine_route();
      const bool verified = r.success && harness::RouteVerifier(ch, cs).check(r);
      if (!out.check(verified && e.success && e.routing == r.routing,
                     "dp probe: direct dp unverified or engine differs")) {
        continue;
      }
      if (pass == 0) continue;
      direct.push_back(us_between(a, b));
      overhead.push_back(us_between(c, d) - us_between(a, b));
      nodes += r.stats.total_nodes;
      max_level = std::max(max_level, r.stats.max_level_nodes);
    }
  }
  double total_us = 0.0;
  for (const double d : direct) total_us += d;
  metric("alg.dp_p50_us", percentile(direct, 0.5), "us", direct.size());
  metric("alg.dp_p99_us", percentile(direct, 0.99), "us", direct.size());
  metric("alg.dp_nodes", static_cast<double>(nodes), "count", direct.size());
  metric("alg.dp_ns_per_node",
         nodes > 0 ? total_us * 1e3 / static_cast<double>(nodes) : 0.0, "ns",
         direct.size());
  metric("alg.dp_max_level_nodes", static_cast<double>(max_level), "count",
         direct.size());
  metric("engine.nocache_overhead_us", median(overhead), "us", overhead.size());
}

/// Replays svc-edit session 0's script on a bare OnlineRouter.
void probe_online(std::uint64_t seed, Outcome& out) {
  const SegmentedChannel ch = hot_channel();
  alg::OnlineRouter router(ch, alg::OnlineRouter::Policy::BestFit);
  EditScript script(seed, 0, ch.width());
  std::vector<double> apply, fulldp;
  std::uint64_t repairs = 0;
  const Clock::time_point stop =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(kOnlineSeconds));
  for (int i = 0; i < kOnlineEdits && Clock::now() < stop; ++i) {
    const alg::ChannelEdit e = script.next();
    Clock::time_point a, b;
    alg::RepairOutcome r;
    {
      obs::Span sp("alg.online_apply");
      a = Clock::now();
      r = router.apply(e);
      b = Clock::now();
    }
    if (!r.success) {
      // Only an edit that leaves the live set unroutable may be refused.
      out.check(r.failure == alg::FailureKind::kInfeasible &&
                    !alg::from_scratch(ch, script.live_set(&e), true, 0)
                         .result.success,
                "online probe: edit refused wrongly: " + r.note);
      continue;
    }
    script.applied(e, r);
    ++out.attempted;
    apply.push_back(us_between(a, b));
    if (r.path == alg::RepairOutcome::Path::kRepair) {
      ++repairs;
    } else {
      fulldp.push_back(us_between(a, b));
    }
  }
  const auto [cs, routing] = router.snapshot();
  const alg::CanonicalResult canon = alg::from_scratch(ch, cs, true, 0);
  out.check(canon.result.success && canon.result.routing == routing &&
                same_spans(cs, script.live_set()),
            "online probe: state differs from alg::from_scratch");
  metric("alg.online_apply_p50_us", percentile(apply, 0.5), "us", apply.size());
  metric("alg.online_apply_p99_us", percentile(apply, 0.99), "us",
         apply.size());
  metric("alg.online_repair_frac",
         apply.empty() ? 0.0
                       : static_cast<double>(repairs) /
                             static_cast<double>(apply.size()),
         "fraction", apply.size());
  metric("alg.online_fulldp_us", mean(fulldp), "us", fulldp.size());
}

/// The fabric layer: width probes, negotiation counts, the parallel
/// route_many share and the 1- vs 2-thread speedup.
void probe_fabric(std::uint64_t seed, Outcome& out) {
  const std::vector<FabricScenario> pool =
      fabric_scenarios(seed, kFabricScenarios);
  std::vector<double> route_ms, route_many_ms;
  double t1_total = 0.0, t2_total = 0.0, probes = 0.0, iterations = 0.0;
  std::uint64_t hits = 0, misses = 0;
  for (const FabricScenario& s : pool) {
    // route() builds one channel per width it tries: counting the
    // factory's calls counts the search's probes.
    int widths = 0;
    const fpga::FabricRouter fr(s.dev, s.nl, s.p,
                                [&widths](int tracks, Column width) {
                                  ++widths;
                                  return fabric_channel(tracks, width);
                                });
    fpga::FabricOptions o2;
    o2.max_iterations = 10;
    o2.threads = 2;
    fpga::FabricOptions o1 = o2;
    o1.threads = 1;
    const std::optional<int> m = fr.min_fabric_tracks(kFabricTrackLimit, o2);
    if (!out.check(m.has_value(), "fabric probe: not routed within the limit")) {
      continue;
    }
    probes += widths;
    fpga::FabricResult res, one;
    for (int r = 0; r < kFabricReps; ++r) {
      const Clock::time_point a = Clock::now();
      {
        obs::Span sp("fpga.route_2t");
        res = fr.route(*m, o2);
      }
      const Clock::time_point b = Clock::now();
      {
        obs::Span sp("fpga.route_1t");
        one = fr.route(*m, o1);
      }
      const Clock::time_point c = Clock::now();
      out.check(res.success && one.digest == res.digest,
                "fabric probe: route at the minimum failed or diverged");
      route_ms.push_back(us_between(a, b) / 1e3);
      t2_total += us_between(a, b);
      t1_total += us_between(b, c);
    }
    iterations += res.iterations;
    hits += res.cache.hits;
    misses += res.cache.misses;

    // The final channels' parts, routed again from outside through one
    // engine, without the negotiated prices.
    const SegmentedChannel sub = fabric_channel(*m, s.dev.columns());
    std::vector<ConnectionSet> batch;
    for (const ConnectionSet& cs : res.per_channel) {
      for (const std::vector<ConnId>& part : alg::split_parts(sub, cs)) {
        ConnectionSet p;
        for (const ConnId id : part) p.add(cs[id].left, cs[id].right);
        batch.push_back(std::move(p));
      }
    }
    engine::BatchOptions bo;
    bo.threads = 2;
    bo.use_cache = false;
    engine::BatchRouter eng(sub, bo);
    for (int r = 0; r < kFabricReps; ++r) {
      const Clock::time_point a = Clock::now();
      std::vector<alg::RouteResult> results;
      {
        obs::Span sp("engine.route_many");
        results = eng.route_many(batch);
      }
      const Clock::time_point b = Clock::now();
      for (const alg::RouteResult& rr : results) {
        out.check(rr.success, "fabric probe: a final part does not route");
      }
      route_many_ms.push_back(us_between(a, b) / 1e3);
    }
  }
  const double n = static_cast<double>(pool.size());
  metric("fpga.route_ms", median(route_ms), "ms", route_ms.size());
  metric("fpga.probes_per_search", probes / n, "count", pool.size());
  metric("fpga.iterations", iterations / n, "count", pool.size());
  metric("fpga.cache_hit_ratio",
         hits + misses > 0 ? static_cast<double>(hits) /
                                 static_cast<double>(hits + misses)
                           : 0.0,
         "fraction", static_cast<std::size_t>(hits + misses));
  metric("fpga.route_many_ms", median(route_many_ms), "ms",
         route_many_ms.size());
  metric("fpga.speedup_2t", t2_total > 0 ? t1_total / t2_total : 0.0, "x",
         route_ms.size());
}

}  // namespace

void run_probes(const RunArgs& a, double fill, const SegmentedChannel& index_ch,
                Outcome& out) {
  probe_core(index_ch);
  probe_pool(fill);
  probe_engine_hit(a.seed, out);
  probe_dp(a.seed, out);
  probe_online(a.seed, out);
  probe_fabric(a.seed, out);
}

}  // namespace segbench
