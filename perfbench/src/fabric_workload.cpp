// fabric-minwidth: one op is FabricRouter::min_fabric_tracks(32) — the
// full negotiated min-width search — on one of a pool of seeded 5-row x
// 16-slot, 56-net netlists and placements, visited in turn.
#include <algorithm>
#include <string>
#include <vector>

#include "common.h"
#include "fpga/fabric.h"

namespace segbench {
namespace {

// Search costs differ by 10x between netlists, led by the few whose search
// takes five width probes, so a run's figures depend on how many it
// meets. A pool larger than a run gets through makes each search a fresh
// netlist, so a run averages over as many netlists as it searches.
constexpr int kPool = 2048;
// The first kChecked entries have their minimum width and digest checked
// (and averaged into min_tracks_mean) after the timed loop.
constexpr std::size_t kChecked = 256;
// One thread: a search runs about five route() calls, each spawning a
// pool and fork-joining every negotiation iteration, and on a shared host
// those wake-ups made 2-thread search times swing by half between
// minutes. The 2-thread speedup is a per-layer probe (fpga.speedup_2t).
constexpr int kFabricThreads = 1;

fpga::FabricOptions search_options(int threads) {
  fpga::FabricOptions o;
  o.max_iterations = 10;
  o.threads = threads;
  return o;
}

std::vector<fpga::FabricRouter> make_routers(
    const std::vector<FabricScenario>& pool) {
  std::vector<fpga::FabricRouter> routers;
  routers.reserve(pool.size());
  for (const FabricScenario& s : pool) {
    routers.emplace_back(s.dev, s.nl, s.p, fabric_channel);
  }
  return routers;
}

struct Phase {
  Samples lat;           // per search
  double elapsed_s = 0;  // up to the end of the last search

  [[nodiscard]] double ops_per_s() const {
    return static_cast<double>(lat.count()) / elapsed_s;
  }
};

/// Searches pool entries in turn for `seconds`, adding to `ph`; every
/// entry's minimum must repeat exactly on each visit.
void search_loop(const std::vector<fpga::FabricRouter>& routers,
                 std::vector<int>& min_of, std::size_t& next, double seconds,
                 Phase& ph, Outcome& out) {
  const fpga::FabricOptions o = search_options(kFabricThreads);
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point end =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  while (Clock::now() < end) {
    const std::size_t i = next++ % routers.size();
    const Clock::time_point a = Clock::now();
    std::optional<int> m;
    {
      obs::Span sp("fpga.min_fabric_tracks");
      m = routers[i].min_fabric_tracks(kFabricTrackLimit, o);
    }
    const Clock::time_point b = Clock::now();
    ++out.attempted;
    if (!m) {
      out.fail("fabric " + std::to_string(i) + " not routed within " +
               std::to_string(kFabricTrackLimit) + " tracks");
      continue;
    }
    if (min_of[i] == 0) {
      min_of[i] = *m;
    } else if (min_of[i] != *m) {
      out.fail("fabric " + std::to_string(i) + " minimum width not repeatable");
      continue;
    }
    ph.lat.add(us_between(a, b));
  }
  ph.elapsed_s += us_between(t0, Clock::now()) / 1e6;
}

/// Untimed: each of the first kChecked pool entries routes at its minimum
/// width, and the FabricResult digest repeats when routed again on 2
/// threads.
void check_digests(const std::vector<fpga::FabricRouter>& routers,
                   std::vector<int>& min_of, Outcome& out) {
  for (std::size_t i = 0; i < kChecked; ++i) {
    ++out.attempted;
    if (min_of[i] == 0) {
      const auto m = routers[i].min_fabric_tracks(
          kFabricTrackLimit, search_options(kFabricThreads));
      if (!m) {
        out.fail("fabric " + std::to_string(i) + " not routed");
        continue;
      }
      min_of[i] = *m;
    }
    const fpga::FabricResult r2 = routers[i].route(min_of[i], search_options(2));
    const fpga::FabricResult r1 = routers[i].route(min_of[i], search_options(1));
    if (!r2.success) {
      out.fail("fabric " + std::to_string(i) + " does not route at its minimum");
    } else if (r1.digest != r2.digest) {
      out.fail("fabric " + std::to_string(i) + " digest does not repeat");
    }
  }
}

}  // namespace

void run_fabric(const RunArgs& a, Outcome& out) {
  const std::vector<FabricScenario> pool = fabric_scenarios(a.seed, kPool);
  fact("fabric.threads", std::to_string(kFabricThreads));
  fact("fabric.pool", std::to_string(kPool));
  fact("generator.outstanding", "1");
  fact("generator.threads", "1");

  std::vector<double> setup;
  const auto set_up_burst = [&](int reps) {
    std::vector<fpga::FabricRouter> routers;
    for (int rep = 0; rep < reps; ++rep) {
      routers.clear();
      const Clock::time_point t0 = Clock::now();
      routers = make_routers(pool);
      setup.push_back(us_between(t0, Clock::now()) / 1e6);
    }
    return routers;
  };
  const std::vector<fpga::FabricRouter> routers =
      set_up_burst(a.trace != nullptr ? 1 : kSetupReps);
  const double setup_rss = peak_rss_mb();

  std::vector<int> min_of(pool.size(), 0);
  std::size_t next = 0;
  if (a.trace == nullptr) {
    Phase ph;
    for (int slice = 0; slice < kSetupBursts; ++slice) {
      if (slice > 0) set_up_burst(kSetupReps);
      search_loop(routers, min_of, next, a.seconds / kSetupBursts, ph, out);
    }
    check_digests(routers, min_of, out);
    double sum = 0.0;
    for (std::size_t i = 0; i < kChecked; ++i) sum += min_of[i];
    metric("setup_s", median(setup), "s", setup.size());
    metric("setup_rss_mb", setup_rss, "MB", 1);
    metric("ops_per_s", ph.ops_per_s(), "1/s", ph.lat.count());
    metric("latency_p50_us", ph.lat.pct(0.50), "us", ph.lat.count());
    metric("latency_p90_us", ph.lat.pct(0.90), "us", ph.lat.count());
    metric("latency_p99_us", ph.lat.pct(0.99), "us", ph.lat.count());
    metric("min_tracks_mean", sum / static_cast<double>(kChecked), "tracks",
           kChecked);
    return;
  }

  const double half = a.seconds / 2;
  Phase untraced, traced;
  search_loop(routers, min_of, next, half, untraced, out);
  a.trace->start();
  search_loop(routers, min_of, next, half, traced, out);
  metric("trace.overhead_p50_us", traced.lat.pct(0.5) - untraced.lat.pct(0.5),
         "us", traced.lat.count());
  metric("trace.overhead_ops_per_s",
         traced.ops_per_s() - untraced.ops_per_s(), "1/s", traced.lat.count());
  check_digests(routers, min_of, out);

  // This workload drives no service: the svc, engine and obs layer
  // metrics come from a short svc-hot burst on the same seed.
  const double fill = run_svc_layer_probe(a.seed, 0.5, out);
  run_probes(a, fill,
             fabric_channel(std::max(1, min_of[0]), pool[0].dev.columns()),
             out);
}

}  // namespace segbench
