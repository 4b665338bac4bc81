// bench_dp_hotpath — the DP hot path, measured three ways:
//
//   A. dp_route on every standard-suite instance (plus two larger
//      generated ones) in all three problem modes: unlimited (Problem 1),
//      K = 2 (Problem 2), weighted occupied-length (Problem 3); plus one
//      weighted large-table row whose dedup table outgrows L2, so the
//      sweep's batched-probe regime has a number, one infeasible
//      two-word instance (Problems 1 and 2 only) that column density
//      proves dead, and one Problem-1 instance per state width (one and
//      two words) that the depth-first search must exhaust because its
//      dead ends come from segmentation, which column density cannot
//      see. "nodes" is what the
//      search held: graph nodes for the weighted sweep, visited states
//      for the depth-first search of Problems 1 and 2, whose rows also
//      print the full graph's node count (the unit-weight sweep) beside
//      it. Each row also prints its expansions (successors generated:
//      nodes - 1 + dedup hits, a hit being a successor already built or
//      proven dead), the share of them that were hits, and the states
//      column density pruned, from the dp.* counters;
//   B. Monte-Carlo routability() throughput, serial vs the thread pool,
//      with a bit-identical-result check across thread counts;
//   C. the parallel suite driver: harness::robust_route over the whole
//      instance set, serial vs pool.
//
// Flags:
//   --json PATH    write the machine-readable results (BENCH_dp.json)
//   --check PATH   compare against a committed baseline: exit 1 if any
//                  section A instance/mode is >5x slower or flips its
//                  success/weight answer, or if section C's routed count
//                  differs across thread counts or from the baseline's
//   --threads N    thread count for the parallel sections (0 = hardware)
//   --trials N     Monte-Carlo trials for section B (default 200)
//   --quick        fewer repetitions (for smoke use)
//   --trace PATH   record the run in a trace session, write Chrome JSON
//   --metrics PATH write the metrics snapshot at exit
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "alg/capacity.h"
#include "alg/dp.h"
#include "alg/registry.h"
#include "bench_json.h"
#include "core/router.h"
#include "core/weights.h"
#include "gen/segmentation.h"
#include "gen/suite.h"
#include "gen/workload.h"
#include "harness/robust_route.h"
#include "io/json.h"
#include "io/table.h"
#include "obs/metrics.h"
#include "util/pool.h"

using namespace segroute;
using Clock = std::chrono::steady_clock;

namespace {

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Best-of-5 batches; batch size adapted so one batch takes ~20 ms.
/// Taking the minimum over five batches (not three) discards scheduler
/// and frequency noise, which on shared runners dwarfs the per-call
/// variance being measured.
template <typename F>
double time_ms_per_call(F&& f, bool quick) {
  f();  // warmup
  const auto t0 = Clock::now();
  f();
  const double est = ms_since(t0);
  const double target = quick ? 5.0 : 20.0;
  int reps = est > 0 ? static_cast<int>(target / est) + 1 : 1000;
  reps = std::min(reps, quick ? 500 : 2000);
  double best = std::numeric_limits<double>::infinity();
  for (int b = 0; b < 5; ++b) {
    const auto t1 = Clock::now();
    for (int i = 0; i < reps; ++i) f();
    best = std::min(best, ms_since(t1) / reps);
  }
  return best;
}

struct BenchRow {
  std::string key;  // "<instance>/<mode>"
  double ms_per_route = 0.0;
  std::uint64_t total_nodes = 0;
  bool success = false;
  double weight = 0.0;
  std::size_t words_per_state = 0;  // packed occupancy words per frontier
  // Problems 1 and 2: nodes of the full assignment graph; unset for the
  // weighted rows, whose total_nodes already is that count.
  std::optional<std::uint64_t> graph_nodes = std::nullopt;
  // Dedup probes of one route and the share that hit an existing node;
  // unset for registry rows and in builds without metrics.
  std::optional<std::uint64_t> expansions = std::nullopt;
  double dedup_hit_ratio = 0.0;
  // States the depth-first search skipped or abandoned because column
  // density proved them dead; unset where expansions is.
  std::optional<std::uint64_t> pruned = std::nullopt;
};

struct NamedInstance {
  std::string name;
  SegmentedChannel channel;
  ConnectionSet connections;
};

std::vector<NamedInstance> bench_instances() {
  std::vector<NamedInstance> out;
  for (auto& inst : gen::standard_suite()) {
    out.push_back({inst.name, inst.channel, inst.connections});
  }
  // Two larger generated instances so the hot path has real headroom.
  {
    auto ch = gen::staggered_segmentation(8, 96, 8);
    std::mt19937_64 rng(2001);
    auto cs = gen::routable_workload(ch, 40, 7.0, rng);
    out.push_back({"gen-wide", std::move(ch), std::move(cs)});
  }
  {
    auto ch = gen::progressive_segmentation(9, 96, 4, 3);
    std::mt19937_64 rng(2002);
    auto cs = gen::routable_workload(ch, 30, 6.0, rng);
    out.push_back({"gen-types", std::move(ch), std::move(cs)});
  }
  return out;
}

/// A W=2 instance whose largest level holds about 120k nodes, so the
/// sweep's dedup slot array (about 12 MB) is far past
/// alg::kProbeBatchMinBytes. Section A only, weighted only (the
/// depth-first search of Problem 1 never builds that table): section C
/// keeps its twelve instances.
NamedInstance large_table_instance() {
  auto ch = gen::staggered_segmentation(12, 48, 6);
  std::mt19937_64 rng(23);
  auto cs = gen::routable_workload(ch, 36, 7.0, rng);
  return {"gen-large", std::move(ch), std::move(cs)};
}

/// A W=2 instance that is over-dense: a routable 24-connection workload
/// on gen-large's channel, then 13 connections on its last column, one
/// more than there are tracks. Every reachable state is dead (126,643 of
/// them unlimited), and the search ends once the first one builds the
/// column-density thresholds: its root fails them. Section A only,
/// Problems 1 and 2 only.
NamedInstance blocked_instance() {
  auto ch = gen::staggered_segmentation(12, 48, 6);
  std::mt19937_64 rng(23);
  auto cs = gen::routable_workload(ch, 24, 7.0, rng);
  for (int i = 0; i < 13; ++i) cs.add(48, 48);
  return {"gen-blocked", std::move(ch), std::move(cs)};
}

/// A Problem-1 instance the depth-first search must exhaust although no
/// column is over-dense: a routable workload on a staggered channel whose
/// tracks all end in one segment over a four-column tail, then T + 1
/// one-column connections spread over that tail. A segment hosts one
/// connection, so the tail needs T + 1 tracks; column density cannot see
/// that, so the prune cuts only a few states near the tail and the search
/// backtracks through nearly the whole graph. One such row per state
/// width gates the per-state cost of the one-word and the multi-word
/// loop. Section A only, Problem 1 only.
NamedInstance segment_blocked_instance(std::string name, TrackId T,
                                       Column width, Column seglen, int m,
                                       std::uint64_t seed) {
  constexpr Column kTail = 4;
  const auto body_ch = gen::staggered_segmentation(T, width, seglen);
  std::vector<Track> tracks;
  for (TrackId t = 0; t < T; ++t) {
    std::vector<Column> cuts;  // the last one is `width`
    for (const Segment& s : body_ch.track(t).segments()) cuts.push_back(s.right);
    tracks.emplace_back(width + kTail, std::move(cuts));
  }
  std::mt19937_64 rng(seed);
  auto cs = gen::routable_workload(body_ch, m, 7.0, rng);
  for (TrackId i = 0; i <= T; ++i) {
    const Column c = width + 1 + i % kTail;
    cs.add(c, c);
  }
  return {std::move(name), SegmentedChannel(std::move(tracks)),
          std::move(cs)};
}

using bench::fmt;

// Builds without metrics leave the dp.* counters at zero.
constexpr bool kCountersLive = SEGROUTE_OBS_ENABLED != 0;

}  // namespace

int main(int argc, char** argv) {
  std::string json_path, check_path;
  int threads = 0;
  int trials = 200;
  bool quick = false;
  bench::ObsOutputs obs_out;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--json" && i + 1 < argc) json_path = argv[++i];
    else if (a == "--check" && i + 1 < argc) check_path = argv[++i];
    else if (a == "--threads" && i + 1 < argc) threads = std::atoi(argv[++i]);
    else if (a == "--trials" && i + 1 < argc) trials = std::atoi(argv[++i]);
    else if (a == "--quick") quick = true;
    else if (obs_out.parse_flag(argc, argv, i)) continue;
    else {
      std::cerr << "unknown flag: " << a << "\n";
      return 2;
    }
  }
  const int W = util::resolve_threads(threads);
  obs_out.start();

  // --- Section A: dp_route per instance and mode -------------------------
  const auto w = weights::occupied_length();
  std::vector<BenchRow> rows;
  io::Table table({"instance", "mode", "ms/route", "nodes", "graph",
                   "expansions", "hit%", "pruned", "ok", "weight"});
  obs::Counter& nodes_created =
      obs::Registry::instance().counter("dp.nodes_created");
  obs::Counter& dedup_hits = obs::Registry::instance().counter("dp.dedup_hits");
  obs::Counter& pruned = obs::Registry::instance().counter("dp.pruned_states");
  std::vector<NamedInstance> section_a = bench_instances();
  section_a.push_back(large_table_instance());
  section_a.push_back(blocked_instance());
  section_a.push_back(
      segment_blocked_instance("seg-blocked", 8, 90, 8, 60, 2001));
  section_a.push_back(
      segment_blocked_instance("seg-blocked-wide", 12, 44, 6, 30, 23));
  for (const auto& inst : section_a) {
    // Words per packed frontier for this instance — fixed by (tracks,
    // width), reported so perf JSON records the state layout it timed.
    alg::bits::FrontierCodec codec;
    codec.init_uniform(
        static_cast<std::size_t>(inst.channel.num_tracks()),
        static_cast<std::uint32_t>(inst.channel.width() + 1));
    const std::size_t wps = codec.words();
    // `search_k`: for a Problem-1/2 row, its K, so the row also counts
    // the full graph (same K, unit weights: the level sweep).
    const auto run_mode = [&](const std::string& mode, auto&& route,
                              std::optional<int> search_k = std::nullopt) {
      BenchRow row;
      row.key = inst.name + "/" + mode;
      row.words_per_state = wps;
      row.ms_per_route = time_ms_per_call(route, quick);
      if (search_k) {
        alg::DpOptions full;
        full.max_segments = *search_k;
        full.weight = weights::unit();
        row.graph_nodes =
            alg::dp_route(inst.channel, inst.connections, full)
                .stats.total_nodes;
      }
      const std::uint64_t nodes0 = nodes_created.value();
      const std::uint64_t hits0 = dedup_hits.value();
      const std::uint64_t pruned0 = pruned.value();
      const alg::RouteResult r = route();
      row.total_nodes = r.stats.total_nodes;
      row.success = r.success;
      row.weight = r.weight;
      std::string exp_col = "-";
      std::string hit_col = "-";
      std::string pruned_col = "-";
      if (kCountersLive) {
        // Every expansion is one dedup probe: it either appends a node
        // (every node but the root) or hits an existing one.
        const std::uint64_t hits = dedup_hits.value() - hits0;
        row.expansions = nodes_created.value() - nodes0 - 1 + hits;
        row.dedup_hit_ratio =
            *row.expansions > 0 ? static_cast<double>(hits) /
                                      static_cast<double>(*row.expansions)
                                : 0.0;
        exp_col = io::Table::num(*row.expansions);
        hit_col = io::Table::num(100.0 * row.dedup_hit_ratio, 1);
        row.pruned = pruned.value() - pruned0;
        pruned_col = io::Table::num(*row.pruned);
      }
      table.add_row({inst.name, mode, io::Table::num(row.ms_per_route, 4),
                     io::Table::num(row.total_nodes),
                     row.graph_nodes ? io::Table::num(*row.graph_nodes) : "-",
                     exp_col, hit_col, pruned_col, row.success ? "yes" : "no",
                     io::Table::num(row.weight)});
      rows.push_back(row);
    };
    const auto weighted = [&] {
      return alg::dp_route_optimal(inst.channel, inst.connections, w);
    };
    if (inst.name == "gen-large") {  // one row: the batched regime
      run_mode("weighted", weighted);
      continue;
    }
    const bool search_only = inst.name == "gen-blocked";
    run_mode(
        "unlimited",
        [&] { return alg::dp_route_unlimited(inst.channel, inst.connections); },
        0);
    if (inst.name.starts_with("seg-blocked")) continue;  // Problem 1 only
    run_mode(
        "k2",
        [&] {
          return alg::dp_route_ksegment(inst.channel, inst.connections, 2);
        },
        2);
    if (!search_only) run_mode("weighted", weighted);
  }
  std::cout << "DP hot path — per-instance routing cost\n";
  table.print(std::cout);

  // --- Section B: routability throughput, serial vs pool -----------------
  const auto rb_channel = gen::staggered_segmentation(6, 48, 8);
  const auto draw = [](std::mt19937_64& r) {
    return gen::geometric_workload(20, 48, 7.0, r);
  };
  alg::CapacityOptions serial_opts;
  serial_opts.threads = 1;
  alg::CapacityOptions pool_opts;
  pool_opts.threads = W;

  std::mt19937_64 rng_a(424242);
  const auto tb0 = Clock::now();
  const double rate_serial =
      alg::routability(rb_channel, draw, trials, rng_a, serial_opts);
  const double ms_serial = ms_since(tb0);

  std::mt19937_64 rng_b(424242);
  const auto tb1 = Clock::now();
  const double rate_pool =
      alg::routability(rb_channel, draw, trials, rng_b, pool_opts);
  const double ms_pool = ms_since(tb1);
  const bool identical = rate_serial == rate_pool;

  std::cout << "\nroutability() throughput (" << trials << " trials)\n";
  io::Table tb({"threads", "rate", "ms", "trials/s"});
  tb.add_row({"1", io::Table::num(rate_serial, 4), io::Table::num(ms_serial, 1),
              io::Table::num(trials / (ms_serial / 1000.0), 0)});
  tb.add_row({io::Table::num(W), io::Table::num(rate_pool, 4),
              io::Table::num(ms_pool, 1),
              io::Table::num(trials / (ms_pool / 1000.0), 0)});
  tb.print(std::cout);
  std::cout << (identical ? "rates bit-identical across thread counts\n"
                          : "RATE MISMATCH ACROSS THREAD COUNTS\n");

  // --- Section C: parallel suite driver via robust_route -----------------
  const auto instances = bench_instances();
  const auto drive = [&](int nthreads) {
    util::ThreadPool pool(nthreads);
    std::vector<char> ok(instances.size(), 0);
    const auto t0 = Clock::now();
    pool.parallel_for(static_cast<std::int64_t>(instances.size()),
                      [&](std::int64_t i) {
                        const auto iu = static_cast<std::size_t>(i);
                        harness::RobustOptions ro;
                        ro.deadline = std::chrono::milliseconds(200);
                        const auto rep = harness::robust_route(
                            instances[iu].channel, instances[iu].connections,
                            ro);
                        ok[iu] = rep.success ? 1 : 0;
                      });
    int routed = 0;
    for (char v : ok) routed += v;
    return std::pair<double, int>(ms_since(t0), routed);
  };
  const auto [drv_serial_ms, drv_serial_ok] = drive(1);
  const auto [drv_pool_ms, drv_pool_ok] = drive(W);
  std::cout << "\nsuite driver (robust_route x " << instances.size()
            << " instances): serial " << drv_serial_ms << " ms, " << W
            << " threads " << drv_pool_ms << " ms, routed "
            << drv_pool_ok << "/" << instances.size() << "\n";
  if (drv_serial_ok != drv_pool_ok) {
    std::cout << "DRIVER RESULT MISMATCH ACROSS THREAD COUNTS\n";
  }

  // --- Section D: registry sweep -----------------------------------------
  // Every registered router, dispatched by name on a canary instance that
  // sits inside all capability envelopes. Times the full registry path
  // (pre-checks + adapter + route); the "dp" row vs Section A's direct
  // dp_route rows bounds the dispatch overhead. Coverage: a router whose
  // adapter breaks shows up here as a failed outcome.
  bool registry_ok = true;
  {
    const SegmentedChannel canary_ch = SegmentedChannel::identical(3, 12, {6});
    ConnectionSet canary_cs;
    canary_cs.add(1, 3);
    canary_cs.add(7, 9);
    canary_cs.add(4, 6);
    const auto cw = weights::occupied_length();
    std::cout << "\nregistry sweep (canary instance, by-name dispatch)\n";
    io::Table rt({"router", "ms/route", "outcome"});
    for (const alg::RouterEntry& e : alg::registry()) {
      RouteRequest rq;
      rq.channel = &canary_ch;
      rq.connections = &canary_cs;
      if (e.caps.requires_weight) rq.options.weight = cw;
      alg::RouteResult last;
      const double ms = time_ms_per_call(
          [&] { last = alg::route(e, rq); }, /*quick=*/true);
      if (!last.success) registry_ok = false;
      rt.add_row({e.name, io::Table::num(ms, 4),
                  last.success ? "ok" : alg::to_string(last.failure)});
      rows.push_back({std::string("registry/") + e.name, ms, 0,
                      last.success, last.weight});
    }
    rt.print(std::cout);
    std::cout << (registry_ok
                      ? "all registered routers routed the canary\n"
                      : "REGISTRY COVERAGE FAILURE\n");
  }

  obs_out.finish(std::cout);

  // --- JSON emission -----------------------------------------------------
  std::ostringstream js;
  js << "{\n  \"bench\": \"dp_hotpath\",\n  \"threads\": " << W
     << ",\n  \"hardware_threads\": " << util::hardware_threads()
     << ",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const BenchRow& r = rows[i];
    js << "    {\"key\": " << "\"" << io::json_escape(r.key) << "\""
       << ", \"ms_per_route\": " << fmt(r.ms_per_route)
       << ", \"total_nodes\": " << r.total_nodes;
    if (r.graph_nodes) js << ", \"graph_nodes\": " << *r.graph_nodes;
    js
       << ", \"success\": " << (r.success ? "true" : "false")
       << ", \"weight\": " << fmt(r.weight)
       << ", \"words_per_state\": " << r.words_per_state;
    if (r.expansions) {
      js << ", \"expansions\": " << *r.expansions
         << ", \"dedup_hit_ratio\": " << fmt(r.dedup_hit_ratio)
         << ", \"pruned\": " << *r.pruned;
    }
    js << "}"
       << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  js << "  ],\n";
  js << "  \"probe_batch_min_bytes\": " << alg::kProbeBatchMinBytes << ",\n";
  js << "  \"routability\": {\"trials\": " << trials
     << ", \"rate\": " << fmt(rate_serial)
     << ", \"ms_serial\": " << fmt(ms_serial)
     << ", \"ms_parallel\": " << fmt(ms_pool)
     << ", \"identical\": " << (identical ? "true" : "false") << "},\n";
  js << "  \"suite_driver\": {\"instances\": " << instances.size()
     << ", \"routed\": " << drv_pool_ok
     << ", \"ms_serial\": " << fmt(drv_serial_ms)
     << ", \"ms_parallel\": " << fmt(drv_pool_ms) << "},\n";
  // This bench routes every instance directly (no BatchRouter), so the
  // engine-cache counters are structurally zero; the field exists so all
  // perf JSON shares one schema (bench_engine fills it in).
  js << "  " << bench::engine_cache_json(0, 0, 0) << "\n}\n";

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << js.str();
    std::cout << "\nwrote " << json_path << "\n";
  }

  // --- Baseline check ----------------------------------------------------
  int failures = 0;
  if (!registry_ok) {
    std::cout << "FAIL: a registered router did not route the canary\n";
    ++failures;
  }
  if (!check_path.empty()) {
    std::ifstream in(check_path);
    if (!in) {
      std::cerr << "cannot read baseline " << check_path << "\n";
      return 2;
    }
    bench::Baseline base{std::string(std::istreambuf_iterator<char>(in),
                                     std::istreambuf_iterator<char>())};
    std::cout << "\nbaseline check vs " << check_path
              << " (fail threshold: 5x)\n";
    for (const BenchRow& r : rows) {
      const auto bms = base.field(r.key, "ms_per_route");
      if (!bms) continue;  // new instance since the baseline: skip
      const auto bok = base.field(r.key, "success");
      const auto bw = base.field(r.key, "weight");
      const auto bn = base.field(r.key, "total_nodes");
      if (bok && ((*bok != 0.0) != r.success)) {
        std::cout << "  FAIL " << r.key << ": success flipped\n";
        ++failures;
      }
      if (bw && std::abs(*bw - r.weight) > 1e-6 * std::max(1.0, *bw)) {
        std::cout << "  FAIL " << r.key << ": weight " << r.weight
                  << " != baseline " << *bw << "\n";
        ++failures;
      }
      // Node counts are deterministic (the packed layout is injective and
      // the depth-first order fixed), so any drift means the explored
      // states changed — fatal, not a perf regression.
      if (bn && *bn != static_cast<double>(r.total_nodes)) {
        std::cout << "  FAIL " << r.key << ": node count " << r.total_nodes
                  << " != baseline " << *bn << "\n";
        ++failures;
      }
      if (*bms > 0 && r.ms_per_route > 5.0 * *bms) {
        std::cout << "  FAIL " << r.key << ": " << r.ms_per_route
                  << " ms > 5x baseline " << *bms << " ms\n";
        ++failures;
      }
    }
    if (!identical) {
      std::cout << "  FAIL routability: not bit-identical across threads\n";
      ++failures;
    }
    if (drv_serial_ok != drv_pool_ok) {
      std::cout << "  FAIL suite driver: routed " << drv_serial_ok
                << " serial vs " << drv_pool_ok << " on " << W
                << " threads\n";
      ++failures;
    }
    const auto base_routed = base.object_field("suite_driver", "routed");
    if (base_routed && *base_routed != static_cast<double>(drv_pool_ok)) {
      std::cout << "  FAIL suite driver: routed " << drv_pool_ok
                << " != baseline " << *base_routed << "\n";
      ++failures;
    }
    std::cout << (failures == 0 ? "baseline check passed\n"
                                : "baseline check FAILED\n");
  }
  return failures == 0 ? 0 : 1;
}
