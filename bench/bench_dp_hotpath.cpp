// bench_dp_hotpath — the DP hot path, measured three ways:
//
//   A. dp_route on every standard-suite instance (plus two larger
//      generated ones) in all three problem modes: unlimited (Problem 1),
//      K = 2 (Problem 2), weighted occupied-length (Problem 3);
//   B. Monte-Carlo routability() throughput, serial vs the thread pool,
//      with a bit-identical-result check across thread counts;
//   C. the parallel suite driver: harness::robust_route over the whole
//      instance set, serial vs pool.
//
// Flags:
//   --json PATH    write the machine-readable results (BENCH_dp.json)
//   --check PATH   compare section A against a committed baseline: exit 1
//                  if any instance/mode is >5x slower or flips its
//                  success/weight answer
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

using bench::fmt;

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
  io::Table table({"instance", "mode", "ms/route", "nodes", "ok", "weight"});
  for (const auto& inst : bench_instances()) {
    // Words per packed frontier for this instance — fixed by (tracks,
    // width), reported so perf JSON records the state layout it timed.
    alg::bits::FrontierCodec codec;
    codec.init_uniform(
        static_cast<std::size_t>(inst.channel.num_tracks()),
        static_cast<std::uint32_t>(inst.channel.width() + 1));
    const std::size_t wps = codec.words();
    const auto run_mode = [&](const std::string& mode, auto&& route) {
      BenchRow row;
      row.key = inst.name + "/" + mode;
      row.words_per_state = wps;
      row.ms_per_route = time_ms_per_call(route, quick);
      const alg::RouteResult r = route();
      row.total_nodes = r.stats.total_nodes;
      row.success = r.success;
      row.weight = r.weight;
      table.add_row({inst.name, mode, io::Table::num(row.ms_per_route, 4),
                     io::Table::num(row.total_nodes),
                     row.success ? "yes" : "no", io::Table::num(row.weight)});
      rows.push_back(row);
    };
    run_mode("unlimited", [&] {
      return alg::dp_route_unlimited(inst.channel, inst.connections);
    });
    run_mode("k2", [&] {
      return alg::dp_route_ksegment(inst.channel, inst.connections, 2);
    });
    run_mode("weighted", [&] {
      return alg::dp_route_optimal(inst.channel, inst.connections, w);
    });
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
     << ",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const BenchRow& r = rows[i];
    js << "    {\"key\": " << "\"" << io::json_escape(r.key) << "\""
       << ", \"ms_per_route\": " << fmt(r.ms_per_route)
       << ", \"total_nodes\": " << r.total_nodes
       << ", \"success\": " << (r.success ? "true" : "false")
       << ", \"weight\": " << fmt(r.weight)
       << ", \"words_per_state\": " << r.words_per_state << "}"
       << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  js << "  ],\n";
  js << "  \"probe_batch\": " << alg::bits::ProbeBatch::kCapacity << ",\n";
  js << "  \"routability\": {\"trials\": " << trials
     << ", \"rate\": " << fmt(rate_serial)
     << ", \"ms_serial\": " << fmt(ms_serial)
     << ", \"ms_parallel\": " << fmt(ms_pool)
     << ", \"identical\": " << (identical ? "true" : "false") << "},\n";
  js << "  \"suite_driver\": {\"instances\": " << instances.size()
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
      // Node counts are deterministic (the packed layout is injective),
      // so any drift means the explored graph changed — fatal, not a
      // perf regression.
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
    std::cout << (failures == 0 ? "baseline check passed\n"
                                : "baseline check FAILED\n");
  }
  return failures == 0 ? 0 : 1;
}
