// bench_svc — the routing service under load.
//
// Four sections:
//
//   determinism     a fixed seeded two-tenant driver-mode schedule (tick
//                   budgets, virtual time, no wall clock in any outcome)
//                   run at 1/2/8 worker threads; the response digests
//                   must be bit-identical (the service determinism
//                   contract — the same gate tests/test_svc.cpp pins
//                   under TSan).
//   closed model    N virtual users, each submit -> wait -> submit (at
//                   most one outstanding request per user), at rising
//                   concurrency, on a cache warmed before timing: the
//                   rows measure warm hits, and what concurrent clients
//                   cost each other. Each figure of a row is its median
//                   over seven runs. Reports throughput and p50/p99/p999
//                   service latency; the max observed throughput is the
//                   saturation estimate. The top concurrency splits its
//                   users across two tenants and reports fairness
//                   (min/max served ratio under the shared FIFO).
//   open model      arrivals paced at 1.25x the measured saturation
//                   rate, independent of completions, on a warmed cache
//                   — meant as overload against a bounded queue.
//                   Demonstrates admission control: latency stays
//                   bounded by queue depth while the overflow is
//                   rejected *typed*, and accepted + rejected must
//                   account for every submission exactly. Warm hits
//                   resolve inside submit(), on the one submitting
//                   thread, so where that thread cannot reach the
//                   offered rate nothing queues and nothing is rejected.
//
// Latency is measured service-side (queue_ms + service_ms from the
// response) so the numbers do not include client wake-up noise.
//
// Checked invariants (fatal):
//   - digests bit-identical across 1/2/8 threads (always);
//   - open-model accounting exact: served + rejected == submitted
//     (always);
//   - under --check: the driver-mode digest equals the committed
//     baseline's "digest/driver" row exactly (a change that shifts every
//     thread count alike still fails); closed/open throughput >=
//     baseline/5, p99 <= 5x baseline, tenant fairness >= 0.5; and the
//     closed-model c4 and c16 throughput, as ratios to c1 from this same
//     run, >= 0.5 on any host and >= 1.0 on a host with at least 4
//     hardware threads (more clients must add throughput there).
//
// Flags: --json PATH, --check PATH, --quick, --trace PATH,
//        --metrics PATH.
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_json.h"
#include "gen/segmentation.h"
#include "gen/workload.h"
#include "io/json.h"
#include "io/table.h"
#include "svc/service.h"
#include "util/pool.h"

using namespace segroute;
using Clock = std::chrono::steady_clock;

namespace {

using bench::fmt;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

SegmentedChannel make_channel() {
  return gen::staggered_segmentation(8, 64, 8);
}

/// A fixed pool of distinct routable instances per tenant; the service's
/// memo cache warms on it, so steady state mixes hits and fresh routes.
std::vector<ConnectionSet> make_pool(const SegmentedChannel& ch, int n,
                                     std::uint64_t seed) {
  std::vector<ConnectionSet> pool;
  std::mt19937_64 rng(seed);
  pool.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    pool.push_back(gen::routable_workload(ch, 6, 6.0, rng));
  }
  return pool;
}

struct Pct {
  double p50 = 0.0, p99 = 0.0, p999 = 0.0;
};

Pct percentiles(std::vector<double> v) {
  Pct p;
  if (v.empty()) return p;
  std::sort(v.begin(), v.end());
  const auto at = [&](double q) {
    const std::size_t i = std::min(
        v.size() - 1, static_cast<std::size_t>(q * static_cast<double>(v.size())));
    return v[i];
  };
  p.p50 = at(0.50);
  p.p99 = at(0.99);
  p.p999 = at(0.999);
  return p;
}

/// The driver-mode digest schedule: seeded arrivals, bob tick-sliced, no
/// wall clock anywhere near an outcome.
std::uint64_t run_digest_schedule(int threads) {
  const SegmentedChannel ch = make_channel();
  svc::SvcOptions o;
  o.threads = threads;
  o.queue_capacity = 64;
  o.drain_window = 16;
  o.max_inflight_per_tenant = 24;
  o.tenant_slice_ticks["bob"] = 4000;
  svc::RoutingService svc(ch, o);

  const std::vector<ConnectionSet> alice = make_pool(ch, 8, 11);
  std::vector<ConnectionSet> bob;
  std::mt19937_64 brng(12);
  for (int i = 0; i < 8; ++i) {
    bob.push_back(gen::geometric_workload(12, 64, 8.0, brng));
  }

  std::mt19937_64 arrivals(99);
  std::vector<std::future<svc::SvcResponse>> futs;
  for (int t = 0; t < 32; ++t) {
    const int n = static_cast<int>(arrivals() % 5);
    for (int i = 0; i < n; ++i) {
      svc::SvcRequest rq;
      const bool is_bob = arrivals() % 3 == 0;
      rq.tenant = is_bob ? "bob" : "alice";
      rq.connections = is_bob ? bob[arrivals() % bob.size()]
                              : alice[arrivals() % alice.size()];
      futs.push_back(svc.submit(std::move(rq)));
    }
    svc.tick();
  }
  svc.stop(svc::RoutingService::StopMode::kDrain);

  std::uint64_t digest = 1469598103934665603ull;
  for (auto& f : futs) digest = svc::fold_digest(digest, f.get());
  return digest;
}

/// Closed-model runs per concurrency; a row reports the median of each
/// figure. One run lasts milliseconds: a single one's throughput can be
/// off by 1.5x, and its p99 at 16 clients by 5x.
constexpr int kClosedTrials = 7;

/// Closed-model throughput gates, as ratios to the one-client row. On a
/// 4-hardware-thread host (g++ 12) 20 `--quick` runs measured c4/c1
/// 1.71-2.59 and c16/c1 1.61-2.58 with serve loops and a shared dispatch
/// lock; the exclusive-lock design before them measured 0.24-0.39 for
/// both, because concurrent admission probes lost the lock's try-lock to
/// each other and queued. Pinned to one core, both designs measure
/// 0.84-1.09: the multi-core threshold arms only where clients can run
/// side by side.
constexpr double kClientRatioFloor = 0.5;
constexpr double kClientRatioMultiCore = 1.0;
constexpr int kMultiCoreThreads = 4;

/// Untimed warm pass: every pool instance routed once, so the timed
/// requests are warm hits and a row measures the steady state, not the
/// pool's first misses (a --quick run's p99 would be one of them).
void warm(svc::RoutingService& svc, const std::vector<ConnectionSet>& pool) {
  for (const ConnectionSet& cs : pool) {
    svc::SvcRequest rq;
    rq.tenant = "warm";
    rq.connections = cs;
    (void)svc.submit(std::move(rq)).get();
  }
}

struct ClosedResult {
  double rps = 0.0;
  Pct lat;
  std::uint64_t served_alice = 0;
  std::uint64_t served_bob = 0;
};

/// Closed loop: `clients` virtual users, one outstanding request each,
/// `per_client` requests per user. Two tenants when split_tenants.
ClosedResult run_closed(const std::vector<ConnectionSet>& pool, int clients,
                        int per_client, bool split_tenants) {
  const SegmentedChannel ch = make_channel();
  svc::SvcOptions o;
  o.threads = 0;  // auto
  o.queue_capacity = 4096;
  o.drain_window = 64;
  svc::RoutingService svc(ch, o);
  svc.start();
  warm(svc, pool);

  std::vector<std::vector<double>> lat(static_cast<std::size_t>(clients));
  std::vector<std::uint64_t> served(static_cast<std::size_t>(clients), 0);
  const auto t0 = Clock::now();
  std::vector<std::thread> users;
  users.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    users.emplace_back([&, c] {
      const std::string tenant =
          split_tenants && c >= clients / 2 ? "bob" : "alice";
      std::mt19937_64 rng(1000 + static_cast<std::uint64_t>(c));
      for (int i = 0; i < per_client; ++i) {
        svc::SvcRequest rq;
        rq.tenant = tenant;
        rq.connections = pool[rng() % pool.size()];
        const svc::SvcResponse r = svc.submit(std::move(rq)).get();
        if (r.admit == svc::Admit::kAccepted) {
          lat[static_cast<std::size_t>(c)].push_back(r.queue_ms + r.service_ms);
          ++served[static_cast<std::size_t>(c)];
        }
      }
    });
  }
  for (auto& u : users) u.join();
  const double sec = ms_since(t0) / 1000.0;
  svc.stop(svc::RoutingService::StopMode::kDrain);

  ClosedResult res;
  std::vector<double> all;
  for (int c = 0; c < clients; ++c) {
    all.insert(all.end(), lat[static_cast<std::size_t>(c)].begin(),
               lat[static_cast<std::size_t>(c)].end());
    if (split_tenants && c >= clients / 2) {
      res.served_bob += served[static_cast<std::size_t>(c)];
    } else {
      res.served_alice += served[static_cast<std::size_t>(c)];
    }
  }
  res.rps = sec > 0 ? static_cast<double>(all.size()) / sec : 0.0;
  res.lat = percentiles(std::move(all));
  return res;
}

/// Each figure's median over `trials`: throughput and every percentile
/// on its own, with the served counts of the median-throughput run.
ClosedResult median_of(std::vector<ClosedResult> trials) {
  const auto median = [&](double (*field)(const ClosedResult&)) {
    std::vector<double> v;
    for (const ClosedResult& t : trials) v.push_back(field(t));
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  std::sort(trials.begin(), trials.end(),
            [](const ClosedResult& a, const ClosedResult& b) {
              return a.rps < b.rps;
            });
  ClosedResult r = trials[trials.size() / 2];
  r.lat.p50 = median([](const ClosedResult& t) { return t.lat.p50; });
  r.lat.p99 = median([](const ClosedResult& t) { return t.lat.p99; });
  r.lat.p999 = median([](const ClosedResult& t) { return t.lat.p999; });
  return r;
}

struct OpenResult {
  double rate_rps = 0.0;
  double rps = 0.0;
  Pct lat;
  std::uint64_t submitted = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  bool accounted = false;
  bool rejections_typed = true;
};

/// Open loop: arrivals paced at `rate` per second regardless of
/// completions, against a bounded queue — the overload experiment.
OpenResult run_open(const std::vector<ConnectionSet>& pool, double rate,
                    int total) {
  const SegmentedChannel ch = make_channel();
  svc::SvcOptions o;
  o.threads = 0;
  o.queue_capacity = 512;
  o.drain_window = 64;
  svc::RoutingService svc(ch, o);
  svc.start();
  warm(svc, pool);

  OpenResult res;
  res.rate_rps = rate;
  const auto interval = std::chrono::nanoseconds(
      static_cast<std::int64_t>(1e9 / std::max(rate, 1.0)));
  std::mt19937_64 rng(2025);
  std::vector<std::future<svc::SvcResponse>> futs;
  futs.reserve(static_cast<std::size_t>(total));
  const auto t0 = Clock::now();
  auto next = t0;
  for (int i = 0; i < total; ++i) {
    while (Clock::now() < next) {
      // spin: sub-microsecond inter-arrival gaps are below sleep
      // granularity at these rates
    }
    next += interval;
    svc::SvcRequest rq;
    rq.tenant = "open";
    rq.connections = pool[rng() % pool.size()];
    futs.push_back(svc.submit(std::move(rq)));
  }
  std::vector<double> lat;
  for (auto& f : futs) {
    const svc::SvcResponse r = f.get();
    ++res.submitted;
    if (r.admit == svc::Admit::kAccepted) {
      ++res.accepted;
      lat.push_back(r.queue_ms + r.service_ms);
    } else {
      ++res.rejected;
      if (r.admit != svc::Admit::kQueueFull ||
          r.result.failure != alg::FailureKind::kBudgetExhausted) {
        res.rejections_typed = false;
      }
    }
  }
  const double sec = ms_since(t0) / 1000.0;
  svc.stop(svc::RoutingService::StopMode::kDrain);
  res.rps = sec > 0 ? static_cast<double>(res.accepted) / sec : 0.0;
  res.lat = percentiles(std::move(lat));
  res.accounted = res.accepted + res.rejected == res.submitted;
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path, check_path;
  bool quick = false;
  bench::ObsOutputs obs_out;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--json" && i + 1 < argc) json_path = argv[++i];
    else if (a == "--check" && i + 1 < argc) check_path = argv[++i];
    else if (a == "--quick") quick = true;
    else if (obs_out.parse_flag(argc, argv, i)) continue;
    else {
      std::cerr << "unknown flag: " << a << "\n";
      return 2;
    }
  }
  obs_out.start();

  int failures = 0;

  // --- determinism: digest-identical across 1/2/8 threads ----------------
  const std::uint64_t d1 = run_digest_schedule(1);
  const std::uint64_t d2 = run_digest_schedule(2);
  const std::uint64_t d8 = run_digest_schedule(8);
  const bool identical = d1 == d2 && d2 == d8;
  std::ostringstream dhex;
  dhex << std::hex << d1;
  std::cout << "driver-mode digest: 0x" << dhex.str() << " — "
            << (identical ? "bit-identical across 1/2/8 threads\n"
                          : "MISMATCH across thread counts\n");
  if (!identical) ++failures;

  // --- closed model ------------------------------------------------------
  const SegmentedChannel ch = make_channel();
  const std::vector<ConnectionSet> pool = make_pool(ch, 32, 42);
  const int per_client = quick ? 300 : 1500;
  const std::vector<int> concurrencies = {1, 4, 16};

  struct ClosedRow {
    int clients;
    ClosedResult r;
  };
  std::vector<ClosedRow> closed;
  double saturation = 0.0;
  double fairness = 0.0;
  io::Table ct({"clients", "req/s", "p50 ms", "p99 ms", "p999 ms"});
  for (const int c : concurrencies) {
    const bool split = c == concurrencies.back();
    std::vector<ClosedResult> trials;
    for (int t = 0; t < kClosedTrials; ++t) {
      trials.push_back(run_closed(pool, c, per_client, split));
    }
    const ClosedResult r = median_of(std::move(trials));
    saturation = std::max(saturation, r.rps);
    if (split) {
      const double lo = static_cast<double>(
          std::min(r.served_alice, r.served_bob));
      const double hi = static_cast<double>(
          std::max<std::uint64_t>(std::max(r.served_alice, r.served_bob), 1));
      fairness = lo / hi;
    }
    ct.add_row({std::to_string(c), io::Table::num(r.rps, 0),
                io::Table::num(r.lat.p50, 4), io::Table::num(r.lat.p99, 4),
                io::Table::num(r.lat.p999, 4)});
    closed.push_back({c, r});
  }
  std::cout << "\nclosed model (" << per_client << " requests/user)\n";
  ct.print(std::cout);
  std::cout << "saturation: " << io::Table::num(saturation, 0)
            << " req/s; two-tenant fairness at c=" << concurrencies.back()
            << ": " << io::Table::num(fairness, 3) << "\n";
  // Throughput over the one-client row's, for c4 and c16.
  std::vector<std::pair<int, double>> client_ratios;
  for (const ClosedRow& cr : closed) {
    if (cr.clients == 1) continue;
    client_ratios.emplace_back(
        cr.clients, closed.front().r.rps > 0
                        ? cr.r.rps / closed.front().r.rps
                        : 0.0);
    std::cout << "c" << cr.clients << "/c1 throughput: "
              << io::Table::num(client_ratios.back().second, 2) << "x\n";
  }

  // --- open model: 1.25x saturation against a bounded queue --------------
  const double rate = std::max(1000.0, 1.25 * saturation);
  const int total_open = quick ? 4000 : 20000;
  const OpenResult open = run_open(pool, rate, total_open);
  std::cout << "\nopen model (offered " << io::Table::num(open.rate_rps, 0)
            << " req/s, queue 512)\n";
  io::Table ot({"offered/s", "served/s", "rejected", "p50 ms", "p99 ms",
                "p999 ms"});
  ot.add_row({io::Table::num(open.rate_rps, 0), io::Table::num(open.rps, 0),
              std::to_string(open.rejected) + "/" +
                  std::to_string(open.submitted),
              io::Table::num(open.lat.p50, 4), io::Table::num(open.lat.p99, 4),
              io::Table::num(open.lat.p999, 4)});
  ot.print(std::cout);
  if (!open.accounted) {
    std::cout << "FAIL: open-model accounting broken (served + rejected != "
                 "submitted)\n";
    ++failures;
  }
  if (!open.rejections_typed) {
    std::cout << "FAIL: open-model rejection was not typed "
                 "kQueueFull/kBudgetExhausted\n";
    ++failures;
  }

  // engine cache state of a fresh service over the same pool, for the
  // shared perf-JSON schema.
  engine::CacheStats cache{};
  {
    const SegmentedChannel ch2 = make_channel();
    svc::RoutingService svc(ch2);
    std::vector<std::future<svc::SvcResponse>> futs;
    for (int i = 0; i < 2; ++i) {
      for (const ConnectionSet& cs : pool) {
        svc::SvcRequest rq;
        rq.tenant = "warm";
        rq.connections = cs;
        futs.push_back(svc.submit(std::move(rq)));
        svc.tick();
      }
    }
    svc.stop(svc::RoutingService::StopMode::kDrain);
    for (auto& f : futs) (void)f.get();
    cache = svc.engine().cache_stats();
  }

  obs_out.finish(std::cout);

  // --- JSON emission -----------------------------------------------------
  std::ostringstream js;
  js << "{\n  \"bench\": \"svc\",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < closed.size(); ++i) {
    const ClosedRow& cr = closed[i];
    js << "    {\"key\": \"svc/closed/c" << cr.clients
       << "\", \"rps\": " << fmt(cr.r.rps)
       << ", \"p50_ms\": " << fmt(cr.r.lat.p50)
       << ", \"p99_ms\": " << fmt(cr.r.lat.p99)
       << ", \"p999_ms\": " << fmt(cr.r.lat.p999) << "},\n";
  }
  js << "    {\"key\": \"svc/open\", \"rate_rps\": " << fmt(open.rate_rps)
     << ", \"rps\": " << fmt(open.rps)
     << ", \"p50_ms\": " << fmt(open.lat.p50)
     << ", \"p99_ms\": " << fmt(open.lat.p99)
     << ", \"p999_ms\": " << fmt(open.lat.p999)
     << ", \"rejected_frac\": "
     << fmt(open.submitted
                ? static_cast<double>(open.rejected) /
                      static_cast<double>(open.submitted)
                : 0.0)
     << "},\n";
  // The digest rides in a row so Baseline::field can scan it; split in
  // two because JSON numbers lose integers past 2^53.
  js << "    {\"key\": \"digest/driver\", \"digest_hi\": " << (d1 >> 32)
     << ", \"digest_lo\": " << (d1 & 0xffffffffull) << "}\n  ],\n";
  js << "  \"hardware_threads\": " << util::hardware_threads() << ",\n";
  js << "  \"digest\": \"0x" << dhex.str() << "\",\n";
  js << "  \"identical\": " << (identical ? "true" : "false") << ",\n";
  js << "  \"saturation_rps\": " << fmt(saturation) << ",\n";
  js << "  \"fairness\": " << fmt(fairness) << ",\n";
  js << "  "
     << bench::engine_cache_json(cache.hits, cache.misses, cache.evictions)
     << "\n}\n";

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << js.str();
    std::cout << "\nwrote " << json_path << "\n";
  }

  // --- Baseline gates ----------------------------------------------------
  if (!check_path.empty()) {
    std::ifstream in(check_path);
    if (!in) {
      std::cerr << "cannot read baseline " << check_path << "\n";
      return 2;
    }
    bench::Baseline base{std::string(std::istreambuf_iterator<char>(in),
                                     std::istreambuf_iterator<char>())};
    std::cout << "\nbaseline check vs " << check_path << "\n";
    const auto bhi = base.field("digest/driver", "digest_hi");
    const auto blo = base.field("digest/driver", "digest_lo");
    if (!bhi || !blo || static_cast<std::uint64_t>(*bhi) != (d1 >> 32) ||
        static_cast<std::uint64_t>(*blo) != (d1 & 0xffffffffull)) {
      std::cout << "  FAIL: driver-mode digest 0x" << dhex.str()
                << " differs from the committed baseline's digest/driver "
                   "row\n";
      ++failures;
    }
    const auto gate_row = [&](const std::string& key, double rps, double p99) {
      const auto brps = base.field(key, "rps");
      if (brps && *brps > 0 && rps < *brps / 5.0) {
        std::cout << "  FAIL " << key << ": " << rps << " req/s < baseline/5 ("
                  << *brps << ")\n";
        ++failures;
      }
      const auto bp99 = base.field(key, "p99_ms");
      if (bp99 && *bp99 > 0 && p99 > 5.0 * *bp99) {
        std::cout << "  FAIL " << key << ": p99 " << p99 << " ms > 5x baseline "
                  << *bp99 << " ms\n";
        ++failures;
      }
    };
    for (const ClosedRow& cr : closed) {
      gate_row("svc/closed/c" + std::to_string(cr.clients), cr.r.rps,
               cr.r.lat.p99);
    }
    gate_row("svc/open", open.rps, open.lat.p99);
    if (fairness < 0.5) {
      std::cout << "  FAIL: two-tenant fairness " << fairness << " < 0.5\n";
      ++failures;
    }
    const bool multi_core = util::hardware_threads() >= kMultiCoreThreads;
    const double min_ratio =
        multi_core ? kClientRatioMultiCore : kClientRatioFloor;
    for (const auto& [clients, ratio] : client_ratios) {
      if (ratio < min_ratio) {
        std::cout << "  FAIL svc/closed/c" << clients << ": " << ratio
                  << "x the c1 throughput < " << min_ratio << "x ("
                  << util::hardware_threads() << " hardware threads)\n";
        ++failures;
      }
    }
    std::cout << (failures == 0 ? "baseline check passed\n"
                                : "baseline check FAILED\n");
  }
  return failures == 0 ? 0 : 1;
}
