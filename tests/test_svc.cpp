// Routing-as-a-service: admission control, deterministic driver mode,
// live-mode cache hits answered inside submit(), per-tenant budget
// slicing, live edits racing traffic, and the /metrics exposition
// (round-trip parsed and checked, gauges computed at scrape time).
//
// Naming note: every suite here starts with "Svc" so the svc_smoke
// ctest (--gtest_filter=Svc*) covers the whole file.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <future>
#include <map>
#include <mutex>
#include <optional>
#include <random>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "alg/delta.h"
#include "core/channel.h"
#include "core/routing.h"
#include "core/track.h"
#include "engine/batch.h"
#include "gen/segmentation.h"
#include "gen/workload.h"
#include "svc/http.h"
#include "svc/prom.h"
#include "svc/service.h"
#include "util/pool.h"

namespace segroute {
namespace {

SegmentedChannel test_channel() {
  return gen::staggered_segmentation(8, 64, 8);
}

/// A deterministic mixed two-tenant instance pool: "alice" routes small
/// routable-by-construction sets (the cache-friendly tenant), "bob"
/// routes larger random sets (the hard tenant, sliced in most tests).
struct Workload {
  std::vector<ConnectionSet> alice;
  std::vector<ConnectionSet> bob;
};

Workload make_workload(const SegmentedChannel& ch, std::uint64_t seed) {
  Workload w;
  std::mt19937_64 rng(seed);
  for (int i = 0; i < 6; ++i) {
    w.alice.push_back(gen::routable_workload(ch, 6, 6.0, rng));
  }
  for (int i = 0; i < 6; ++i) {
    w.bob.push_back(gen::geometric_workload(14, 64, 8.0, rng));
  }
  return w;
}

svc::SvcRequest request(const std::string& tenant, const ConnectionSet& cs) {
  svc::SvcRequest rq;
  rq.tenant = tenant;
  rq.connections = cs;
  return rq;
}

bool ready(const std::future<svc::SvcResponse>& f) {
  return f.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
}

/// Runs one fixed driver-mode schedule and returns the digest folded
/// over responses in submission order (and, when asked, the engine's
/// cache counters at the end).
std::uint64_t run_schedule(int threads, bool use_cache,
                           std::uint64_t seed = 7,
                           engine::CacheStats* cache = nullptr) {
  const SegmentedChannel ch = test_channel();
  svc::SvcOptions o;
  o.threads = threads;
  o.queue_capacity = 32;
  o.max_inflight_per_tenant = 12;
  o.drain_window = 16;
  o.tenant_slice_ticks["bob"] = 2000;
  o.engine.use_cache = use_cache;
  svc::RoutingService svc(ch, o);

  const Workload w = make_workload(ch, seed);
  std::mt19937_64 arrivals(seed * 977);
  std::vector<std::future<svc::SvcResponse>> futs;
  for (int t = 0; t < 12; ++t) {
    const int n_alice = static_cast<int>(arrivals() % 4);
    const int n_bob = static_cast<int>(arrivals() % 3);
    for (int i = 0; i < n_alice; ++i) {
      svc::SvcRequest rq;
      rq.tenant = "alice";
      rq.connections = w.alice[arrivals() % w.alice.size()];
      futs.push_back(svc.submit(std::move(rq)));
    }
    for (int i = 0; i < n_bob; ++i) {
      svc::SvcRequest rq;
      rq.tenant = "bob";
      rq.connections = w.bob[arrivals() % w.bob.size()];
      futs.push_back(svc.submit(std::move(rq)));
    }
    svc.tick();
  }
  svc.stop(svc::RoutingService::StopMode::kDrain);
  if (cache != nullptr) *cache = svc.engine().cache_stats();
  EXPECT_EQ(svc.stats().admission_hits, 0u);  // driver mode always queues

  std::uint64_t digest = 1469598103934665603ull;
  for (auto& f : futs) digest = svc::fold_digest(digest, f.get());
  return digest;
}

TEST(SvcDeterminism, DigestIdenticalAcrossThreadsAndCacheModes) {
  const std::uint64_t base = run_schedule(1, true);
  EXPECT_EQ(run_schedule(2, true), base);
  EXPECT_EQ(run_schedule(8, true), base);
  // threads <= 0 resolves to hardware_threads() and must not change
  // results either (the library-wide auto convention).
  EXPECT_EQ(run_schedule(0, true), base);
  // The memo cache may only change wall clock and counters, never
  // outcomes.
  EXPECT_EQ(run_schedule(1, false), base);
  EXPECT_EQ(run_schedule(8, false), base);
}

TEST(SvcDeterminism, DriverModeEngineCountsAreUnchanged) {
  // Ticks answer hits through BatchRouter::cached(), which counts only
  // hits, and route the misses, which count the miss: the totals are the
  // ones a route()-only tick produced (14 hits and 15 misses over the 29
  // requests of this schedule).
  engine::CacheStats cache;
  (void)run_schedule(1, true, 7, &cache);
  EXPECT_EQ(cache.hits, 14u);
  EXPECT_EQ(cache.misses, 15u);
  for (const int threads : {2, 8}) {
    (void)run_schedule(threads, true, 7, &cache);
    EXPECT_EQ(cache.hits + cache.misses, 29u);
  }
}

TEST(SvcDeterminism, ThreadsAutoResolves) {
  const SegmentedChannel ch = test_channel();
  svc::SvcOptions o;
  o.threads = -3;
  svc::RoutingService svc(ch, o);
  EXPECT_EQ(svc.options().threads, util::hardware_threads());
  EXPECT_GE(svc.options().threads, 1);
  // The shared engine's inner pool must stay inline (the service's own
  // pool parallelizes across requests).
  EXPECT_EQ(svc.options().engine.threads, 1);
}

TEST(SvcAdmission, QueueFullIsTypedAndImmediate) {
  const SegmentedChannel ch = test_channel();
  svc::SvcOptions o;
  o.queue_capacity = 2;
  svc::RoutingService svc(ch, o);
  const Workload w = make_workload(ch, 11);

  std::vector<std::future<svc::SvcResponse>> futs;
  for (int i = 0; i < 5; ++i) {
    svc::SvcRequest rq;
    rq.tenant = "alice";
    rq.connections = w.alice[0];
    futs.push_back(svc.submit(std::move(rq)));
  }
  // The two queued requests resolve on drain; the three overflow
  // rejections resolved already, typed.
  int accepted = 0, rejected = 0;
  svc.stop(svc::RoutingService::StopMode::kDrain);
  for (auto& f : futs) {
    const svc::SvcResponse r = f.get();
    if (r.admit == svc::Admit::kAccepted) {
      ++accepted;
      EXPECT_TRUE(r.result.success);
    } else {
      ++rejected;
      EXPECT_EQ(r.admit, svc::Admit::kQueueFull);
      EXPECT_EQ(r.result.failure, alg::FailureKind::kBudgetExhausted);
      EXPECT_NE(r.result.note.find("queue-full"), std::string::npos);
    }
  }
  EXPECT_EQ(accepted, 2);
  EXPECT_EQ(rejected, 3);
  const svc::SvcStats s = svc.stats();
  EXPECT_EQ(s.accepted, 2u);
  EXPECT_EQ(s.rejected_queue_full, 3u);
  EXPECT_EQ(s.served, 2u);
}

TEST(SvcAdmission, TenantInflightCapIsTyped) {
  const SegmentedChannel ch = test_channel();
  svc::SvcOptions o;
  o.max_inflight_per_tenant = 1;
  svc::RoutingService svc(ch, o);
  const Workload w = make_workload(ch, 12);

  svc::SvcRequest rq;
  rq.tenant = "alice";
  rq.connections = w.alice[0];
  auto f1 = svc.submit(std::move(rq));

  svc::SvcRequest rq2;
  rq2.tenant = "alice";
  rq2.connections = w.alice[1];
  auto f2 = svc.submit(std::move(rq2));
  EXPECT_EQ(f2.get().admit, svc::Admit::kTenantLimit);

  // A different tenant is unaffected.
  svc::SvcRequest rq3;
  rq3.tenant = "bob";
  rq3.connections = w.alice[1];
  auto f3 = svc.submit(std::move(rq3));

  svc.tick();
  EXPECT_EQ(f1.get().admit, svc::Admit::kAccepted);
  EXPECT_EQ(f3.get().admit, svc::Admit::kAccepted);

  // The cap releases once the in-flight request finished.
  svc::SvcRequest rq4;
  rq4.tenant = "alice";
  rq4.connections = w.alice[1];
  auto f4 = svc.submit(std::move(rq4));
  svc.tick();
  EXPECT_EQ(f4.get().admit, svc::Admit::kAccepted);
}

TEST(SvcAdmission, EmptyTenantIsInvalid) {
  const SegmentedChannel ch = test_channel();
  svc::RoutingService svc(ch);
  svc::SvcRequest rq;  // tenant left empty
  const svc::SvcResponse r = svc.submit(std::move(rq)).get();
  EXPECT_EQ(r.admit, svc::Admit::kInvalid);
  EXPECT_EQ(r.result.failure, alg::FailureKind::kInvalidInput);
}

TEST(SvcAdmission, GracefulDrainLosesNothing) {
  const SegmentedChannel ch = test_channel();
  svc::SvcOptions o;
  o.drain_window = 4;
  svc::RoutingService svc(ch, o);
  const Workload w = make_workload(ch, 13);

  std::vector<std::future<svc::SvcResponse>> futs;
  for (int i = 0; i < 20; ++i) {
    svc::SvcRequest rq;
    rq.tenant = "alice";
    rq.connections = w.alice[i % w.alice.size()];
    futs.push_back(svc.submit(std::move(rq)));
  }
  svc.stop(svc::RoutingService::StopMode::kDrain);
  for (auto& f : futs) {
    const svc::SvcResponse r = f.get();
    EXPECT_EQ(r.admit, svc::Admit::kAccepted);
    EXPECT_TRUE(r.result.success);
  }
  // Post-stop submissions are rejected, typed.
  svc::SvcRequest late;
  late.tenant = "alice";
  late.connections = w.alice[0];
  EXPECT_EQ(svc.submit(std::move(late)).get().admit,
            svc::Admit::kShuttingDown);
}

TEST(SvcAdmission, RejectStopRespondsToEveryQueuedRequest) {
  const SegmentedChannel ch = test_channel();
  svc::RoutingService svc(ch);
  const Workload w = make_workload(ch, 14);

  std::vector<std::future<svc::SvcResponse>> futs;
  for (int i = 0; i < 10; ++i) {
    svc::SvcRequest rq;
    rq.tenant = "alice";
    rq.connections = w.alice[i % w.alice.size()];
    futs.push_back(svc.submit(std::move(rq)));
  }
  svc.stop(svc::RoutingService::StopMode::kReject);
  for (auto& f : futs) {
    const svc::SvcResponse r = f.get();  // nothing dropped: every future resolves
    EXPECT_EQ(r.admit, svc::Admit::kShuttingDown);
    EXPECT_EQ(r.result.failure, alg::FailureKind::kBudgetExhausted);
  }
}

// ---------------------------------------------------------------------
// Live-mode cache hits answered inside submit().

TEST(SvcAdmission, LiveCacheHitResolvesInsideSubmit) {
  const SegmentedChannel ch = test_channel();
  const Workload w = make_workload(ch, 17);
  const ConnectionSet& cs = w.alice[0];

  // The driver-mode answer, from a service without a cache.
  svc::SvcOptions uncached;
  uncached.engine.use_cache = false;
  svc::RoutingService ref(ch, uncached);
  auto fr = ref.submit(request("alice", cs));
  ref.tick();
  const svc::SvcResponse expect = fr.get();
  ASSERT_TRUE(expect.result.success);

  svc::RoutingService svc(ch);
  svc.start();
  const svc::SvcResponse warm = svc.submit(request("alice", cs)).get();
  EXPECT_FALSE(warm.cache_hit);  // a miss, routed through the queue
  EXPECT_EQ(svc.stats().admission_hits, 0u);
  // tick() takes the dispatch lock, so it returns only after the
  // dispatcher's tick has released it: the next probe cannot collide.
  svc.tick();

  const svc::SvcStats before = svc.stats();
  auto fut = svc.submit(request("alice", cs));
  ASSERT_TRUE(ready(fut));  // resolved before submit() returned
  const svc::SvcResponse hit = fut.get();
  EXPECT_EQ(hit.admit, svc::Admit::kAccepted);
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(hit.result.success, expect.result.success);
  EXPECT_EQ(hit.result.routing, expect.result.routing);
  EXPECT_EQ(hit.fingerprint, expect.fingerprint);
  EXPECT_EQ(hit.queue_ms, 0.0);
  EXPECT_EQ(hit.enqueue_tick, svc.current_tick());
  EXPECT_EQ(hit.start_tick, hit.enqueue_tick);
  EXPECT_EQ(hit.finish_tick, hit.enqueue_tick);

  const svc::SvcStats after = svc.stats();
  EXPECT_EQ(after.admission_hits, before.admission_hits + 1);
  EXPECT_EQ(after.accepted, before.accepted + 1);
  EXPECT_EQ(after.served, before.served + 1);
  EXPECT_EQ(after.ticks, before.ticks);  // no tick was needed
  svc.stop(svc::RoutingService::StopMode::kDrain);
}

TEST(SvcAdmission, SlicedTenantIsServedAtAdmission) {
  const SegmentedChannel ch = test_channel();
  const Workload w = make_workload(ch, 18);
  svc::SvcOptions o;
  o.tenant_slice_ticks["bob"] = 3;  // far too small to route anything
  svc::RoutingService svc(ch, o);

  // Warm in driver mode with an unsliced tenant, then go live.
  auto fw = svc.submit(request("alice", w.bob[0]));
  svc.tick();
  const svc::SvcResponse warm = fw.get();
  ASSERT_NE(warm.result.failure, alg::FailureKind::kBudgetExhausted);
  svc.start();

  auto fut = svc.submit(request("bob", w.bob[0]));
  ASSERT_TRUE(ready(fut));
  const svc::SvcResponse r = fut.get();
  EXPECT_TRUE(r.cache_hit);
  EXPECT_EQ(r.result.success, warm.result.success);
  EXPECT_EQ(r.result.failure, warm.result.failure);
  EXPECT_EQ(r.result.routing, warm.result.routing);
  EXPECT_EQ(svc.stats().admission_hits, 1u);
  svc.stop(svc::RoutingService::StopMode::kDrain);
}

/// A request that holds the dispatcher until `release` is set: the
/// exhaustive router on 8 tracks, where five short connections multiply
/// the branches before nine overlapping ones (sorted last) prove the
/// instance infeasible. Its budget's cancel flag ends it; the router's
/// branch cap bounds it if the flag is never set.
svc::SvcRequest blocking_request(const std::string& tenant,
                                 const std::atomic<bool>& release) {
  svc::SvcRequest rq;
  rq.tenant = tenant;
  for (Column l = 1; l <= 41; l += 10) rq.connections.add(l, l + 1);
  for (int i = 0; i < 9; ++i) rq.connections.add(57, 64);
  rq.options.router = "exhaustive";
  rq.options.budget = harness::Budget::with_cancel(release);
  return rq;
}

TEST(SvcAdmission, AdmissionHitsPassTheSameChecks) {
  const SegmentedChannel ch = test_channel();
  const Workload w = make_workload(ch, 19);
  const ConnectionSet& hot = w.alice[0];
  svc::SvcOptions o;
  o.queue_capacity = 2;
  o.max_inflight_per_tenant = 1;
  svc::RoutingService svc(ch, o);
  auto fw = svc.submit(request("alice", hot));
  svc.tick();
  ASSERT_TRUE(fw.get().result.success);
  svc.start();

  const auto admit_of = [&](const std::string& tenant, const ConnectionSet& cs) {
    auto f = svc.submit(request(tenant, cs));
    EXPECT_TRUE(ready(f));  // a rejection resolves inside submit()
    return f.get().admit;
  };
  EXPECT_EQ(admit_of("", hot), svc::Admit::kInvalid);
  EXPECT_EQ(admit_of("", w.alice[1]), svc::Admit::kInvalid);

  // Caps: while bob's blocker routes, bob is at his in-flight cap, and
  // two queued misses fill the queue. Hits and misses are refused alike.
  std::atomic<bool> release{false};
  auto fblock = svc.submit(blocking_request("bob", release));
  while (svc.stats().queue_depth != 0) std::this_thread::yield();
  EXPECT_EQ(admit_of("bob", hot), svc::Admit::kTenantLimit);
  EXPECT_EQ(admit_of("bob", w.alice[1]), svc::Admit::kTenantLimit);
  auto fq1 = svc.submit(request("carol", w.alice[2]));
  auto fq2 = svc.submit(request("dave", w.alice[3]));
  EXPECT_EQ(admit_of("erin", hot), svc::Admit::kQueueFull);
  EXPECT_EQ(admit_of("erin", w.alice[4]), svc::Admit::kQueueFull);
  ASSERT_FALSE(ready(fblock)) << "the blocker ended before the checks ran";
  release.store(true);
  const svc::SvcResponse blocked = fblock.get();
  EXPECT_EQ(blocked.admit, svc::Admit::kAccepted);
  EXPECT_EQ(blocked.result.failure, alg::FailureKind::kBudgetExhausted);
  EXPECT_EQ(fq1.get().admit, svc::Admit::kAccepted);
  EXPECT_EQ(fq2.get().admit, svc::Admit::kAccepted);

  // After stop() the probe still finds the hit, and admission still
  // refuses it.
  svc.stop(svc::RoutingService::StopMode::kDrain);
  const std::uint64_t hits = svc.stats().admission_hits;
  EXPECT_EQ(admit_of("alice", hot), svc::Admit::kShuttingDown);
  EXPECT_EQ(admit_of("alice", w.alice[5]), svc::Admit::kShuttingDown);
  EXPECT_EQ(svc.stats().admission_hits, hits);
  EXPECT_EQ(svc.stats().rejected_shutdown, 2u);
}

TEST(SvcAdmission, LiveMissRoutesThroughTheQueue) {
  const SegmentedChannel ch = test_channel();
  const Workload w = make_workload(ch, 20);
  svc::RoutingService svc(ch);
  svc.start();
  const svc::SvcResponse r = svc.submit(request("alice", w.alice[0])).get();
  EXPECT_EQ(r.admit, svc::Admit::kAccepted);
  EXPECT_TRUE(r.result.success);
  EXPECT_FALSE(r.cache_hit);
  EXPECT_GE(r.start_tick, 1u);  // drained by a tick
  const svc::SvcStats s = svc.stats();
  EXPECT_EQ(s.admission_hits, 0u);
  EXPECT_EQ(s.served, 1u);
  EXPECT_GE(s.ticks, 1u);
  EXPECT_EQ(svc.engine().cache_stats().misses, 1u);
  svc.stop(svc::RoutingService::StopMode::kDrain);
}

// ---------------------------------------------------------------------
// Live serve loops: one per service thread, no tick barrier, the
// dispatch lock shared by the loops and the admission probe.

/// Long enough for a small miss under the sanitizers; a loop stuck
/// behind a blocker never gets there.
constexpr auto kLiveTimeout = std::chrono::seconds(10);

TEST(SvcLive, SecondLoopServesAMissWhileABlockerRoutes) {
  const SegmentedChannel ch = test_channel();
  const Workload w = make_workload(ch, 40);
  svc::SvcOptions o;
  o.threads = 2;
  svc::RoutingService svc(ch, o);
  svc.start();

  std::atomic<bool> release{false};
  auto fblock = svc.submit(blocking_request("bob", release));
  while (svc.stats().queue_depth != 0) std::this_thread::yield();
  // The blocker holds one loop; the other takes the miss at once.
  auto fmiss = svc.submit(request("alice", w.alice[0]));
  const bool served = fmiss.wait_for(kLiveTimeout) == std::future_status::ready;
  EXPECT_TRUE(served) << "the miss waited for the blocker";
  EXPECT_FALSE(ready(fblock)) << "the blocker ended before the miss";
  release.store(true);
  EXPECT_EQ(fblock.get().result.failure, alg::FailureKind::kBudgetExhausted);
  const svc::SvcResponse r = fmiss.get();
  EXPECT_EQ(r.admit, svc::Admit::kAccepted);
  EXPECT_TRUE(r.result.success);
  EXPECT_FALSE(r.cache_hit);
  svc.stop(svc::RoutingService::StopMode::kDrain);
}

TEST(SvcLive, WarmHitResolvesInSubmitWhileAMissRoutes) {
  const SegmentedChannel ch = test_channel();
  const Workload w = make_workload(ch, 41);
  svc::RoutingService svc(ch);  // one loop, which the blocker holds
  auto fw = svc.submit(request("alice", w.alice[0]));
  svc.tick();
  const svc::SvcResponse warm = fw.get();
  ASSERT_TRUE(warm.result.success);
  svc.start();

  std::atomic<bool> release{false};
  auto fblock = svc.submit(blocking_request("bob", release));
  while (svc.stats().queue_depth != 0) std::this_thread::yield();
  auto fhit = svc.submit(request("carol", w.alice[0]));
  EXPECT_TRUE(ready(fhit)) << "the probe lost the dispatch lock to a route";
  EXPECT_FALSE(ready(fblock)) << "the blocker ended before the probe";
  release.store(true);
  (void)fblock.get();
  const svc::SvcResponse hit = fhit.get();
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(hit.result.routing, warm.result.routing);
  EXPECT_EQ(svc.stats().admission_hits, 1u);
  svc.stop(svc::RoutingService::StopMode::kDrain);
}

TEST(SvcLive, WritersProgressWhileLoopsAreSaturated) {
  const SegmentedChannel ch1 = test_channel();
  const SegmentedChannel ch2 = gen::staggered_segmentation(8, 64, 6);
  const Workload w = make_workload(ch1, 42);
  svc::SvcOptions o;
  o.threads = 2;
  o.engine.use_cache = false;  // every request is a miss
  svc::RoutingService svc(ch1, o);
  const std::uint64_t sid = svc.open_session("alice");
  ASSERT_NE(sid, 0u);
  svc.start();

  // Keeps both loops busy: the queue never runs dry until released.
  std::atomic<bool> release{false};
  std::thread feeder([&] {
    std::size_t i = 0;
    while (!release.load()) {
      if (svc.stats().queue_depth >= 8) {
        std::this_thread::yield();
        continue;
      }
      (void)svc.submit(request("bob", w.alice[i++ % w.alice.size()]));
    }
  });
  while (svc.stats().served < 16) std::this_thread::yield();

  std::future<void> rebound =
      std::async(std::launch::async, [&] { svc.rebind(ch2); });
  EXPECT_EQ(rebound.wait_for(kLiveTimeout), std::future_status::ready)
      << "rebind() starved behind the serve loops";
  auto snapshot = std::async(std::launch::async,
                             [&] { return svc.session_snapshot(sid); });
  EXPECT_EQ(snapshot.wait_for(kLiveTimeout), std::future_status::ready)
      << "session_snapshot() starved behind the serve loops";
  auto closed =
      std::async(std::launch::async, [&] { return svc.close_session(sid); });
  EXPECT_EQ(closed.wait_for(kLiveTimeout), std::future_status::ready)
      << "close_session() starved behind the serve loops";

  release.store(true);
  feeder.join();
  rebound.get();
  EXPECT_TRUE(snapshot.get().has_value());
  EXPECT_TRUE(closed.get());
  svc.stop(svc::RoutingService::StopMode::kDrain);
}

TEST(SvcLive, TickAfterStartServesItsWindowOnTheCaller) {
  const SegmentedChannel ch = test_channel();
  const Workload w = make_workload(ch, 44);
  svc::SvcOptions o;
  o.threads = 2;
  svc::RoutingService svc(ch, o);
  auto fw = svc.submit(request("alice", w.alice[0]));
  svc.tick();
  ASSERT_TRUE(fw.get().result.success);
  svc.start();

  // Both loops held, three misses queued behind them.
  std::atomic<bool> release{false};
  auto fb1 = svc.submit(blocking_request("bob", release));
  auto fb2 = svc.submit(blocking_request("erin", release));
  while (svc.stats().queue_depth != 0) std::this_thread::yield();
  std::vector<std::future<svc::SvcResponse>> queued;
  for (int i = 1; i <= 3; ++i) {
    queued.push_back(svc.submit(request("carol", w.alice[i])));
  }
  auto ticked = std::async(std::launch::async, [&] { return svc.tick(); });
  // A waiting writer keeps the probe off the lock: the first warm hit
  // that does not resolve inside submit() has queued behind the tick.
  for (;;) {
    auto f = svc.submit(request("dave", w.alice[0]));
    if (!ready(f)) {
      queued.push_back(std::move(f));
      break;
    }
  }
  release.store(true);
  // The loops finish their blockers and take nothing new; the tick
  // serves its window on its own thread, without forking the pool the
  // loops hold.
  ASSERT_EQ(ticked.wait_for(kLiveTimeout), std::future_status::ready);
  EXPECT_EQ(ticked.get(), queued.size());
  std::vector<svc::SvcResponse> served;
  for (auto& f : queued) served.push_back(f.get());
  for (const svc::SvcResponse& r : served) {
    EXPECT_TRUE(r.result.success);
    EXPECT_EQ(r.start_tick, served.front().start_tick);  // one window
  }
  EXPECT_TRUE(served.back().cache_hit);
  (void)fb1.get();
  (void)fb2.get();
  svc.stop(svc::RoutingService::StopMode::kDrain);
}

/// Two sessions' edit scripts, interleaved with batch reads, submitted
/// without waiting on `svc`; returns every edit response in submission
/// order and each session's final snapshot.
struct EditRun {
  std::vector<svc::SvcResponse> edits;
  std::vector<std::optional<std::pair<ConnectionSet, Routing>>> snaps;
};

EditRun run_edit_script(svc::RoutingService& svc, bool live) {
  const Workload w = make_workload(test_channel(), 43);
  const std::vector<std::string> tenants = {"alice", "bob"};
  std::vector<std::uint64_t> sids;
  for (const std::string& t : tenants) sids.push_back(svc.open_session(t));
  if (live) svc.start();

  std::mt19937_64 rng(4343);
  std::vector<std::future<svc::SvcResponse>> edits, reads;
  for (int round = 0; round < 30; ++round) {
    reads.push_back(svc.submit(request("carol", w.alice[rng() % 6])));
    reads.push_back(svc.submit(request("dave", w.bob[rng() % 6])));
    for (std::size_t s = 0; s < sids.size(); ++s) {
      for (int k = 0; k < 3; ++k) {  // back to back, none awaited
        svc::SvcRequest rq;
        rq.tenant = tenants[s];
        rq.session = sids[s];
        const Column l = 1 + static_cast<Column>(rng() % 60);
        const Column r = l + static_cast<Column>(rng() % 5);
        const ConnId id = static_cast<ConnId>(rng() % 24);
        switch (rng() % 4) {
          case 0:
            rq.edit = alg::ChannelEdit::remove(id);
            break;
          case 1:
            rq.edit = alg::ChannelEdit::move(id, l, r);
            break;
          default:
            rq.edit = alg::ChannelEdit::add(l, r);
        }
        edits.push_back(svc.submit(std::move(rq)));
      }
    }
  }
  if (!live) {
    while (svc.tick() > 0) {
    }
  }
  EditRun run;
  for (auto& f : edits) run.edits.push_back(f.get());
  for (auto& f : reads) EXPECT_EQ(f.get().admit, svc::Admit::kAccepted);
  for (const std::uint64_t sid : sids) {
    run.snaps.push_back(svc.session_snapshot(sid));
  }
  svc.stop(svc::RoutingService::StopMode::kDrain);
  return run;
}

TEST(SvcLive, EditsKeepSessionOrderAcrossLoops) {
  const SegmentedChannel ch = test_channel();
  svc::SvcOptions live_opts;
  live_opts.threads = 2;
  svc::RoutingService live_svc(ch, live_opts);
  const EditRun live = run_edit_script(live_svc, /*live=*/true);
  svc::RoutingService driver_svc(ch);  // threads = 1, driver mode
  const EditRun replay = run_edit_script(driver_svc, /*live=*/false);

  ASSERT_EQ(live.edits.size(), replay.edits.size());
  int applied = 0;
  for (std::size_t i = 0; i < live.edits.size(); ++i) {
    const svc::SvcResponse& a = live.edits[i];
    const svc::SvcResponse& b = replay.edits[i];
    EXPECT_EQ(a.admit, svc::Admit::kAccepted);
    EXPECT_EQ(a.session, b.session) << "edit " << i;
    EXPECT_EQ(a.repair.success, b.repair.success) << "edit " << i;
    EXPECT_EQ(a.repair.path, b.repair.path) << "edit " << i;
    EXPECT_EQ(a.repair.failure, b.repair.failure) << "edit " << i;
    EXPECT_EQ(a.repair.id, b.repair.id) << "edit " << i;
    applied += a.repair.success ? 1 : 0;
  }
  EXPECT_GT(applied, 0);
  ASSERT_EQ(live.snaps.size(), replay.snaps.size());
  for (std::size_t s = 0; s < live.snaps.size(); ++s) {
    ASSERT_TRUE(live.snaps[s].has_value());
    ASSERT_TRUE(replay.snaps[s].has_value());
    EXPECT_EQ(live.snaps[s]->first.all(), replay.snaps[s]->first.all())
        << "session " << s;
    EXPECT_EQ(live.snaps[s]->second, replay.snaps[s]->second)
        << "session " << s;
  }
}

TEST(SvcSlicing, TenantTickSliceBoundsHardInstances) {
  const SegmentedChannel ch = test_channel();
  svc::SvcOptions o;
  o.tenant_slice_ticks["bob"] = 3;  // absurdly small: every route exhausts
  svc::RoutingService svc(ch, o);
  const Workload w = make_workload(ch, 15);

  svc::SvcRequest hard;
  hard.tenant = "bob";
  hard.connections = w.bob[0];
  auto fb = svc.submit(std::move(hard));

  svc::SvcRequest easy;
  easy.tenant = "alice";
  easy.connections = w.alice[0];
  auto fa = svc.submit(std::move(easy));

  svc.tick();
  const svc::SvcResponse rb = fb.get();
  EXPECT_FALSE(rb.result.success);
  EXPECT_EQ(rb.result.failure, alg::FailureKind::kBudgetExhausted);
  EXPECT_TRUE(fa.get().result.success);  // alice unaffected by bob's slice
}

TEST(SvcSlicing, WarmCacheHitServedUnderBudget) {
  const SegmentedChannel ch = test_channel();
  const Workload w = make_workload(ch, 16);
  svc::SvcOptions o;
  o.tenant_slice_ticks["bob"] = 3;
  svc::RoutingService svc(ch, o);

  // Tick 1: alice warms the cache with the exact instance.
  svc::SvcRequest warm;
  warm.tenant = "alice";
  warm.connections = w.bob[0];
  auto fw = svc.submit(std::move(warm));
  svc.tick();
  const svc::SvcResponse rw = fw.get();
  ASSERT_EQ(rw.result.failure == alg::FailureKind::kBudgetExhausted, false);

  // Tick 2: bob asks for the same instance under a 3-tick slice and is
  // served from the shared cache: the exact unlimited answer.
  svc::SvcRequest rq;
  rq.tenant = "bob";
  rq.connections = w.bob[0];
  auto fb = svc.submit(std::move(rq));
  svc.tick();
  const svc::SvcResponse rb = fb.get();
  EXPECT_EQ(rb.result.success, rw.result.success);
  EXPECT_EQ(rb.result.routing, rw.result.routing);
  EXPECT_GE(svc.engine().cache_stats().hits, 1u);
}

TEST(SvcEngine, BudgetedCacheReadOptInSemantics) {
  const SegmentedChannel ch = test_channel();
  engine::BatchRouter br(ch);
  std::mt19937_64 rng(21);
  const ConnectionSet cs = gen::geometric_workload(14, 64, 8.0, rng);
  const ConnectionSet other = gen::geometric_workload(14, 64, 8.0, rng);

  // Warm with the pure route.
  engine::EngineRouteOptions pure;
  const alg::RouteResult ref = br.route(cs, pure);
  const engine::CacheStats warm = br.cache_stats();
  ASSERT_EQ(warm.size, 1u);

  // Budgeted, opt-in: served the exact cached answer, counted as a hit.
  engine::EngineRouteOptions tiny;
  tiny.budget = harness::Budget::with_ticks(1);
  tiny.allow_cached_when_budgeted = true;
  const alg::RouteResult hit = br.route(cs, tiny);
  EXPECT_EQ(hit.success, ref.success);
  EXPECT_EQ(hit.routing, ref.routing);
  EXPECT_EQ(br.cache_stats().hits, warm.hits + 1);

  // Budgeted, opt-in, cold key: counted as a miss, result NOT inserted.
  const alg::RouteResult cold = br.route(other, tiny);
  EXPECT_EQ(cold.failure, alg::FailureKind::kBudgetExhausted);
  EXPECT_EQ(br.cache_stats().size, 1u);

  // Budgeted without the flag: full bypass — no hit, no miss.
  const engine::CacheStats before = br.cache_stats();
  engine::EngineRouteOptions bypass;
  bypass.budget = harness::Budget::with_ticks(1);
  (void)br.route(cs, bypass);
  const engine::CacheStats after = br.cache_stats();
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
}

TEST(SvcEngine, ShardStatsSumToCacheStats) {
  const SegmentedChannel ch = test_channel();
  engine::BatchOptions bo;
  bo.cache_capacity = 64;
  bo.cache_shards = 8;
  engine::BatchRouter br(ch, bo);
  std::mt19937_64 rng(22);
  for (int i = 0; i < 40; ++i) {
    (void)br.route(gen::routable_workload(ch, 5, 6.0, rng));
  }
  const engine::CacheStats total = br.cache_stats();
  const std::vector<engine::CacheStats> shards = br.shard_stats();
  EXPECT_EQ(shards.size(), 8u);
  engine::CacheStats sum;
  for (const engine::CacheStats& s : shards) {
    sum.hits += s.hits;
    sum.misses += s.misses;
    sum.evictions += s.evictions;
    sum.invalidations += s.invalidations;
    sum.size += s.size;
    sum.capacity += s.capacity;
  }
  EXPECT_EQ(sum.hits, total.hits);
  EXPECT_EQ(sum.misses, total.misses);
  EXPECT_EQ(sum.evictions, total.evictions);
  EXPECT_EQ(sum.invalidations, total.invalidations);
  EXPECT_EQ(sum.size, total.size);
  EXPECT_EQ(sum.capacity, total.capacity);
}

TEST(SvcLiveEdit, RouteManyRacesInvalidate) {
  // The long-running-service live-edit path: route_many() traffic racing
  // invalidate(fp) on the shared cache. Results must stay bit-identical
  // to the uncached direct path no matter how eviction interleaves.
  const SegmentedChannel ch = test_channel();
  engine::BatchOptions bo;
  bo.threads = 4;
  engine::BatchRouter br(ch, bo);
  const std::uint64_t fp = br.fingerprint();

  std::mt19937_64 rng(23);
  std::vector<ConnectionSet> batch;
  for (int i = 0; i < 48; ++i) {
    batch.push_back(gen::routable_workload(ch, 5, 6.0, rng));
  }
  engine::BatchOptions ref_opts;
  ref_opts.use_cache = false;
  engine::BatchRouter reference(ch, ref_opts);
  const std::vector<alg::RouteResult> expect = reference.route_many(batch);

  std::atomic<bool> done{false};
  std::thread editor([&] {
    while (!done.load()) {
      br.invalidate(fp);
      (void)br.cache_stats();
      (void)br.shard_stats();
    }
  });
  for (int round = 0; round < 20; ++round) {
    const std::vector<alg::RouteResult> got = br.route_many(batch);
    ASSERT_EQ(got.size(), expect.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].success, expect[i].success);
      EXPECT_EQ(got[i].routing, expect[i].routing);
    }
  }
  done.store(true);
  editor.join();
}

TEST(SvcLiveEdit, RebindQuiescesLiveService) {
  // A live service absorbing submissions from several client threads
  // while the substrate is rebound and invalidated under it. Every
  // response must resolve, and every successful routing must validate
  // against the substrate (by fingerprint) it was computed on.
  const SegmentedChannel ch1 = test_channel();
  const SegmentedChannel ch2 = gen::staggered_segmentation(8, 64, 6);
  const std::uint64_t fp1 = fingerprint(ch1);
  const std::uint64_t fp2 = fingerprint(ch2);
  ASSERT_NE(fp1, fp2);

  svc::SvcOptions o;
  o.threads = 4;
  o.queue_capacity = 4096;
  svc::RoutingService svc(ch1, o);
  svc.start();

  const Workload w = make_workload(ch1, 24);
  constexpr int kClients = 4, kPerClient = 60;
  std::vector<std::vector<std::pair<std::size_t,
                                    std::future<svc::SvcResponse>>>>
      per_client(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        const std::size_t ix = static_cast<std::size_t>(i) % w.alice.size();
        svc::SvcRequest rq;
        rq.tenant = "tenant" + std::to_string(c);
        rq.connections = w.alice[ix];
        per_client[c].emplace_back(ix, svc.submit(std::move(rq)));
      }
    });
  }
  for (int e = 0; e < 6; ++e) {
    svc.rebind(e % 2 == 0 ? ch2 : ch1);
    svc.invalidate(e % 2 == 0 ? fp1 : fp2);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (auto& t : clients) t.join();
  svc.stop(svc::RoutingService::StopMode::kDrain);

  int successes = 0;
  for (auto& cl : per_client) {
    for (auto& [ix, fut] : cl) {
      svc::SvcResponse r = fut.get();
      ASSERT_EQ(r.admit, svc::Admit::kAccepted);
      ASSERT_TRUE(r.fingerprint == fp1 || r.fingerprint == fp2);
      if (r.result.success) {
        ++successes;
        const SegmentedChannel& on = r.fingerprint == fp1 ? ch1 : ch2;
        EXPECT_TRUE(validate(on, w.alice[ix], r.result.routing));
      }
    }
  }
  // The alice instances are routable by construction on ch1; most should
  // succeed regardless of which substrate served them.
  EXPECT_GT(successes, 0);
}

// ---------------------------------------------------------------------
// Edit sessions: stateful incremental routing through the service.

TEST(SvcSessions, EditLifecycleIsStatefulAndSnapshotsCanonical) {
  const SegmentedChannel ch = test_channel();
  svc::SvcOptions o;
  svc::RoutingService svc(ch, o);
  const std::uint64_t sid = svc.open_session("alice");
  ASSERT_NE(sid, 0u);

  const auto edit = [&](const alg::ChannelEdit& e) {
    svc::SvcRequest rq;
    rq.tenant = "alice";
    rq.session = sid;
    rq.edit = e;
    auto fut = svc.submit(std::move(rq));
    svc.tick();
    return fut.get();
  };

  const svc::SvcResponse add = edit(alg::ChannelEdit::add(2, 9));
  ASSERT_EQ(add.admit, svc::Admit::kAccepted);
  ASSERT_TRUE(add.result.success) << add.result.note;
  EXPECT_EQ(add.session, sid);
  ASSERT_TRUE(add.repair.success);
  const ConnId id = add.repair.id;

  const svc::SvcResponse mv = edit(alg::ChannelEdit::move(id, 40, 48));
  ASSERT_TRUE(mv.result.success) << mv.result.note;
  auto snap = svc.session_snapshot(sid);
  ASSERT_TRUE(snap.has_value());
  ASSERT_EQ(snap->first.size(), 1);
  EXPECT_EQ(snap->first[0].left, 40);
  EXPECT_EQ(snap->first[0].right, 48);
  const auto canon = alg::from_scratch(ch, snap->first, true, 0);
  ASSERT_TRUE(canon.result.success);
  EXPECT_EQ(canon.result.routing, snap->second);

  const svc::SvcResponse rm = edit(alg::ChannelEdit::remove(id));
  ASSERT_TRUE(rm.result.success) << rm.result.note;
  snap = svc.session_snapshot(sid);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->first.size(), 0);

  const svc::SvcStats st = svc.stats();
  EXPECT_EQ(st.sessions_opened, 1u);
  EXPECT_EQ(st.sessions_open, 1u);
  EXPECT_EQ(st.session_edits, 3u);
  EXPECT_EQ(st.session_repairs + st.session_dp_fallbacks, 3u);

  EXPECT_TRUE(svc.close_session(sid));
  EXPECT_FALSE(svc.close_session(sid));
  EXPECT_FALSE(svc.session_snapshot(sid).has_value());
  EXPECT_EQ(svc.stats().sessions_closed, 1u);
  EXPECT_EQ(svc.stats().sessions_open, 0u);
  svc.stop(svc::RoutingService::StopMode::kDrain);
}

/// Runs one fixed driver-mode schedule mixing batch traffic with edits
/// on a single session, checks the final session state is canonical,
/// and returns the digest folded over responses in submission order.
std::uint64_t run_session_schedule(int threads) {
  const SegmentedChannel ch = test_channel();
  svc::SvcOptions o;
  o.threads = threads;
  o.queue_capacity = 4096;
  o.drain_window = 8;
  svc::RoutingService svc(ch, o);
  const std::uint64_t sid = svc.open_session("alice");
  EXPECT_NE(sid, 0u);

  const Workload w = make_workload(ch, 31);
  std::mt19937_64 rng(515);
  std::vector<std::future<svc::SvcResponse>> futs;
  for (int i = 0; i < 60; ++i) {
    svc::SvcRequest rq;
    rq.tenant = "alice";
    if (i % 3 == 0) {
      rq.connections = w.alice[rng() % w.alice.size()];
    } else {
      rq.session = sid;
      const Column l = 1 + static_cast<Column>(rng() % 64);
      rq.edit = alg::ChannelEdit::add(
          l, std::min<Column>(64, l + static_cast<Column>(rng() % 7)));
    }
    futs.push_back(svc.submit(std::move(rq)));
    if (i % 5 == 0) svc.tick();
  }
  while (svc.tick() > 0) {
  }
  std::uint64_t digest = 1469598103934665603ull;
  for (auto& f : futs) digest = svc::fold_digest(digest, f.get());

  // The drained session is bit-identical to the canonical from-scratch
  // route of its live set — thread count never leaks into state.
  const auto snap = svc.session_snapshot(sid);
  EXPECT_TRUE(snap.has_value());
  if (snap) {
    const auto canon = alg::from_scratch(ch, snap->first, true, 0);
    EXPECT_TRUE(canon.result.success);
    EXPECT_EQ(canon.result.routing, snap->second);
  }
  svc.stop(svc::RoutingService::StopMode::kDrain);
  return digest;
}

TEST(SvcSessions, DigestWithEditTrafficIsThreadCountInvariant) {
  const std::uint64_t base = run_session_schedule(1);
  EXPECT_EQ(run_session_schedule(2), base);
  EXPECT_EQ(run_session_schedule(8), base);
}

TEST(SvcSessions, UnknownForeignAndClosedSessionsAreRejected) {
  const SegmentedChannel ch = test_channel();
  svc::SvcOptions o;
  svc::RoutingService svc(ch, o);
  const std::uint64_t sid = svc.open_session("alice");
  ASSERT_NE(sid, 0u);
  // A negative K is refused at open, like an empty tenant.
  EXPECT_EQ(svc.open_session("alice", -1), 0u);
  EXPECT_EQ(svc.open_session("", 0), 0u);

  // Unknown session id: typed admission failure, resolved immediately.
  svc::SvcRequest unknown;
  unknown.tenant = "alice";
  unknown.session = sid + 999;
  unknown.edit = alg::ChannelEdit::add(1, 4);
  EXPECT_EQ(svc.submit(std::move(unknown)).get().admit, svc::Admit::kInvalid);

  // Right session, wrong tenant: sessions are tenant-scoped.
  svc::SvcRequest foreign;
  foreign.tenant = "mallory";
  foreign.session = sid;
  foreign.edit = alg::ChannelEdit::add(1, 4);
  EXPECT_EQ(svc.submit(std::move(foreign)).get().admit, svc::Admit::kInvalid);

  // Admitted while open, but the session closes before the drain: the
  // edit fails typed instead of touching freed state.
  svc::SvcRequest late;
  late.tenant = "alice";
  late.session = sid;
  late.edit = alg::ChannelEdit::add(1, 4);
  auto fut = svc.submit(std::move(late));
  ASSERT_TRUE(svc.close_session(sid));
  svc.tick();
  const svc::SvcResponse r = fut.get();
  EXPECT_EQ(r.admit, svc::Admit::kAccepted);
  EXPECT_FALSE(r.result.success);
  EXPECT_EQ(r.result.failure, alg::FailureKind::kInvalidInput);
  EXPECT_EQ(svc.stats().session_edit_failures, 1u);
  svc.stop(svc::RoutingService::StopMode::kDrain);
}

TEST(SvcSessions, SessionsPinTheirSubstrateAcrossRebind) {
  const SegmentedChannel ch1 = test_channel();
  const SegmentedChannel ch2 = gen::staggered_segmentation(8, 64, 6);
  const std::uint64_t fp1 = fingerprint(ch1);
  svc::SvcOptions o;
  svc::RoutingService svc(ch1, o);
  const std::uint64_t sid = svc.open_session("alice");
  ASSERT_NE(sid, 0u);

  const auto edit = [&](const alg::ChannelEdit& e) {
    svc::SvcRequest rq;
    rq.tenant = "alice";
    rq.session = sid;
    rq.edit = e;
    auto fut = svc.submit(std::move(rq));
    svc.tick();
    return fut.get();
  };
  ASSERT_TRUE(edit(alg::ChannelEdit::add(3, 9)).result.success);

  svc.rebind(ch2);  // flips the batch substrate; the session must not
  const svc::SvcResponse after = edit(alg::ChannelEdit::add(11, 17));
  ASSERT_TRUE(after.result.success) << after.result.note;
  EXPECT_EQ(after.fingerprint, fp1);

  const auto snap = svc.session_snapshot(sid);
  ASSERT_TRUE(snap.has_value());
  const auto canon = alg::from_scratch(ch1, snap->first, true, 0);
  ASSERT_TRUE(canon.result.success);
  EXPECT_EQ(canon.result.routing, snap->second);
  svc.stop(svc::RoutingService::StopMode::kDrain);
}

TEST(SvcSessions, MetricsExposeSessionCounters) {
  const SegmentedChannel ch = test_channel();
  svc::SvcOptions o;
  svc::RoutingService svc(ch, o);
  const std::uint64_t sid = svc.open_session("alice");
  ASSERT_NE(sid, 0u);
  std::vector<std::future<svc::SvcResponse>> futs;
  for (int i = 0; i < 3; ++i) {
    svc::SvcRequest rq;
    rq.tenant = "alice";
    rq.session = sid;
    rq.edit = alg::ChannelEdit::add(static_cast<Column>(1 + 5 * i),
                                    static_cast<Column>(4 + 5 * i));
    futs.push_back(svc.submit(std::move(rq)));
  }
  svc.stop(svc::RoutingService::StopMode::kDrain);
  for (auto& f : futs) EXPECT_TRUE(f.get().result.success);

  const svc::SvcStats st = svc.stats();
  EXPECT_EQ(st.session_edits, 3u);
  EXPECT_EQ(st.sessions_opened, 1u);
  EXPECT_EQ(st.sessions_closed, 1u);  // stop() retires open sessions
  EXPECT_EQ(st.sessions_open, 0u);

  const svc::PromText parsed =
      svc::parse_prometheus_text(obs::Registry::instance().prometheus_text());
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_NE(parsed.find("segroute_svc_sessions_open"), nullptr);
  EXPECT_NE(parsed.find("segroute_svc_sessions_edits"), nullptr);
  EXPECT_GE(parsed.value_or("segroute_svc_sessions_opened", -1), 1.0);
}

TEST(SvcMetrics, ExpositionRoundTripsAgainstSnapshot) {
  const SegmentedChannel ch = test_channel();
  svc::SvcOptions o;
  o.engine.cache_shards = 4;
  svc::RoutingService svc(ch, o);
  const Workload w = make_workload(ch, 25);
  std::vector<std::future<svc::SvcResponse>> futs;
  for (int i = 0; i < 10; ++i) {
    svc::SvcRequest rq;
    rq.tenant = i % 2 ? "alice" : "bob";
    rq.connections = w.alice[i % w.alice.size()];
    futs.push_back(svc.submit(std::move(rq)));
  }
  svc.stop(svc::RoutingService::StopMode::kDrain);
  for (auto& f : futs) (void)f.get();

  const std::string text = obs::Registry::instance().prometheus_text();
  const std::string err =
      svc::check_exposition(text, obs::Registry::instance().snapshot());
  EXPECT_EQ(err, "") << err;

  // The service's own surface is present: queue depth, per-shard cache
  // health, tenant counters.
  const svc::PromText parsed = svc::parse_prometheus_text(text);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_NE(parsed.find("segroute_svc_queue_depth"), nullptr);
  EXPECT_NE(parsed.find("segroute_svc_cache_shard0_size"), nullptr);
  EXPECT_NE(parsed.find("segroute_svc_cache_shard3_size"), nullptr);
  EXPECT_GE(parsed.value_or("segroute_svc_served", 0), 10.0);
  EXPECT_GE(parsed.value_or("segroute_svc_tenant_alice_served", 0), 5.0);

  // The published cache gauges agree with the engine's own counters.
  const engine::CacheStats cs = svc.engine().cache_stats();
  EXPECT_EQ(parsed.value_or("segroute_svc_cache_hits", -1),
            static_cast<double>(cs.hits));
  EXPECT_EQ(parsed.value_or("segroute_svc_cache_misses", -1),
            static_cast<double>(cs.misses));
}

TEST(SvcMetrics, GaugesAreFreshAtScrape) {
  const SegmentedChannel ch = test_channel();
  const Workload w = make_workload(ch, 26);
  svc::SvcOptions o;
  o.engine.cache_shards = 4;
  svc::RoutingService svc(ch, o);
  const auto scrape = [] {
    const svc::PromText t =
        svc::parse_prometheus_text(obs::Registry::instance().prometheus_text());
    EXPECT_TRUE(t.ok) << t.error;
    return t;
  };
  const auto shard_sizes = [](const svc::PromText& t) {
    double sum = 0.0;
    for (int i = 0; i < 4; ++i) {
      sum += t.value_or("segroute_svc_cache_shard" + std::to_string(i) + "_size",
                        -100.0);
    }
    return sum;
  };
  const double served0 = scrape().value_or("segroute_svc_served", 0.0);

  // Queued, and no tick has run: the scrape sees the queue anyway.
  std::vector<std::future<svc::SvcResponse>> futs;
  for (std::size_t i = 0; i < 3; ++i) {
    futs.push_back(svc.submit(request("alice", w.alice[i])));
  }
  svc::PromText t = scrape();
  EXPECT_EQ(t.value_or("segroute_svc_queue_depth", -1.0), 3.0);
  EXPECT_EQ(shard_sizes(t), 0.0);

  // Live, and never stopped before the scrape: the dispatcher routes the
  // three, then the same three again are cache hits.
  svc.start();
  for (auto& f : futs) ASSERT_TRUE(f.get().result.success);
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(svc.submit(request("alice", w.alice[i])).get().cache_hit);
  }
  t = scrape();
  EXPECT_EQ(t.value_or("segroute_svc_queue_depth", -1.0), 0.0);
  EXPECT_EQ(shard_sizes(t), 3.0);
  EXPECT_EQ(t.value_or("segroute_svc_cache_size", -1.0), 3.0);
  EXPECT_EQ(t.value_or("segroute_svc_served", 0.0), served0 + 6.0);
  EXPECT_EQ(t.value_or("segroute_svc_admission_hits", -1.0),
            static_cast<double>(svc.stats().admission_hits));
  EXPECT_EQ(t.value_or("segroute_svc_cache_hits", -1.0),
            static_cast<double>(svc.engine().cache_stats().hits));
  svc.stop(svc::RoutingService::StopMode::kDrain);
}

TEST(SvcMetrics, ServiceDestroyedWhileScrapingIsSafe) {
  // Each service removes its collector on destruction; a scrape running
  // it at that moment must finish first (ASan reports the use-after-free
  // otherwise, TSan the race).
  const SegmentedChannel ch = test_channel();
  const Workload w = make_workload(ch, 27);
  std::atomic<bool> done{false};
  std::atomic<int> scrapes{0};
  std::thread scraper([&] {
    while (!done.load()) {
      (void)obs::Registry::instance().prometheus_text();
      scrapes.fetch_add(1);
    }
  });
  while (scrapes.load() == 0) std::this_thread::yield();
  for (int round = 0; round < 20; ++round) {
    svc::RoutingService svc(ch);
    svc.start();
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_TRUE(svc.submit(request("alice", w.alice[i])).get().result.success);
    }
  }
  done.store(true);
  scraper.join();
}

TEST(SvcMetrics, ParserRejectsMalformedText) {
  EXPECT_FALSE(svc::parse_prometheus_text("no_value_here\n").ok);
  EXPECT_FALSE(svc::parse_prometheus_text("x{le=\"1\" 3\n").ok);
  EXPECT_FALSE(svc::parse_prometheus_text("x 1 2 3\n").ok);
  EXPECT_FALSE(svc::parse_prometheus_text("# TYPE x flavor\n").ok);
  EXPECT_TRUE(svc::parse_prometheus_text(
                  "# TYPE x counter\nx 1\n# HELP x whatever\n")
                  .ok);
  const svc::PromText t = svc::parse_prometheus_text(
      "# TYPE h histogram\nh_bucket{le=\"0.5\"} 2\nh_bucket{le=\"+Inf\"} "
      "3\nh_sum 1.25\nh_count 3\n");
  ASSERT_TRUE(t.ok) << t.error;
  EXPECT_EQ(t.samples.size(), 4u);
  EXPECT_EQ(t.samples[0].labels.at("le"), "0.5");
}

TEST(SvcHttp, HandlerRoutesAndFrames) {
  const std::string metrics =
      svc::ExpositionServer::handle_request("GET /metrics HTTP/1.1\r\n\r\n");
  EXPECT_EQ(metrics.rfind("HTTP/1.1 200 OK", 0), 0u);
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);

  const std::string health =
      svc::ExpositionServer::handle_request("GET /healthz HTTP/1.1\r\n\r\n");
  EXPECT_NE(health.find("200 OK"), std::string::npos);
  EXPECT_NE(health.find("ok\n"), std::string::npos);

  EXPECT_NE(svc::ExpositionServer::handle_request(
                "GET /nothing-here HTTP/1.1\r\n\r\n")
                .find("404"),
            std::string::npos);
  EXPECT_NE(
      svc::ExpositionServer::handle_request("POST /metrics HTTP/1.1\r\n\r\n")
          .find("405"),
      std::string::npos);
  EXPECT_NE(svc::ExpositionServer::handle_request("garbage").find("400"),
            std::string::npos);
  // JSON variant and query strings.
  EXPECT_NE(svc::ExpositionServer::handle_request(
                "GET /metrics.json?x=1 HTTP/1.1\r\n\r\n")
                .find("application/json"),
            std::string::npos);
}

/// Tiny test client: one request, whole response.
std::string http_get(int port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return {};
  }
  const std::string req = "GET " + path + " HTTP/1.1\r\nHost: x\r\n\r\n";
  (void)!::send(fd, req.data(), req.size(), 0);
  std::string out;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return out;
}

TEST(SvcHttp, EndToEndServesLiveMetrics) {
  svc::ExpositionServer server;
  if (!server.start()) {
    GTEST_SKIP() << "no loopback networking in this sandbox";
  }
  ASSERT_GT(server.port(), 0);

  const std::string health = http_get(server.port(), "/healthz");
  if (health.empty()) {
    server.stop();
    GTEST_SKIP() << "loopback connect failed in this sandbox";
  }
  EXPECT_NE(health.find("200 OK"), std::string::npos);

  const std::string resp = http_get(server.port(), "/metrics");
  const std::size_t body_at = resp.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  const std::string body = resp.substr(body_at + 4);
  // The served bytes round-trip against the registry. (Nothing updates
  // metrics between the serve and this snapshot — the test is the only
  // traffic.)
  const std::string err =
      svc::check_exposition(body, obs::Registry::instance().snapshot());
  EXPECT_EQ(err, "") << err;
  EXPECT_GE(server.requests_served(), 2u);
  server.stop();
  EXPECT_FALSE(server.running());
}

}  // namespace
}  // namespace segroute
