// The observability subsystem: trace spans, the metrics registry and
// their exposition — plus the properties the rest of the repo depends
// on: recording never changes routing results, drains never race
// recorders (exercised under TSan via the tsan_smoke sub-build), and
// the SEGROUTE_OBS=OFF build keeps the instrumentation silent.
//
// The obs API itself (Span, TraceSession, Registry) is compiled in
// both build modes; only the SEGROUTE_* macros in the routing code are
// gated. Tests of the API run everywhere; tests of the threaded-through
// instrumentation branch on SEGROUTE_OBS_ENABLED.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "alg/delta.h"
#include "alg/dp.h"
#include "core/weights.h"
#include "engine/batch.h"
#include "fpga/fabric.h"
#include "gen/segmentation.h"
#include "gen/suite.h"
#include "gen/workload.h"
#include "harness/robust_route.h"
#include "obs/clock.h"
#include "obs/instrument.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "util/pool.h"

namespace segroute::obs {
namespace {

using EventList = std::vector<TraceEvent>;

const TraceEvent* find_event(const EventList& evs, const std::string& name) {
  for (const TraceEvent& e : evs) {
    if (name == e.name) return &e;
  }
  return nullptr;
}

std::size_t count_events(const EventList& evs, const std::string& name) {
  std::size_t n = 0;
  for (const TraceEvent& e : evs) n += (name == e.name) ? 1 : 0;
  return n;
}

// --- Clock -----------------------------------------------------------------

TEST(ObsClock, MonotonicAndMicrosecondConversion) {
  const std::uint64_t a = now_ns();
  const std::uint64_t b = now_ns();
  EXPECT_LE(a, b);
  EXPECT_DOUBLE_EQ(ns_to_trace_us(1500), 1.5);
}

// --- Span lifecycle --------------------------------------------------------

TEST(ObsSpan, InactiveWithoutSession) {
  ASSERT_FALSE(tracing_active());
  Span s("test.orphan");
  EXPECT_FALSE(s.active());
  EXPECT_EQ(s.id(), 0u);
}

TEST(ObsSpan, OneSessionAtATime) {
  TraceSession a, b;
  ASSERT_TRUE(a.start());
  EXPECT_TRUE(a.active());
  EXPECT_FALSE(b.start());  // refused while a records
  a.stop();
  EXPECT_FALSE(a.active());
  ASSERT_TRUE(b.start());
  b.stop();
}

TEST(ObsSpan, NestingLinksParentsOnOneThread) {
  TraceSession session;
  ASSERT_TRUE(session.start());
  {
    Span outer("test.outer", "outcome", "ok");
    ASSERT_TRUE(outer.active());
    {
      Span inner("test.inner");
      instant("test.mark", "at", std::uint64_t{7});
    }
  }
  session.stop();

  const EventList& evs = session.events();
  const TraceEvent* outer = find_event(evs, "test.outer");
  const TraceEvent* inner = find_event(evs, "test.inner");
  const TraceEvent* mark = find_event(evs, "test.mark");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(mark, nullptr);

  EXPECT_EQ(inner->parent, outer->id);
  EXPECT_EQ(mark->parent, inner->id);  // emitted while inner was open
  EXPECT_TRUE(mark->instant);
  EXPECT_LE(outer->start_ns, inner->start_ns);
  EXPECT_LE(inner->end_ns, outer->end_ns);
  EXPECT_STREQ(outer->tag_key, "outcome");
  EXPECT_STREQ(outer->tag_str, "ok");
  EXPECT_EQ(mark->tag_u64, 7u);
  // events() is sorted by start time.
  EXPECT_TRUE(std::is_sorted(
      evs.begin(), evs.end(), [](const TraceEvent& a, const TraceEvent& b) {
        return a.start_ns < b.start_ns;
      }));
}

TEST(ObsSpan, SpansBeforeStartAndAfterStopAreNotRecorded) {
  { Span early("test.early"); }
  TraceSession session;
  ASSERT_TRUE(session.start());
  { Span during("test.during"); }
  session.stop();
  { Span late("test.late"); }

  EXPECT_EQ(count_events(session.events(), "test.early"), 0u);
  EXPECT_EQ(count_events(session.events(), "test.during"), 1u);
  EXPECT_EQ(count_events(session.events(), "test.late"), 0u);
}

TEST(ObsSpan, NestingAndOrderingAcrossPoolWorkers) {
  util::ThreadPool pool(4);  // 3 real workers + the caller
  TraceSession session;
  ASSERT_TRUE(session.start());
  pool.parallel_for(8, [](std::int64_t i) {
    Span outer("test.pool_outer", "item", static_cast<std::uint64_t>(i));
    Span inner("test.pool_inner");
  });
  session.stop();

  const EventList& evs = session.events();
  EXPECT_EQ(session.dropped(), 0u);
  std::vector<const TraceEvent*> outers, inners;
  for (const TraceEvent& e : evs) {
    if (std::string("test.pool_outer") == e.name) outers.push_back(&e);
    if (std::string("test.pool_inner") == e.name) inners.push_back(&e);
  }
  ASSERT_EQ(outers.size(), 8u);
  ASSERT_EQ(inners.size(), 8u);

  // Every inner is parented to an outer on the same thread and nested
  // within its interval; the 8 items arrive exactly once.
  std::vector<char> seen(8, 0);
  for (const TraceEvent* in : inners) {
    const TraceEvent* out = nullptr;
    for (const TraceEvent* o : outers) {
      if (o->id == in->parent) out = o;
    }
    ASSERT_NE(out, nullptr) << "inner span without matching outer parent";
    EXPECT_EQ(out->tid, in->tid);
    EXPECT_LE(out->start_ns, in->start_ns);
    EXPECT_GE(out->end_ns, in->end_ns);
    ASSERT_LT(out->tag_u64, 8u);
    seen[static_cast<std::size_t>(out->tag_u64)]++;
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(),
                          [](char c) { return c == 1; }));
  EXPECT_TRUE(std::is_sorted(
      evs.begin(), evs.end(), [](const TraceEvent& a, const TraceEvent& b) {
        return a.start_ns < b.start_ns;
      }));
}

TEST(ObsSpan, FullBufferDropsAndCountsInsteadOfGrowing) {
  TraceSession session(8);
  ASSERT_TRUE(session.start());
  for (int i = 0; i < 20; ++i) {
    Span s("test.flood");
  }
  session.stop();
  EXPECT_EQ(count_events(session.events(), "test.flood"), 8u);
  EXPECT_EQ(session.dropped(), 12u);
}

TEST(ObsSpan, ChromeTraceJsonCarriesTagsAndPhases) {
  TraceSession session;
  ASSERT_TRUE(session.start());
  {
    Span s("test.chrome", "outcome", "ok");
    instant("test.tick");
  }
  {
    Span s("test.fp", "fingerprint", std::uint64_t{18446744073709551615ull});
  }
  session.stop();

  const std::string js = session.chrome_trace_json();
  EXPECT_NE(js.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(js.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(js.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(js.find("\"s\": \"t\""), std::string::npos);
  EXPECT_NE(js.find("\"outcome\": \"ok\""), std::string::npos);
  // u64 tags are strings: 2^64-1 does not survive a double round-trip.
  EXPECT_NE(js.find("\"fingerprint\": \"18446744073709551615\""),
            std::string::npos);
}

// --- Metrics ---------------------------------------------------------------

TEST(ObsMetrics, CounterAggregatesConcurrentShards) {
  Counter& c = Registry::instance().counter("test.counter.shards");
  c.reset();
  util::ThreadPool pool(4);
  pool.parallel_for(1000, [&](std::int64_t) { c.add(1); });
  EXPECT_EQ(c.value(), 1000u);
  c.add(5);
  EXPECT_EQ(c.value(), 1005u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(ObsMetrics, GaugeSetAndHighWater) {
  Gauge& g = Registry::instance().gauge("test.gauge");
  g.reset();
  g.set(5.0);
  EXPECT_DOUBLE_EQ(g.value(), 5.0);
  g.set_max(3.0);
  EXPECT_DOUBLE_EQ(g.value(), 5.0);  // lower value does not regress it
  g.set_max(9.0);
  EXPECT_DOUBLE_EQ(g.value(), 9.0);
  g.set(2.0);
  EXPECT_DOUBLE_EQ(g.value(), 2.0);  // plain set always wins
}

TEST(ObsMetrics, HistogramBucketBoundariesAreInclusiveUpper) {
  Histogram& h =
      Registry::instance().histogram("test.hist.bounds", {1.0, 2.0, 4.0});
  h.reset();
  for (double v : {0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0}) h.observe(v);
  const Histogram::Snapshot s = h.snapshot();
  ASSERT_EQ(s.counts.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(s.counts[0], 2u);      // 0.5, 1.0   (v <= 1)
  EXPECT_EQ(s.counts[1], 2u);      // 1.5, 2.0   (1 < v <= 2)
  EXPECT_EQ(s.counts[2], 2u);      // 3.0, 4.0   (2 < v <= 4)
  EXPECT_EQ(s.counts[3], 1u);      // 5.0        (overflow)
  EXPECT_EQ(s.total, 7u);
  EXPECT_DOUBLE_EQ(s.sum, 17.0);
}

TEST(ObsMetrics, RegistrationIsIdempotentAndKeepsOriginalBounds) {
  Counter& a = Registry::instance().counter("test.idem.counter");
  Counter& b = Registry::instance().counter("test.idem.counter");
  EXPECT_EQ(&a, &b);
  Histogram& h1 =
      Registry::instance().histogram("test.idem.hist", {1.0, 2.0});
  Histogram& h2 =
      Registry::instance().histogram("test.idem.hist", {42.0});
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h2.bounds().size(), 2u);  // the original bounds win
}

TEST(ObsMetrics, PrometheusExposition) {
  Registry::instance().counter("test.prom-metric").reset();
  Registry::instance().counter("test.prom-metric").add(3);
  Histogram& h =
      Registry::instance().histogram("test.prom.hist", {1.0, 2.0});
  h.reset();
  for (double v : {0.5, 1.5, 9.0}) h.observe(v);

  const std::string text = Registry::instance().prometheus_text();
  // Names are sanitized and prefixed.
  EXPECT_NE(text.find("# TYPE segroute_test_prom_metric counter\n"
                      "segroute_test_prom_metric 3\n"),
            std::string::npos);
  // Histogram buckets are cumulative with le labels, plus +Inf/sum/count.
  EXPECT_NE(text.find("segroute_test_prom_hist_bucket{le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("segroute_test_prom_hist_bucket{le=\"2\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("segroute_test_prom_hist_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("segroute_test_prom_hist_sum 11"), std::string::npos);
  EXPECT_NE(text.find("segroute_test_prom_hist_count 3"), std::string::npos);
}

TEST(ObsMetrics, JsonExposition) {
  Registry::instance().counter("test.json.counter").reset();
  Registry::instance().counter("test.json.counter").add(2);
  Registry::instance().gauge("test.json.gauge").set(1.5);
  const std::string js = Registry::instance().json_text();
  EXPECT_NE(js.find("\"counters\""), std::string::npos);
  EXPECT_NE(js.find("\"gauges\""), std::string::npos);
  EXPECT_NE(js.find("\"histograms\""), std::string::npos);
  EXPECT_NE(js.find("\"test.json.counter\": 2"), std::string::npos);
  EXPECT_NE(js.find("\"test.json.gauge\": 1.5"), std::string::npos);
}

// --- Snapshot-while-recording races (the TSan targets) ---------------------

TEST(ObsMetrics, SnapshotWhileRecordingIsDataRaceFree) {
  Counter& c = Registry::instance().counter("test.race.counter");
  Gauge& g = Registry::instance().gauge("test.race.gauge");
  Histogram& h = Registry::instance().histogram("test.race.hist", {8.0, 64.0});
  c.reset();
  g.reset();
  h.reset();

  constexpr int kUpdates = 4000;
  std::atomic<bool> writers_done{false};
  std::thread writer([&] {
    for (int i = 0; i < kUpdates; ++i) {
      c.add(1);
      g.set_max(static_cast<double>(i));
      h.observe(static_cast<double>(i % 100));
    }
    writers_done.store(true, std::memory_order_release);
  });
  std::uint64_t last = 0;
  while (!writers_done.load(std::memory_order_acquire)) {
    const MetricsSnapshot snap = Registry::instance().snapshot();
    for (const auto& [name, v] : snap.counters) {
      if (name == "test.race.counter") {
        EXPECT_GE(v, last);  // counters are monotone under concurrent reads
        last = v;
      }
    }
    (void)Registry::instance().prometheus_text();
  }
  writer.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kUpdates));
  EXPECT_EQ(h.snapshot().total, static_cast<std::uint64_t>(kUpdates));
}

TEST(Obs, CollectorsRunAtSnapshotAndUnregister) {
  Registry& reg = Registry::instance();
  Gauge& g = reg.gauge("test.collector.gauge");
  std::atomic<int> runs{0};
  const std::uint64_t id = reg.add_collector([&] {
    g.set(static_cast<double>(runs.fetch_add(1) + 1));
  });

  // Every exposition runs the collector first, so each reads its own run.
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(runs.load(), 1);
  const auto it = std::find_if(
      snap.gauges.begin(), snap.gauges.end(),
      [](const auto& kv) { return kv.first == "test.collector.gauge"; });
  ASSERT_NE(it, snap.gauges.end());
  EXPECT_EQ(it->second, 1.0);
  EXPECT_NE(reg.prometheus_text().find("segroute_test_collector_gauge 2\n"),
            std::string::npos);
  EXPECT_EQ(runs.load(), 2);
  EXPECT_NE(reg.json_text().find("\"test.collector.gauge\": 3"),
            std::string::npos);
  EXPECT_EQ(runs.load(), 3);

  reg.remove_collector(id);
  (void)reg.snapshot();
  (void)reg.prometheus_text();
  EXPECT_EQ(runs.load(), 3);

  // A removal from another thread waits for a run in progress: the
  // collector below blocks until released, and the remover must not
  // return before the collector does.
  std::atomic<bool> entered{false}, release{false}, finished{false};
  std::atomic<bool> removed{false}, finished_at_removal{false};
  const std::uint64_t slow = reg.add_collector([&] {
    entered.store(true);
    while (!release.load()) std::this_thread::yield();
    finished.store(true);
  });
  std::thread scraper([&] { (void)reg.snapshot(); });
  while (!entered.load()) std::this_thread::yield();
  std::thread remover([&] {
    reg.remove_collector(slow);
    finished_at_removal.store(finished.load());
    removed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(removed.load());
  release.store(true);
  remover.join();
  scraper.join();
  EXPECT_TRUE(finished_at_removal.load());
}

TEST(ObsSpan, StopWhileAnotherThreadRecordsIsDataRaceFree) {
  std::atomic<bool> quit{false};
  std::thread recorder([&] {
    while (!quit.load(std::memory_order_acquire)) {
      Span s("test.race.span");
      instant("test.race.instant");
    }
  });
  // Start/stop several sessions while the recorder hammers spans: drains
  // race appends, epoch bumps race stale buffers.
  for (int round = 0; round < 5; ++round) {
    TraceSession session(1024);
    ASSERT_TRUE(session.start());
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    session.stop();
    for (const TraceEvent& e : session.events()) {
      EXPECT_LE(e.start_ns, e.end_ns);
    }
  }
  quit.store(true, std::memory_order_release);
  recorder.join();
}

// --- Recording does not perturb routing ------------------------------------

bool same_result(const alg::RouteResult& a, const alg::RouteResult& b) {
  return a.success == b.success && a.weight == b.weight &&
         a.routing == b.routing && a.failure == b.failure;
}

TEST(ObsRouting, ResultsAreBitIdenticalWithAndWithoutActiveSession) {
  const auto ch = gen::staggered_segmentation(6, 32, 8);
  std::mt19937_64 rng(4242);
  std::vector<ConnectionSet> sets;
  for (int i = 0; i < 4; ++i) {
    sets.push_back(gen::routable_workload(ch, 10, 5.0, rng));
  }

  const auto route_all = [&] {
    std::vector<alg::RouteResult> out;
    for (const auto& cs : sets) {
      out.push_back(alg::dp_route_unlimited(ch, cs));
      out.push_back(
          alg::dp_route_optimal(ch, cs, weights::occupied_length()));
    }
    engine::BatchRouter router(ch);
    for (const auto& cs : sets) out.push_back(router.route(cs));
    return out;
  };

  const auto quiet = route_all();
  TraceSession session;
  ASSERT_TRUE(session.start());
  const auto traced = route_all();
  session.stop();

  ASSERT_EQ(quiet.size(), traced.size());
  for (std::size_t i = 0; i < quiet.size(); ++i) {
    EXPECT_TRUE(same_result(quiet[i], traced[i])) << "i=" << i;
  }
}

// --- Threaded-through instrumentation (build-mode dependent) ---------------

TEST(ObsRouting, InstrumentationFollowsBuildMode) {
  const auto ch = gen::staggered_segmentation(6, 32, 8);
  std::mt19937_64 rng(4243);
  const auto cs = gen::routable_workload(ch, 10, 5.0, rng);

  const std::uint64_t before =
      Registry::instance().counter("dp.routes").value();
  const auto res = alg::dp_route_unlimited(ch, cs);
  ASSERT_TRUE(res.success);
  const std::uint64_t after =
      Registry::instance().counter("dp.routes").value();
#if SEGROUTE_OBS_ENABLED
  EXPECT_EQ(after, before + 1);
  EXPECT_GT(Registry::instance().gauge("dp.frontier_high_water").value(), 0.0);
#else
  // OFF build: the macros compiled to nothing, so the registry never
  // hears about routing.
  EXPECT_EQ(after, before);
  EXPECT_EQ(after, 0u);
#endif
}

// The depth-first search (Problems 1 and 2) counts the states it proved
// dead and the ones column density skipped, flushed once per call; the
// weighted sweep adds to neither.
TEST(ObsRouting, DpCountsTheDepthFirstSearchsDeadStates) {
  const auto inst = gen::suite_instance("staggered-mid");  // infeasible
  Counter& dead = Registry::instance().counter("dp.dead_states");
  Counter& pruned = Registry::instance().counter("dp.pruned_states");
  const std::uint64_t dead0 = dead.value();
  const std::uint64_t pruned0 = pruned.value();
  TraceSession session;
  ASSERT_TRUE(session.start());
  const auto plain = alg::dp_route_unlimited(inst.channel, inst.connections);
  const std::uint64_t dead1 = dead.value();
  const std::uint64_t pruned1 = pruned.value();
  const auto weighted = alg::dp_route_optimal(inst.channel, inst.connections,
                                              weights::unit());
  session.stop();
  ASSERT_FALSE(plain.success);
  ASSERT_EQ(plain.failure, alg::FailureKind::kInfeasible);
  ASSERT_FALSE(weighted.success);
  // Column density cut the search short of the full graph.
  EXPECT_LT(plain.stats.total_nodes, weighted.stats.total_nodes);

  // A feasible edit-session live set whose search backtracks, so the
  // prune fires on the way to a routing.
  const auto edit_ch = gen::staggered_segmentation(8, 64, 8);
  ConnectionSet live;
  for (const auto& [l, r] : std::vector<std::pair<Column, Column>>{
           {8, 11},  {30, 35}, {29, 36}, {9, 19},  {28, 42}, {11, 11},
           {31, 31}, {32, 33}, {37, 46}, {27, 32}, {4, 10},  {11, 25},
           {26, 30}, {25, 35}, {23, 36}, {2, 7},   {32, 41}, {18, 22},
           {3, 3}}) {
    live.add(l, r);
  }
  const std::uint64_t dead2 = dead.value();
  const std::uint64_t pruned2 = pruned.value();
  const auto routed = alg::dp_route_unlimited(edit_ch, live);
  ASSERT_TRUE(routed.success) << routed.note;
  EXPECT_TRUE(routed.routing ==
              alg::dp_route_optimal(edit_ch, live, weights::unit()).routing);
  EXPECT_EQ(dead2, dead1);  // the sweep adds to neither
  EXPECT_EQ(pruned2, pruned1);
#if SEGROUTE_OBS_ENABLED
  // Infeasible: every state the search visited was proven dead.
  EXPECT_EQ(dead1 - dead0, plain.stats.total_nodes);
  EXPECT_GT(pruned1 - pruned0, 0u);
  EXPECT_GT(pruned.value() - pruned2, 0u);
  // One outcome-tagged alg.dp_route span per call, nothing nested.
  EXPECT_EQ(count_events(session.events(), "alg.dp_route"), 2u);
  for (const TraceEvent& e : session.events()) {
    if (std::string("alg.dp_route") != e.name) continue;
    EXPECT_STREQ(e.tag_key, "outcome");
    EXPECT_STREQ(e.tag_str, "infeasible");
  }
#else
  EXPECT_EQ(dead.value(), dead0);
  EXPECT_EQ(pruned.value(), pruned0);
  EXPECT_TRUE(session.events().empty());
#endif
}

TEST(ObsRouting, RobustRouteEmitsOutcomeTaggedStageSpans) {
  const auto ch = gen::staggered_segmentation(6, 32, 8);
  std::mt19937_64 rng(4244);
  const auto cs = gen::routable_workload(ch, 10, 5.0, rng);

  TraceSession session;
  ASSERT_TRUE(session.start());
  harness::RobustOptions ro;
  const auto report = harness::robust_route(ch, cs, ro);
  session.stop();
  ASSERT_TRUE(report.success);

#if SEGROUTE_OBS_ENABLED
  const EventList& evs = session.events();
  const TraceEvent* root = find_event(evs, "robust.route");
  ASSERT_NE(root, nullptr);
  EXPECT_STREQ(root->tag_key, "outcome");
  EXPECT_STREQ(root->tag_str, "success");
  // At least one portfolio stage span, outcome-tagged and nested under
  // (or racing alongside) the root.
  bool stage_found = false;
  for (const TraceEvent& e : evs) {
    if (&e != root && !e.instant && e.tag_key != nullptr &&
        std::string("outcome") == e.tag_key) {
      stage_found = true;
    }
  }
  EXPECT_TRUE(stage_found);
#else
  EXPECT_TRUE(session.events().empty());
#endif
}

TEST(ObsRouting, FromScratchSpanTagsItsRegime) {
  // t0: (1,4)(5,9); t1: (1,9). The greedy puts (2,8) on both t0 segments
  // and (1,4) on t1, stranding (5,9): the DP answers that set.
  const SegmentedChannel ch({Track(9, {4}), Track(9, {})});
  ConnectionSet greedy_set;
  greedy_set.add(2, 8);
  greedy_set.add(1, 4);
  ConnectionSet dp_set = greedy_set;
  dp_set.add(5, 9);

  TraceSession session;
  ASSERT_TRUE(session.start());
  const alg::CanonicalResult g = alg::from_scratch(ch, greedy_set, true, 0);
  const alg::CanonicalResult d = alg::from_scratch(ch, dp_set, true, 0);
  session.stop();
  ASSERT_TRUE(g.result.success && d.result.success);
  ASSERT_EQ(g.path, alg::RepairOutcome::Path::kRepair);
  ASSERT_EQ(d.path, alg::RepairOutcome::Path::kFullDp);

#if SEGROUTE_OBS_ENABLED
  const EventList& evs = session.events();
  ASSERT_EQ(count_events(evs, "alg.from_scratch"), 2u);
  std::vector<const TraceEvent*> spans;
  for (const TraceEvent& e : evs) {
    if (std::string("alg.from_scratch") == e.name) spans.push_back(&e);
  }
  std::sort(spans.begin(), spans.end(),
            [](const TraceEvent* a, const TraceEvent* b) {
              return a->start_ns < b->start_ns;
            });
  EXPECT_STREQ(spans[0]->tag_key, "regime");
  EXPECT_STREQ(spans[0]->tag_str, "greedy");
  EXPECT_STREQ(spans[1]->tag_key, "regime");
  EXPECT_STREQ(spans[1]->tag_str, "dp");
  // The DP fallback runs inside the span that reports it (through the
  // registry's alg.route span).
  const TraceEvent* dp = find_event(evs, "alg.dp_route");
  ASSERT_NE(dp, nullptr);
  const TraceEvent* via = find_event(evs, "alg.route");
  ASSERT_NE(via, nullptr);
  EXPECT_EQ(dp->parent, via->id);
  EXPECT_EQ(via->parent, spans[1]->id);
#else
  EXPECT_TRUE(session.events().empty());
#endif
}

TEST(ObsRouting, FabricSearchTracesItsBoundProbesAndRounds) {
  std::mt19937_64 rng(4245);
  fpga::DeviceSpec dev;
  dev.rows = 3;
  dev.slots_per_row = 8;
  dev.cell_width = 2;
  const fpga::Netlist nl = fpga::random_netlist(24, 14, 4, 8, rng);
  const fpga::Placement p = fpga::random_placement(nl, 3, 8, rng);
  std::vector<int> probed;  // widths the search built channels for
  const fpga::FabricRouter fr(dev, nl, p, [&probed](int tracks, Column width) {
    probed.push_back(tracks);
    return gen::staggered_segmentation(tracks, width, 5);
  });
  fpga::FabricOptions o;
  o.max_iterations = 6;

  TraceSession session;
  ASSERT_TRUE(session.start());
  const std::optional<int> m = fr.min_fabric_tracks(16, o);
  session.stop();
  ASSERT_TRUE(m.has_value());
  ASSERT_FALSE(probed.empty());

#if SEGROUTE_OBS_ENABLED
  const EventList& evs = session.events();
  const TraceEvent* search = find_event(evs, "fabric.min_width");
  ASSERT_NE(search, nullptr);
  EXPECT_STREQ(search->tag_key, "tracks");
  EXPECT_EQ(search->tag_u64, static_cast<std::uint64_t>(*m));
  const TraceEvent* bound = find_event(evs, "fabric.min_width.bound");
  ASSERT_NE(bound, nullptr);
  EXPECT_EQ(bound->parent, search->id);
  EXPECT_EQ(bound->tag_u64, static_cast<std::uint64_t>(probed.front()));
  const TraceEvent* probes = find_event(evs, "fabric.min_width.probes");
  ASSERT_NE(probes, nullptr);
  EXPECT_EQ(probes->tag_u64, probed.size());

  // One fabric.route span per probe under the search, and one
  // fabric.iteration span per negotiation round under its route; only
  // the final round of the last probe leaves no channel unrouted.
  std::set<std::uint64_t> routes;
  for (const TraceEvent& e : evs) {
    if (std::string("fabric.route") == e.name) {
      EXPECT_EQ(e.parent, search->id);
      routes.insert(e.id);
    }
  }
  EXPECT_EQ(routes.size(), probed.size());
  std::size_t rounds = 0, clean = 0;
  for (const TraceEvent& e : evs) {
    if (std::string("fabric.iteration") != e.name) continue;
    ++rounds;
    EXPECT_TRUE(routes.count(e.parent) == 1);
    EXPECT_STREQ(e.tag_key, "failed");
    clean += e.tag_u64 == 0 ? 1 : 0;
  }
  EXPECT_GE(rounds, routes.size());
  EXPECT_EQ(clean, 1u);
#else
  EXPECT_TRUE(session.events().empty());
#endif
}

}  // namespace
}  // namespace segroute::obs
