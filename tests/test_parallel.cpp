// Tests for the parallel layer (util::ThreadPool + the threaded capacity
// searches) and the DP stats-on-every-exit contract. The load-bearing
// property throughout: results are bit-identical across thread counts.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <random>
#include <stdexcept>
#include <vector>

#include "alg/capacity.h"
#include "alg/dp.h"
#include "gen/segmentation.h"
#include "gen/suite.h"
#include "gen/workload.h"
#include "harness/budget.h"
#include "util/pool.h"

namespace segroute {
namespace {

using alg::CapacityOptions;

// ---------------------------------------------------------------- pool --

TEST(ThreadPool, ResolveThreads) {
  EXPECT_GE(util::resolve_threads(0), 1);
  EXPECT_EQ(util::resolve_threads(1), 1);
  EXPECT_EQ(util::resolve_threads(5), 5);
  EXPECT_GE(util::resolve_threads(-3), 1);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  for (int w : {1, 2, 3, 8}) {
    util::ThreadPool pool(w);
    EXPECT_EQ(pool.size(), w);
    for (std::int64_t n : {0, 1, 2, 7, 64, 1000}) {
      std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
      for (auto& h : hits) h.store(0);
      pool.parallel_for(n, [&](std::int64_t i) {
        hits[static_cast<std::size_t>(i)].fetch_add(1);
      });
      for (std::int64_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
            << "w=" << w << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST(ThreadPool, ParallelForIsReusable) {
  util::ThreadPool pool(4);
  std::atomic<long> sum{0};
  for (int round = 0; round < 50; ++round) {
    pool.parallel_for(100, [&](std::int64_t i) { sum.fetch_add(i); });
  }
  EXPECT_EQ(sum.load(), 50L * (99 * 100 / 2));
}

TEST(ThreadPool, ParallelForPropagatesExceptions) {
  util::ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(64,
                                 [&](std::int64_t i) {
                                   if (i == 37) {
                                     throw std::runtime_error("boom");
                                   }
                                 }),
               std::runtime_error);
  // The pool must survive a throwing job.
  std::atomic<int> n{0};
  pool.parallel_for(16, [&](std::int64_t) { n.fetch_add(1); });
  EXPECT_EQ(n.load(), 16);
}

TEST(ThreadPool, RunExecutesEveryJob) {
  util::ThreadPool pool(3);
  std::vector<std::atomic<int>> done(7);
  for (auto& d : done) d.store(0);
  std::vector<std::function<void()>> jobs;
  for (int i = 0; i < 7; ++i) {
    jobs.push_back([&done, i] { done[static_cast<std::size_t>(i)].store(1); });
  }
  pool.run(jobs);
  for (auto& d : done) EXPECT_EQ(d.load(), 1);
}

// ------------------------------------------------- capacity determinism --

TEST(ParallelCapacity, RoutabilityBitIdenticalAcrossThreadCounts) {
  const auto ch = gen::staggered_segmentation(5, 32, 8);
  const auto draw = [](std::mt19937_64& r) {
    return gen::geometric_workload(12, 32, 5.0, r);
  };
  const int trials = 60;
  std::vector<double> rates;
  std::vector<std::uint64_t> next_draw;
  for (int w : {1, 2, 8}) {
    CapacityOptions o;
    o.threads = w;
    std::mt19937_64 rng(9001);
    rates.push_back(alg::routability(ch, draw, trials, rng, o));
    next_draw.push_back(rng());  // master stream position must match too
  }
  EXPECT_EQ(rates[0], rates[1]);
  EXPECT_EQ(rates[0], rates[2]);
  EXPECT_EQ(next_draw[0], next_draw[1]);
  EXPECT_EQ(next_draw[0], next_draw[2]);
  EXPECT_GT(rates[0], 0.0);
  EXPECT_LT(rates[0], 1.0);  // workload chosen so the answer is informative
}

TEST(ParallelCapacity, MinTracksParallelMatchesSerial) {
  std::mt19937_64 rng(77);
  const auto cs = gen::geometric_workload(10, 24, 5.0, rng);
  const alg::ChannelFactory make = [](int t) {
    return gen::staggered_segmentation(t, 24, 6);
  };
  for (bool monotone : {false, true}) {
    CapacityOptions serial;
    serial.threads = 1;
    const auto want = alg::min_tracks(cs, make, serial, monotone);
    for (int w : {2, 3, 8}) {
      CapacityOptions o;
      o.threads = w;
      const auto got = alg::min_tracks(cs, make, o, monotone);
      ASSERT_EQ(want.has_value(), got.has_value())
          << "w=" << w << " monotone=" << monotone;
      if (want) {
        EXPECT_EQ(*want, *got) << "w=" << w << " monotone=" << monotone;
      }
    }
  }
}

TEST(ParallelCapacity, MinTracksRespectsTrackLimit) {
  std::mt19937_64 rng(78);
  // Dense overlapping workload that cannot fit in 3 tracks.
  ConnectionSet cs;
  for (int i = 0; i < 8; ++i) cs.add(1, 24);
  const alg::ChannelFactory make = [](int t) {
    return gen::uniform_segmentation(t, 24, 24);
  };
  for (int w : {1, 4}) {
    CapacityOptions o;
    o.threads = w;
    o.track_limit = 3;
    EXPECT_FALSE(alg::min_tracks(cs, make, o, true).has_value()) << "w=" << w;
    o.track_limit = 128;
    const auto got = alg::min_tracks(cs, make, o, true);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, 8);
  }
}

TEST(ParallelCapacity, MaxRoutablePrefixMatchesSerialAndLinearScan) {
  std::mt19937_64 rng(79);
  for (int iter = 0; iter < 6; ++iter) {
    const auto ch = gen::staggered_segmentation(4, 24, 6);
    const auto cs = gen::geometric_workload(
        6 + static_cast<int>(rng() % 8), 24, 6.0, rng);
    CapacityOptions serial;
    serial.threads = 1;
    const int want = alg::max_routable_prefix(ch, cs, serial);
    // Ground truth by linear scan over prefixes.
    const auto& all = cs.all();
    int truth = 0;
    for (int m = 1; m <= cs.size(); ++m) {
      ConnectionSet prefix(
          std::vector<Connection>(all.begin(), all.begin() + m));
      if (!alg::dp_route_unlimited(ch, prefix).success) break;
      truth = m;
    }
    EXPECT_EQ(want, truth) << "iter " << iter;
    for (int w : {2, 8}) {
      CapacityOptions o;
      o.threads = w;
      EXPECT_EQ(alg::max_routable_prefix(ch, cs, o), want)
          << "iter " << iter << " w=" << w;
    }
  }
}

// ------------------------------------------- DP stats on every exit path --

TEST(DpStats, NodeLimitExitReportsConsistentStats) {
  const auto inst = gen::suite_instance("routable-large");
  alg::DpOptions o;
  o.max_total_nodes = 50;  // force the node-limit exit mid-build
  const auto r = alg::dp_route(inst.channel, inst.connections, o);
  ASSERT_FALSE(r.success);
  EXPECT_EQ(r.failure, alg::FailureKind::kBudgetExhausted);
  std::uint64_t sum = 0;
  std::size_t mx = 0;
  for (std::size_t n : r.stats.nodes_per_level) {
    sum += n;
    mx = std::max(mx, n);
  }
  EXPECT_EQ(r.stats.total_nodes, sum);
  EXPECT_EQ(r.stats.max_level_nodes, mx);
  EXPECT_GT(r.stats.total_nodes, 0u);
}

TEST(DpStats, BudgetExhaustedExitReportsConsistentStats) {
  const auto inst = gen::suite_instance("routable-large");
  alg::DpOptions o;
  o.budget = harness::Budget::with_ticks(40);
  const auto r = alg::dp_route(inst.channel, inst.connections, o);
  ASSERT_FALSE(r.success);
  EXPECT_EQ(r.failure, alg::FailureKind::kBudgetExhausted);
  std::uint64_t sum = 0;
  std::size_t mx = 0;
  for (std::size_t n : r.stats.nodes_per_level) {
    sum += n;
    mx = std::max(mx, n);
  }
  EXPECT_EQ(r.stats.total_nodes, sum);
  EXPECT_EQ(r.stats.max_level_nodes, mx);
}

TEST(DpStats, SuccessStatsUnchangedByOptimization) {
  // The frontier sets the optimized DP builds must match the pinned
  // level-by-level counts implied by the suite (guards against the arena
  // or the dedup table changing the state space).
  const auto inst = gen::suite_instance("progressive-long");
  const auto r = alg::dp_route_unlimited(inst.channel, inst.connections);
  ASSERT_TRUE(r.success);
  std::uint64_t sum = 0;
  for (std::size_t n : r.stats.nodes_per_level) sum += n;
  EXPECT_EQ(r.stats.total_nodes, sum);
  EXPECT_EQ(r.stats.nodes_per_level.size(),
            static_cast<std::size_t>(inst.connections.size()) + 1);
}

}  // namespace
}  // namespace segroute
