#include "npc/reduction.h"

#include <gtest/gtest.h>

#include <chrono>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "alg/dp.h"
#include "alg/registry.h"
#include "core/router.h"
#include "core/weights.h"
#include "gen/fixtures.h"

namespace segroute::npc {
namespace {

TEST(Reduction, Example1StructureMatchesTheConstruction) {
  const auto inst = gen::fixtures::example1_nmts();
  const auto q = build_unlimited(inst);
  const int n = 3;
  // N = x_n + y_n + 7 = 8 + 12 + 7 = 27; T = n^2 = 9; M = 3n^2 + n = 30.
  EXPECT_EQ(q.channel.width(), 27);
  EXPECT_EQ(q.channel.num_tracks(), n * n);
  EXPECT_EQ(q.connections.size(), 3 * n * n + n);
  EXPECT_EQ(static_cast<int>(q.a.size()), n);
  EXPECT_EQ(static_cast<int>(q.b.size()), n);
  EXPECT_EQ(static_cast<int>(q.d.size()), n);
  EXPECT_EQ(static_cast<int>(q.e.size()), n * n - n);
  EXPECT_EQ(static_cast<int>(q.f.size()), n * n);

  // z-track i: (1,3), unit segments 4 .. z_i+4, then (z_i+5, N).
  for (int i = 0; i < n; ++i) {
    const Track& t = q.channel.track(i);
    EXPECT_EQ(t.segment(0), (Segment{1, 3}));
    const Column zi = static_cast<Column>(inst.z()[static_cast<std::size_t>(i)]);
    EXPECT_EQ(t.num_segments(), 1 + (zi + 1) + 1);
    EXPECT_EQ(t.segment(t.num_segments() - 1), (Segment{zi + 5, 27}));
    for (SegId s = 1; s + 1 < t.num_segments(); ++s) {
      EXPECT_EQ(t.segment(s).length(), 1);
    }
  }
  // Block tracks have exactly three segments.
  for (TrackId t = n; t < q.channel.num_tracks(); ++t) {
    EXPECT_EQ(q.channel.track(t).num_segments(), 3);
  }
  // Connection geometry: a_j = (4, x_j + 3); right(b_kj) - left(a_j) =
  // x_j + y_k (the paper's key identity).
  for (int j = 0; j < n; ++j) {
    EXPECT_EQ(q.connections[q.a[static_cast<std::size_t>(j)]].left, 4);
    EXPECT_EQ(q.connections[q.a[static_cast<std::size_t>(j)]].right,
              inst.x()[static_cast<std::size_t>(j)] + 3);
    for (int k = 0; k < n; ++k) {
      const auto& b = q.connections[q.b[static_cast<std::size_t>(k)]
                                        [static_cast<std::size_t>(j)]];
      EXPECT_EQ(b.right - 4, inst.x()[static_cast<std::size_t>(j)] +
                                 inst.y()[static_cast<std::size_t>(k)]);
    }
  }
}

TEST(Reduction, Proposition3AllBConnectionsOverlap) {
  const auto inst = gen::fixtures::example1_nmts();
  const auto q = build_unlimited(inst);
  for (int k1 = 0; k1 < q.n; ++k1) {
    for (int j1 = 0; j1 < q.n; ++j1) {
      for (int k2 = 0; k2 < q.n; ++k2) {
        for (int j2 = 0; j2 < q.n; ++j2) {
          EXPECT_TRUE(q.connections[q.b[k1][j1]].overlaps(
              q.connections[q.b[k2][j2]]));
        }
      }
    }
  }
}

TEST(Reduction, Lemma1BuildsAValidRouting) {
  const auto inst = gen::fixtures::example1_nmts();
  const auto q = build_unlimited(inst);
  const auto sol = inst.solve();
  ASSERT_TRUE(sol.has_value());
  const auto r = routing_from_matching(q, inst, *sol);
  EXPECT_TRUE(validate(q.channel, q.connections, r));
}

TEST(Reduction, Lemma2ExtractsAMatchingFromAnyRouting) {
  const auto inst = gen::fixtures::example1_nmts();
  const auto q = build_unlimited(inst);
  const auto dp = alg::dp_route_unlimited(q.channel, q.connections);
  ASSERT_TRUE(dp.success);
  const auto sol = matching_from_routing(q, inst, dp.routing);
  ASSERT_TRUE(sol.has_value());
  EXPECT_TRUE(inst.check(*sol));
}

TEST(Reduction, RejectsInvalidSolutionsAndUnreadyInstances) {
  const auto inst = gen::fixtures::example1_nmts();
  const auto q = build_unlimited(inst);
  NmtsSolution bad{{0, 1, 2}, {0, 1, 2}};
  EXPECT_THROW(routing_from_matching(q, inst, bad), std::invalid_argument);
  // x gaps below n: not reduction-ready.
  const NmtsInstance unready({1, 2, 3}, {10, 11, 12}, {11, 13, 15});
  EXPECT_FALSE(unready.reduction_ready());
  EXPECT_THROW(build_unlimited(unready), std::invalid_argument);
  EXPECT_THROW(build_two_segment(unready), std::invalid_argument);
}

TEST(Reduction, MatchingFromRoutingRejectsInvalidRoutings) {
  const auto inst = gen::fixtures::example1_nmts();
  const auto q = build_unlimited(inst);
  Routing empty(q.connections.size());
  EXPECT_FALSE(matching_from_routing(q, inst, empty).has_value());
}

TEST(Reduction, TwoSegmentStructureMatchesTheAppendix) {
  const auto inst = gen::fixtures::example1_nmts();
  const auto q2 = build_two_segment(inst);
  const int n = 3;
  EXPECT_EQ(q2.channel.num_tracks(), 2 * n * n - n);
  // M = a(n) + b(n^2) + e(n^2-n) + f(2n^2-n) + g(n^2-n).
  EXPECT_EQ(q2.connections.size(), n + n * n + (n * n - n) +
                                       (2 * n * n - n) + (n * n - n));
  // The first n^2 tracks have five segments each: (1,2) (3,3)
  // (4, x_j+3) (x_j+4, z_i+4) (z_i+5, N).
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      const Track& t = q2.channel.track(i * n + j);
      ASSERT_EQ(t.num_segments(), 5);
      EXPECT_EQ(t.segment(0), (Segment{1, 2}));
      EXPECT_EQ(t.segment(1), (Segment{3, 3}));
      EXPECT_EQ(t.segment(2).right,
                inst.x()[static_cast<std::size_t>(j)] + 3);
      EXPECT_EQ(t.segment(3).right,
                inst.z()[static_cast<std::size_t>(i)] + 4);
    }
  }
}

TEST(Reduction, AppendixRoutingIsAValid2SegmentRouting) {
  const auto inst = gen::fixtures::example1_nmts();
  const auto q2 = build_two_segment(inst);
  const auto sol = inst.solve();
  ASSERT_TRUE(sol.has_value());
  const auto r = routing_from_matching_two_segment(q2, inst, *sol);
  EXPECT_TRUE(validate(q2.channel, q2.connections, r, 2));
}

TEST(Reduction, Theorem1EquivalenceOnRandomInstances) {
  // NMTS solvable <=> Q routable (both directions, via the DP router).
  std::mt19937_64 rng(101);
  int solvable = 0, unsolvable = 0;
  for (int iter = 0; iter < 14; ++iter) {
    const int n = 2 + static_cast<int>(rng() % 2);  // n in {2, 3}
    const auto raw = (iter % 2 == 0) ? random_solvable_nmts(n, rng)
                                     : random_perturbed_nmts(n, rng);
    const auto inst = raw.normalized();
    const bool nmts_ok = inst.solve().has_value();
    const auto q = build_unlimited(inst);
    const auto dp = alg::dp_route_unlimited(q.channel, q.connections);
    ASSERT_EQ(nmts_ok, dp.success) << "iter " << iter << " n=" << n;
    if (nmts_ok) {
      ++solvable;
      const auto back = matching_from_routing(q, inst, dp.routing);
      ASSERT_TRUE(back.has_value()) << "iter " << iter;
      EXPECT_TRUE(inst.check(*back)) << "iter " << iter;
    } else {
      ++unsolvable;
    }
  }
  EXPECT_GT(solvable, 0);
  EXPECT_GT(unsolvable, 0);
}

TEST(Reduction, Theorem2EquivalenceOnRandomInstances) {
  // NMTS solvable <=> Q2 2-segment routable.
  std::mt19937_64 rng(102);
  int solvable = 0, unsolvable = 0;
  for (int iter = 0; iter < 8; ++iter) {
    const int n = 2;
    const auto raw = (iter % 2 == 0) ? random_solvable_nmts(n, rng)
                                     : random_perturbed_nmts(n, rng);
    const auto inst = raw.normalized();
    const bool nmts_ok = inst.solve().has_value();
    const auto q2 = build_two_segment(inst);
    const auto dp =
        alg::dp_route_ksegment(q2.channel, q2.connections, 2);
    ASSERT_EQ(nmts_ok, dp.success) << "iter " << iter;
    (nmts_ok ? solvable : unsolvable)++;
  }
  EXPECT_GT(solvable, 0);
  EXPECT_GT(unsolvable, 0);
}

// Differential check on the paper's own hard family: the exact routers
// must agree on feasibility and on the optimal occupied length of every
// reduction instance Q and Q2, unlimited and at K = 1, 2. At K = 1 the
// two matching-based routers join in. Each call runs under its own 20 s
// deadline; running out of it fails the test instead of passing it
// vacuously.
TEST(Reduction, ExactRoutersAgreeOnTheHardFamily) {
  const auto w = weights::occupied_length();
  std::mt19937_64 rng(103);
  int feasible = 0, infeasible = 0;
  for (int iter = 0; iter < 4; ++iter) {
    const auto raw = (iter % 2 == 0) ? random_solvable_nmts(2, rng)
                                     : random_perturbed_nmts(2, rng);
    const auto inst = raw.normalized();
    const auto q = build_unlimited(inst);
    const auto q2 = build_two_segment(inst);
    const std::pair<const SegmentedChannel*, const ConnectionSet*> family[] = {
        {&q.channel, &q.connections}, {&q2.channel, &q2.connections}};
    for (int which = 0; which < 2; ++which) {
      for (int k : {0, 1, 2}) {
        const std::string where = "iter " + std::to_string(iter) + " Q" +
                                  (which ? "2" : "") + " K=" +
                                  std::to_string(k);
        RouteRequest rq;
        rq.channel = family[which].first;
        rq.connections = family[which].second;
        rq.options.max_segments = k;
        rq.options.weight = w;
        const auto run = [&](const char* name, const RouteRequest& req) {
          RouteRequest call = req;
          call.budget = harness::Budget::with_deadline(std::chrono::seconds(20));
          const auto r = alg::route(name, call);
          EXPECT_TRUE(r.success || r.failure == alg::FailureKind::kInfeasible)
              << where << " / " << name << ": " << r.note;
          EXPECT_TRUE(!r.success || r.note.empty())
              << where << " / " << name << " stopped early: " << r.note;
          return r;
        };
        const auto dp = run("dp", rq);
        std::vector<std::pair<const char*, alg::RouteResult>> others = {
            {"exhaustive", run("exhaustive", rq)},
            {"branch_bound", run("branch_bound", rq)}};
        if (k == 1) {
          others.emplace_back("match1", run("match1", rq));
          RouteRequest feas = rq;
          feas.options.weight.reset();
          others.emplace_back("greedy1", run("greedy1", feas));
        }
        for (const auto& [name, r] : others) {
          ASSERT_EQ(dp.success, r.success) << where << " / " << name;
          if (r.success && std::string(name) != "greedy1") {
            EXPECT_DOUBLE_EQ(dp.weight, r.weight) << where << " / " << name;
          }
        }
        (dp.success ? feasible : infeasible)++;
      }
    }
  }
  EXPECT_GT(feasible, 0);
  EXPECT_GT(infeasible, 0);
}

}  // namespace
}  // namespace segroute::npc
