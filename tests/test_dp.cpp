#include "alg/dp.h"

#include <gtest/gtest.h>

#include <random>
#include <set>

#include "alg/exhaustive.h"
#include "core/routing.h"
#include "gen/fixtures.h"
#include "gen/segmentation.h"
#include "gen/workload.h"

namespace segroute::alg {
namespace {

std::uint64_t factorial(int n) {
  std::uint64_t f = 1;
  for (int i = 2; i <= n; ++i) f *= static_cast<std::uint64_t>(i);
  return f;
}

std::uint64_t ipow(std::uint64_t b, int e) {
  std::uint64_t r = 1;
  while (e-- > 0) r *= b;
  return r;
}

SegmentedChannel random_channel(TrackId T, Column width, int max_cuts,
                                std::mt19937_64& rng) {
  std::vector<Track> tracks;
  for (TrackId t = 0; t < T; ++t) {
    std::set<Column> cuts;
    const int k = static_cast<int>(rng() % static_cast<unsigned>(max_cuts + 1));
    for (int i = 0; i < k; ++i) {
      cuts.insert(1 + static_cast<Column>(rng() % (width - 1)));
    }
    tracks.emplace_back(width, std::vector<Column>(cuts.begin(), cuts.end()));
  }
  return SegmentedChannel(std::move(tracks));
}

TEST(Dp, RoutesFig3) {
  const auto ch = gen::fixtures::fig3_channel();
  const auto cs = gen::fixtures::fig3_connections();
  const auto r = dp_route_unlimited(ch, cs);
  ASSERT_TRUE(r.success) << r.note;
  EXPECT_TRUE(validate(ch, cs, r.routing));
}

TEST(Dp, FeasibilityMatchesExhaustiveOnRandomInstances) {
  std::mt19937_64 rng(61);
  int yes = 0, no = 0;
  for (int iter = 0; iter < 120; ++iter) {
    const auto ch = random_channel(3, 14, 3, rng);
    const auto cs = gen::geometric_workload(
        2 + static_cast<int>(rng() % 6), 14, 4.0, rng);
    const auto d = dp_route_unlimited(ch, cs);
    const auto e = exhaustive_route(ch, cs);
    ASSERT_EQ(d.success, e.success) << "iter " << iter;
    if (d.success) {
      EXPECT_TRUE(validate(ch, cs, d.routing)) << "iter " << iter;
      ++yes;
    } else {
      ++no;
    }
  }
  EXPECT_GT(yes, 0);
  EXPECT_GT(no, 0);
}

TEST(Dp, KSegmentFeasibilityMatchesExhaustive) {
  std::mt19937_64 rng(62);
  for (int iter = 0; iter < 80; ++iter) {
    const auto ch = random_channel(3, 14, 4, rng);
    const auto cs = gen::geometric_workload(
        2 + static_cast<int>(rng() % 5), 14, 4.0, rng);
    const int k = 1 + static_cast<int>(rng() % 3);
    ExhaustiveOptions eo;
    eo.max_segments = k;
    const auto d = dp_route_ksegment(ch, cs, k);
    const auto e = exhaustive_route(ch, cs, eo);
    ASSERT_EQ(d.success, e.success) << "iter " << iter << " k=" << k;
    if (d.success) {
      EXPECT_TRUE(validate(ch, cs, d.routing, k)) << "iter " << iter;
    }
  }
}

TEST(Dp, KSegmentSuccessIsMonotoneInK) {
  std::mt19937_64 rng(63);
  for (int iter = 0; iter < 40; ++iter) {
    const auto ch = random_channel(3, 16, 4, rng);
    const auto cs = gen::geometric_workload(
        2 + static_cast<int>(rng() % 6), 16, 4.0, rng);
    bool prev = false;
    for (int k = 1; k <= 5; ++k) {
      const bool ok = dp_route_ksegment(ch, cs, k).success;
      EXPECT_TRUE(!prev || ok) << "success lost when K grew, iter " << iter;
      prev = ok;
    }
    EXPECT_EQ(prev, dp_route_unlimited(ch, cs).success) << "iter " << iter;
  }
}

TEST(Dp, OptimalWeightMatchesExhaustiveBranchAndBound) {
  std::mt19937_64 rng(64);
  const auto w = weights::occupied_length();
  for (int iter = 0; iter < 60; ++iter) {
    const auto ch = random_channel(3, 12, 3, rng);
    const auto cs = gen::geometric_workload(
        2 + static_cast<int>(rng() % 4), 12, 3.5, rng);
    ExhaustiveOptions eo;
    eo.weight = w;
    const auto d = dp_route_optimal(ch, cs, w);
    const auto e = exhaustive_route(ch, cs, eo);
    ASSERT_EQ(d.success, e.success) << "iter " << iter;
    if (d.success) {
      EXPECT_NEAR(d.weight, e.weight, 1e-9) << "iter " << iter;
      EXPECT_NEAR(total_weight(ch, cs, d.routing, w), d.weight, 1e-9);
    }
  }
}

TEST(Dp, CanonicalizationDoesNotChangeTheAnswer) {
  std::mt19937_64 rng(65);
  for (int iter = 0; iter < 60; ++iter) {
    // Channels with repeated track types so canonicalization has bite.
    const auto ch = gen::staggered_segmentation(4, 16, 4);
    const auto cs = gen::geometric_workload(
        3 + static_cast<int>(rng() % 6), 16, 4.0, rng);
    DpOptions with, without;
    with.canonicalize_types = true;
    without.canonicalize_types = false;
    const auto a = dp_route(ch, cs, with);
    const auto b = dp_route(ch, cs, without);
    EXPECT_EQ(a.success, b.success) << "iter " << iter;
    // Merged states can never outnumber raw states.
    EXPECT_LE(a.stats.max_level_nodes, b.stats.max_level_nodes);
  }
}

TEST(Dp, Theorem5FrontierBoundHolds) {
  // Unlimited segment routing: at most 2 * T! distinct frontiers/level.
  std::mt19937_64 rng(66);
  for (int iter = 0; iter < 25; ++iter) {
    const int T = 2 + static_cast<int>(rng() % 3);  // 2..4
    const auto ch = random_channel(T, 14, 3, rng);
    const auto cs = gen::geometric_workload(8, 14, 4.0, rng);
    DpOptions o;
    o.canonicalize_types = false;  // the theorem counts raw frontiers
    const auto r = dp_route(ch, cs, o);
    EXPECT_LE(r.stats.max_level_nodes, 2 * factorial(T))
        << "T=" << T << " iter=" << iter;
  }
}

TEST(Dp, Theorem6FrontierBoundHolds) {
  // K-segment routing: at most (K+1)^T distinct frontiers per level.
  std::mt19937_64 rng(67);
  for (int iter = 0; iter < 25; ++iter) {
    const int T = 2 + static_cast<int>(rng() % 3);
    const int K = 1 + static_cast<int>(rng() % 3);
    const auto ch = random_channel(T, 14, 4, rng);
    const auto cs = gen::geometric_workload(8, 14, 4.0, rng);
    DpOptions o;
    o.canonicalize_types = false;
    o.max_segments = K;
    const auto r = dp_route(ch, cs, o);
    EXPECT_LE(r.stats.max_level_nodes, ipow(static_cast<std::uint64_t>(K + 1), T))
        << "T=" << T << " K=" << K << " iter=" << iter;
  }
}

TEST(Dp, IdenticalTracksCollapseToLinearStates) {
  // With full canonicalization and identical tracks, the frontier is a
  // sorted multiset: levels stay tiny even for many tracks.
  const auto ch = SegmentedChannel::identical(8, 24, {6, 12, 18});
  std::mt19937_64 rng(68);
  const auto cs = gen::geometric_workload(16, 24, 4.0, rng);
  const auto r = dp_route_unlimited(ch, cs);
  // Theorem 7 with one type: O(T^K)-ish; assert a generous concrete cap.
  EXPECT_LE(r.stats.max_level_nodes, 512u);
}

TEST(Dp, InfeasibleInstanceReportsEmptyLevel) {
  const auto ch = SegmentedChannel::identical(1, 9, {4});
  ConnectionSet cs;
  cs.add(1, 2);
  cs.add(3, 4);  // same segment
  const auto r = dp_route_unlimited(ch, cs);
  EXPECT_FALSE(r.success);
  EXPECT_NE(r.note.find("empty"), std::string::npos);
  EXPECT_EQ(r.stats.nodes_per_level.back(), 0u);
}

TEST(Dp, EmptyConnectionSetSucceeds) {
  const auto ch = SegmentedChannel::identical(2, 5, {});
  const auto r = dp_route_unlimited(ch, ConnectionSet{});
  EXPECT_TRUE(r.success);
}

TEST(Dp, ConnectionsBeyondWidthFailGracefully) {
  const auto ch = SegmentedChannel::identical(2, 5, {});
  ConnectionSet cs;
  cs.add(1, 9);
  EXPECT_FALSE(dp_route_unlimited(ch, cs).success);
}

TEST(Dp, NodeLimitAbortsCleanly) {
  std::mt19937_64 rng(69);
  const auto ch = random_channel(5, 30, 6, rng);
  const auto cs = gen::geometric_workload(20, 30, 6.0, rng);
  DpOptions o;
  o.canonicalize_types = false;
  o.max_total_nodes = 4;  // absurdly small
  const auto r = dp_route(ch, cs, o);
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.failure, FailureKind::kBudgetExhausted);
  EXPECT_NE(r.note.find("node limit"), std::string::npos);
}

TEST(Dp, WeightsRespectKSegmentCap) {
  // segments_capped(K) as a weight forbids >K-segment assignments, so the
  // result must equal plain K-segment routing (Problem 3 subsumes
  // Problem 2).
  std::mt19937_64 rng(70);
  for (int iter = 0; iter < 40; ++iter) {
    const auto ch = random_channel(3, 14, 4, rng);
    const auto cs = gen::geometric_workload(
        2 + static_cast<int>(rng() % 5), 14, 4.0, rng);
    const auto via_weight =
        dp_route_optimal(ch, cs, weights::segments_capped(2));
    const auto via_k = dp_route_ksegment(ch, cs, 2);
    EXPECT_EQ(via_weight.success, via_k.success) << "iter " << iter;
    if (via_weight.success) {
      EXPECT_TRUE(validate(ch, cs, via_weight.routing, 2)) << "iter " << iter;
    }
  }
}

TEST(Dp, StatsLevelsCountConnectionsPlusRoot) {
  const auto ch = gen::fixtures::fig3_channel();
  const auto cs = gen::fixtures::fig3_connections();
  const auto r = dp_route_unlimited(ch, cs);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.stats.nodes_per_level.size(),
            static_cast<std::size_t>(cs.size()) + 1);
  EXPECT_EQ(r.stats.nodes_per_level.front(), 1u);
  // All frontiers collapse at the final level.
  EXPECT_EQ(r.stats.nodes_per_level.back(), 1u);
}

// A WeightFn may itself call dp_route. The outer call holds the thread's
// workspace, so the nested call must run on its own: both results equal
// their plain, un-nested counterparts. The inner instance is the larger
// one, so sharing a workspace would regrow the arena under the outer call.
TEST(Dp, NestedCallFromAWeightFnMatchesPlainCalls) {
  const auto outer_ch = gen::staggered_segmentation(4, 16, 4);
  std::mt19937_64 outer_rng(91);
  const auto outer_cs = gen::routable_workload(outer_ch, 6, 4.0, outer_rng);
  const auto inner_ch = gen::staggered_segmentation(6, 32, 8);
  std::mt19937_64 inner_rng(92);
  const auto inner_cs = gen::routable_workload(inner_ch, 12, 5.0, inner_rng);

  const WeightFn base = weights::occupied_length();
  DpOptions inner_opts;
  inner_opts.weight = base;
  const RouteResult inner_plain = dp_route(inner_ch, inner_cs, inner_opts);
  ASSERT_TRUE(inner_plain.success);

  int nested_calls = 0;
  DpOptions outer_opts;
  outer_opts.weight = [&](const SegmentedChannel& ch, const Connection& c,
                          TrackId t) {
    const RouteResult inner = dp_route(inner_ch, inner_cs, inner_opts);
    ++nested_calls;
    EXPECT_EQ(inner.success, inner_plain.success);
    EXPECT_EQ(inner.weight, inner_plain.weight);
    EXPECT_TRUE(inner.routing == inner_plain.routing);
    EXPECT_EQ(inner.stats.total_nodes, inner_plain.stats.total_nodes);
    EXPECT_EQ(inner.stats.nodes_per_level, inner_plain.stats.nodes_per_level);
    return base(ch, c, t);
  };
  const RouteResult outer = dp_route(outer_ch, outer_cs, outer_opts);
  ASSERT_GT(nested_calls, 0);

  DpOptions plain_opts;
  plain_opts.weight = base;
  const RouteResult outer_plain = dp_route(outer_ch, outer_cs, plain_opts);
  ASSERT_TRUE(outer_plain.success);
  EXPECT_EQ(outer.success, outer_plain.success);
  EXPECT_EQ(outer.weight, outer_plain.weight);
  EXPECT_TRUE(outer.routing == outer_plain.routing);
  EXPECT_EQ(outer.stats.total_nodes, outer_plain.stats.total_nodes);
  EXPECT_EQ(outer.stats.nodes_per_level, outer_plain.stats.nodes_per_level);
}

}  // namespace
}  // namespace segroute::alg
