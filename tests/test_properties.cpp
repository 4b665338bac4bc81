// Parameterized cross-algorithm property sweeps: every router is checked
// against an independent oracle over seeded random instance families.
#include <gtest/gtest.h>

#include <random>
#include <set>

#include "alg/dp.h"
#include "alg/exhaustive.h"
#include "alg/generalized_dp.h"
#include "alg/greedy1.h"
#include "alg/greedy2track.h"
#include "alg/anneal_route.h"
#include "alg/lp_route.h"
#include "alg/online.h"
#include "alg/match1.h"
#include "core/routing.h"
#include "core/stats.h"
#include "gen/segmentation.h"
#include "gen/workload.h"
#include "harness/robust_route.h"
#include "harness/verify.h"

namespace segroute::alg {
namespace {

struct InstanceParams {
  std::uint64_t seed;
  TrackId tracks;
  Column width;
  int max_cuts;
  int connections;
  double mean_len;
};

SegmentedChannel make_channel(const InstanceParams& p, std::mt19937_64& rng) {
  std::vector<Track> tracks;
  for (TrackId t = 0; t < p.tracks; ++t) {
    std::set<Column> cuts;
    const int k =
        static_cast<int>(rng() % static_cast<unsigned>(p.max_cuts + 1));
    for (int i = 0; i < k; ++i) {
      cuts.insert(1 + static_cast<Column>(rng() % (p.width - 1)));
    }
    tracks.emplace_back(p.width, std::vector<Column>(cuts.begin(), cuts.end()));
  }
  return SegmentedChannel(std::move(tracks));
}

class RouterProperties : public ::testing::TestWithParam<InstanceParams> {};

TEST_P(RouterProperties, DpAgreesWithExhaustiveAndProducesValidRoutings) {
  const auto p = GetParam();
  std::mt19937_64 rng(p.seed);
  const auto ch = make_channel(p, rng);
  const auto cs = gen::geometric_workload(p.connections, p.width, p.mean_len, rng);
  const auto d = dp_route_unlimited(ch, cs);
  const auto e = exhaustive_route(ch, cs);
  ASSERT_EQ(d.success, e.success);
  if (d.success) {
    EXPECT_TRUE(validate(ch, cs, d.routing));
  }
}

TEST_P(RouterProperties, Greedy1IsExactForOneSegmentRouting) {
  const auto p = GetParam();
  std::mt19937_64 rng(p.seed ^ 0x9e3779b97f4a7c15ull);
  const auto ch = make_channel(p, rng);
  const auto cs = gen::geometric_workload(p.connections, p.width, p.mean_len, rng);
  const bool greedy_ok = greedy1_route(ch, cs).success;
  const bool oracle_ok = match1_route(ch, cs).success;
  EXPECT_EQ(greedy_ok, oracle_ok);
  ExhaustiveOptions eo;
  eo.max_segments = 1;
  EXPECT_EQ(greedy_ok, exhaustive_route(ch, cs, eo).success);
}

TEST_P(RouterProperties, LpHeuristicNeverContradictsTheOracle) {
  const auto p = GetParam();
  std::mt19937_64 rng(p.seed ^ 0xdeadbeefull);
  const auto ch = make_channel(p, rng);
  const auto cs = gen::geometric_workload(p.connections, p.width, p.mean_len, rng);
  const auto lp = lp_route(ch, cs);
  const bool oracle_ok = dp_route_unlimited(ch, cs).success;
  if (lp.success) {
    EXPECT_TRUE(oracle_ok);
    EXPECT_TRUE(validate(ch, cs, lp.routing));
  } else if (lp.stats.lp_objective < cs.size() - 1e-6) {
    EXPECT_FALSE(oracle_ok);
  }
}

TEST_P(RouterProperties, GeneralizedRoutingSubsumesStandard) {
  const auto p = GetParam();
  std::mt19937_64 rng(p.seed ^ 0x1234567ull);
  InstanceParams small = p;
  small.width = std::min<Column>(p.width, 12);
  small.connections = std::min(p.connections, 5);
  const auto ch = make_channel(small, rng);
  const auto cs =
      gen::geometric_workload(small.connections, small.width, 3.0, rng);
  const bool std_ok = dp_route_unlimited(ch, cs).success;
  const auto g = generalized_dp_route(ch, cs);
  if (std_ok) {
    EXPECT_TRUE(g.success);
  }
  if (g.success) {
    EXPECT_TRUE(validate(ch, cs, g.routing));
  }
}

TEST_P(RouterProperties, OptimalRoutersAgreeOnMinimumWeight) {
  const auto p = GetParam();
  std::mt19937_64 rng(p.seed ^ 0xabcdefull);
  InstanceParams small = p;
  small.connections = std::min(p.connections, 5);
  const auto ch = make_channel(small, rng);
  const auto cs =
      gen::geometric_workload(small.connections, small.width, p.mean_len, rng);
  const auto w = weights::occupied_length();
  const auto d = dp_route_optimal(ch, cs, w);
  ExhaustiveOptions eo;
  eo.weight = w;
  const auto e = exhaustive_route(ch, cs, eo);
  ASSERT_EQ(d.success, e.success);
  if (d.success) {
    EXPECT_NEAR(d.weight, e.weight, 1e-9);
  }
}

TEST_P(RouterProperties, KSegmentHierarchyIsMonotone) {
  const auto p = GetParam();
  std::mt19937_64 rng(p.seed ^ 0x777ull);
  const auto ch = make_channel(p, rng);
  const auto cs = gen::geometric_workload(p.connections, p.width, p.mean_len, rng);
  bool prev = false;
  for (int k = 1; k <= 4; ++k) {
    const bool ok = dp_route_ksegment(ch, cs, k).success;
    EXPECT_TRUE(!prev || ok) << "k=" << k;
    prev = ok;
  }
  if (prev) {
    EXPECT_TRUE(dp_route_unlimited(ch, cs).success);
  }
}

TEST_P(RouterProperties, AnnealingNeverFabricatesRoutings) {
  const auto p = GetParam();
  std::mt19937_64 rng(p.seed ^ 0xfeedULL);
  const auto ch = make_channel(p, rng);
  const auto cs = gen::geometric_workload(p.connections, p.width, p.mean_len, rng);
  AnnealRouteOptions o;
  o.iterations = 30000;
  o.seed = p.seed;
  const auto an = anneal_route(ch, cs, o);
  if (an.success) {
    EXPECT_TRUE(validate(ch, cs, an.routing));
    EXPECT_TRUE(dp_route_unlimited(ch, cs).success);
  }
}

TEST_P(RouterProperties, OnlineRouterMatchesItsSnapshotInvariant) {
  const auto p = GetParam();
  std::mt19937_64 rng(p.seed ^ 0xca11ULL);
  const auto ch = make_channel(p, rng);
  const auto cs = gen::geometric_workload(p.connections, p.width, p.mean_len, rng);
  OnlineRouter router(ch);
  int placed = 0;
  for (const Connection& c : cs.all()) {
    if (router.apply(ChannelEdit::add(c.left, c.right)).success) ++placed;
  }
  EXPECT_EQ(router.num_placed(), placed);
  const auto [scs, sr] = router.snapshot();
  EXPECT_EQ(scs.size(), placed);
  EXPECT_TRUE(validate(ch, scs, sr));
  // Online success on the full set implies the exact router succeeds too.
  if (placed == cs.size()) {
    EXPECT_TRUE(dp_route_unlimited(ch, cs).success);
  }
}

TEST_P(RouterProperties, UtilizationInvariantsHoldOnEveryRouting) {
  const auto p = GetParam();
  std::mt19937_64 rng(p.seed ^ 0x57a7ULL);
  const auto ch = make_channel(p, rng);
  const auto cs = gen::geometric_workload(p.connections, p.width, p.mean_len, rng);
  const auto d = dp_route_unlimited(ch, cs);
  if (!d.success) return;
  const auto st = utilization(ch, cs, d.routing);
  EXPECT_GE(st.occupied_columns, st.demanded_columns);  // overhang >= 1
  EXPECT_LE(st.occupied_columns, st.total_columns);
  EXPECT_LE(st.occupied_segments, st.total_segments);
  EXPECT_LE(st.tracks_touched, ch.num_tracks());
  EXPECT_GE(st.overhang(), 1.0);
}

TEST_P(RouterProperties, EverySuccessfulRouterPassesIndependentVerification) {
  const auto p = GetParam();
  std::mt19937_64 rng(p.seed ^ 0x5eafULL);
  const auto ch = make_channel(p, rng);
  const auto cs = gen::geometric_workload(p.connections, p.width, p.mean_len, rng);
  const harness::RouteVerifier verifier(ch, cs);
  const auto check_ok = [&](const RouteResult& r, const char* who,
                            harness::VerifyOptions vo = {}) {
    if (!r.success) return;
    const auto res = verifier.check(r, vo);
    EXPECT_TRUE(res) << who << ": " << res.detail;
  };
  check_ok(dp_route_unlimited(ch, cs), "dp");
  check_ok(greedy1_route(ch, cs), "greedy1");
  check_ok(match1_route(ch, cs), "match1");
  check_ok(lp_route(ch, cs), "lp");
  check_ok(exhaustive_route(ch, cs), "exhaustive");
  harness::VerifyOptions k2;
  k2.max_segments = 2;
  check_ok(dp_route_ksegment(ch, cs, 2), "dp-k2", k2);
  harness::VerifyOptions wo;
  wo.weight = weights::occupied_length();
  check_ok(dp_route_optimal(ch, cs, weights::occupied_length()), "dp-opt", wo);
  AnnealRouteOptions ao;
  ao.iterations = 20000;
  ao.seed = p.seed;
  check_ok(anneal_route(ch, cs, ao), "anneal");
  if (ch.max_segments_per_track() <= 2) {
    check_ok(greedy2track_route(ch, cs), "greedy2track");
  }
  const auto rep = harness::robust_route(ch, cs);
  if (rep.success) {
    EXPECT_TRUE(verifier.check(rep.routing)) << "robust_route";
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeededSweep, RouterProperties,
    ::testing::Values(
        InstanceParams{1, 2, 10, 2, 3, 3.0}, InstanceParams{2, 3, 12, 3, 4, 3.5},
        InstanceParams{3, 3, 14, 3, 5, 4.0}, InstanceParams{4, 4, 14, 2, 5, 4.0},
        InstanceParams{5, 4, 16, 4, 6, 4.5}, InstanceParams{6, 3, 16, 4, 6, 5.0},
        InstanceParams{7, 2, 14, 3, 4, 4.0}, InstanceParams{8, 4, 12, 2, 6, 3.0},
        InstanceParams{9, 3, 18, 5, 5, 5.0}, InstanceParams{10, 4, 18, 3, 7, 4.0},
        InstanceParams{11, 3, 10, 1, 5, 3.0}, InstanceParams{12, 2, 18, 5, 4, 6.0},
        InstanceParams{13, 4, 20, 4, 7, 5.0}, InstanceParams{14, 3, 20, 2, 6, 6.0},
        InstanceParams{15, 5, 14, 3, 7, 3.5}, InstanceParams{16, 5, 16, 2, 8, 4.0}),
    [](const ::testing::TestParamInfo<InstanceParams>& info) {
      const auto& p = info.param;
      return "seed" + std::to_string(p.seed) + "_T" + std::to_string(p.tracks) +
             "_N" + std::to_string(p.width) + "_M" +
             std::to_string(p.connections);
    });

INSTANTIATE_TEST_SUITE_P(
    WiderSweep, RouterProperties,
    ::testing::Values(
        InstanceParams{21, 6, 16, 3, 8, 3.5}, InstanceParams{22, 6, 20, 2, 9, 4.0},
        InstanceParams{23, 2, 24, 6, 5, 8.0}, InstanceParams{24, 5, 24, 5, 8, 6.0},
        InstanceParams{25, 3, 8, 2, 6, 2.0}, InstanceParams{26, 4, 10, 1, 7, 2.5},
        InstanceParams{27, 5, 18, 4, 9, 3.0}, InstanceParams{28, 6, 12, 2, 10, 2.5},
        InstanceParams{29, 2, 30, 8, 4, 10.0}, InstanceParams{30, 4, 26, 6, 6, 7.0}),
    [](const ::testing::TestParamInfo<InstanceParams>& info) {
      const auto& p = info.param;
      return "seed" + std::to_string(p.seed) + "_T" + std::to_string(p.tracks) +
             "_N" + std::to_string(p.width) + "_M" +
             std::to_string(p.connections);
    });

}  // namespace
}  // namespace segroute::alg
