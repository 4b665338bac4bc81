#include "alg/capacity.h"

#include <gtest/gtest.h>

#include <random>

#include "alg/dp.h"
#include "gen/fixtures.h"
#include "gen/segmentation.h"
#include "gen/workload.h"

namespace segroute::alg {
namespace {

TEST(Capacity, MinTracksFindsTheKnownAnswer) {
  // Fig. 2 workload on uniformly cut channels (scheme of Fig. 2(f)):
  // two tracks suffice.
  const auto cs = gen::fixtures::fig2_connections();
  const auto r = min_tracks(cs, [](int t) {
    return SegmentedChannel::identical(t, 9, {3, 6});
  });
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(*r, 2);
}

TEST(Capacity, MinTracksRespectsTheSegmentLimit) {
  const auto cs = gen::fixtures::fig2_connections();
  CapacityOptions k1;
  k1.max_segments = 1;
  // With K = 1 on the uniform grid, c2 = (2,6) spans two segments in
  // every track: unroutable at any track count.
  const auto r = min_tracks(cs, [](int t) {
    return SegmentedChannel::identical(t, 9, {3, 6});
  }, k1);
  EXPECT_FALSE(r.has_value());
}

TEST(Capacity, MinTracksNeverBelowDensity) {
  std::mt19937_64 rng(152);
  for (int iter = 0; iter < 15; ++iter) {
    const auto cs = gen::geometric_workload(8, 24, 5.0, rng);
    const auto r = min_tracks(cs, [](int t) {
      return gen::staggered_segmentation(t, 24, 6);
    });
    ASSERT_TRUE(r.has_value()) << "iter " << iter;
    EXPECT_GE(*r, cs.density());
  }
}

TEST(Capacity, TrackLimitReturnsNullopt) {
  ConnectionSet cs;
  cs.add(1, 2);
  cs.add(1, 2);
  cs.add(1, 2);
  CapacityOptions o;
  o.track_limit = 2;
  EXPECT_FALSE(min_tracks(cs, [](int t) {
    return SegmentedChannel::unsegmented(t, 4);
  }, o).has_value());
}

TEST(Capacity, MinTracksRespectsTrackLimit) {
  // Dense overlapping workload that cannot fit in 3 tracks.
  ConnectionSet cs;
  for (int i = 0; i < 8; ++i) cs.add(1, 24);
  const ChannelFactory make = [](int t) {
    return gen::uniform_segmentation(t, 24, 24);
  };
  CapacityOptions o;
  o.track_limit = 3;
  EXPECT_FALSE(min_tracks(cs, make, o).has_value());
  o.track_limit = 128;
  const auto got = min_tracks(cs, make, o);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 8);
}

TEST(Capacity, MaxRoutablePrefixIsTight) {
  // Channel with one track of two segments: the third connection (same
  // segment as the first) cannot be added.
  const auto ch = SegmentedChannel::identical(1, 9, {4});
  ConnectionSet cs;
  cs.add(1, 3);
  cs.add(5, 9);
  cs.add(4, 4);  // segment (1,4) is taken
  EXPECT_EQ(max_routable_prefix(ch, cs), 2);
  // Whole set routable -> prefix == size.
  ConnectionSet ok;
  ok.add(1, 3);
  ok.add(5, 9);
  EXPECT_EQ(max_routable_prefix(ch, ok), 2);
  EXPECT_EQ(max_routable_prefix(ch, ConnectionSet{}), 0);
}

TEST(Capacity, MaxRoutablePrefixMatchesDirectScan) {
  std::mt19937_64 rng(153);
  for (int iter = 0; iter < 20; ++iter) {
    const auto ch = gen::staggered_segmentation(3, 20, 5);
    const auto cs = gen::geometric_workload(10, 20, 5.0, rng);
    const int fast = max_routable_prefix(ch, cs);
    int slow = 0;
    for (int m = 1; m <= cs.size(); ++m) {
      ConnectionSet sub;
      for (ConnId i = 0; i < m; ++i) sub.add(cs[i].left, cs[i].right);
      if (dp_route_unlimited(ch, sub).success) slow = m;
      else break;  // prefixes are monotone
    }
    EXPECT_EQ(fast, slow) << "iter " << iter;
  }
}

TEST(Capacity, RoutabilityBoundsAndMonotonicity) {
  std::mt19937_64 rng(154);
  const auto draw = [](std::mt19937_64& r) {
    return gen::geometric_workload(8, 24, 5.0, r);
  };
  const auto small = gen::staggered_segmentation(3, 24, 6);
  const auto large = gen::staggered_segmentation(8, 24, 6);
  const double p_small = routability(small, draw, 40, rng);
  std::mt19937_64 rng2(154);
  const double p_large = routability(large, draw, 40, rng2);
  EXPECT_GE(p_small, 0.0);
  EXPECT_LE(p_small, 1.0);
  // Same workload stream, more tracks: routability cannot drop.
  EXPECT_GE(p_large, p_small);
  EXPECT_EQ(routability(small, draw, 0, rng), 0.0);
}

}  // namespace
}  // namespace segroute::alg
