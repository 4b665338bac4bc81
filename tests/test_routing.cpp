#include "core/routing.h"

#include <gtest/gtest.h>

#include "gen/fixtures.h"

namespace segroute {
namespace {

SegmentedChannel two_track_channel() {
  return SegmentedChannel({Track(9, {3, 6}), Track(9, {4})});
}

TEST(Routing, AssignUnassignAndCompleteness) {
  Routing r(3);
  EXPECT_EQ(r.size(), 3);
  EXPECT_FALSE(r.is_complete());
  EXPECT_EQ(r.num_assigned(), 0);
  r.assign(0, 1);
  r.assign(1, 0);
  EXPECT_EQ(r.num_assigned(), 2);
  r.assign(2, 1);
  EXPECT_TRUE(r.is_complete());
  r.unassign(1);
  EXPECT_FALSE(r.is_complete());
  EXPECT_FALSE(r.is_assigned(1));
  EXPECT_EQ(r.track_of(0), 1);
}

TEST(Routing, SegmentsUsedFollowsTrackGeometry) {
  const auto ch = two_track_channel();
  const Connection c{3, 5, ""};
  EXPECT_EQ(segments_used(ch, c, 0), 2);  // (1,3) + (4,6)
  EXPECT_EQ(segments_used(ch, c, 1), 2);  // (1,4) + (5,9)
  const Connection d{1, 3, ""};
  EXPECT_EQ(segments_used(ch, d, 1), 1);
}

TEST(Validate, AcceptsDisjointAssignments) {
  const auto ch = two_track_channel();
  ConnectionSet cs;
  cs.add(1, 3);  // track 0 segment (1,3)
  cs.add(4, 6);  // track 0 segment (4,6)
  Routing r(2);
  r.assign(0, 0);
  r.assign(1, 0);
  EXPECT_TRUE(validate(ch, cs, r));
}

TEST(Validate, RejectsSegmentConflicts) {
  const auto ch = two_track_channel();
  ConnectionSet cs;
  cs.add(1, 2);
  cs.add(3, 3);  // same segment (1,3) of track 0
  Routing r(2);
  r.assign(0, 0);
  r.assign(1, 0);
  const auto v = validate(ch, cs, r);
  EXPECT_FALSE(v);
  EXPECT_NE(v.error.find("conflict"), std::string::npos);
}

TEST(Validate, EnforcesKSegmentLimit) {
  const auto ch = two_track_channel();
  ConnectionSet cs;
  cs.add(2, 8);  // 3 segments in track 0, 2 in track 1
  Routing r(1);
  r.assign(0, 0);
  EXPECT_TRUE(validate(ch, cs, r));
  EXPECT_FALSE(validate(ch, cs, r, 2));
  r.assign(0, 1);
  EXPECT_TRUE(validate(ch, cs, r, 2));
  EXPECT_FALSE(validate(ch, cs, r, 1));
}

TEST(Validate, CompletenessPolicy) {
  const auto ch = two_track_channel();
  ConnectionSet cs;
  cs.add(1, 2);
  Routing r(1);
  EXPECT_FALSE(validate(ch, cs, r));  // incomplete by default
  EXPECT_TRUE(validate(ch, cs, r, std::nullopt, /*require_complete=*/false));
}

TEST(Validate, RejectsSizeMismatchAndBadTracks) {
  const auto ch = two_track_channel();
  ConnectionSet cs;
  cs.add(1, 2);
  EXPECT_FALSE(validate(ch, cs, Routing(2)));
  Routing r(1);
  r.assign(0, 5);
  EXPECT_FALSE(validate(ch, cs, r));
}

TEST(Validate, RejectsConnectionsBeyondChannel) {
  const auto ch = two_track_channel();
  ConnectionSet cs;
  cs.add(1, 12);
  Routing r(1);
  r.assign(0, 0);
  EXPECT_FALSE(validate(ch, cs, r));
}

TEST(Validate, PaperFig3OccupancyStatement) {
  // "Connection c3 would occupy segments s21 and s22 in track 2, or
  // segment s31 in track 3."
  const auto ch = gen::fixtures::fig3_channel();
  const auto cs = gen::fixtures::fig3_connections();
  const Connection& c3 = cs[2];
  EXPECT_EQ(ch.track(1).span(c3.left, c3.right),
            (std::pair<SegId, SegId>{0, 1}));  // s21 + s22
  EXPECT_EQ(ch.track(2).span(c3.left, c3.right),
            (std::pair<SegId, SegId>{0, 0}));  // s31 alone
}

TEST(Occupancy, PlaceFitsRemoveCycle) {
  const auto ch = two_track_channel();
  Occupancy occ(ch);
  EXPECT_TRUE(occ.fits(0, 2, 5));
  EXPECT_TRUE(occ.place(0, 2, 5, 7));
  EXPECT_EQ(occ.occupant(0, 0), 7);
  EXPECT_EQ(occ.occupant(0, 1), 7);
  EXPECT_EQ(occ.occupant(0, 2), kNoConn);
  EXPECT_FALSE(occ.fits(0, 1, 1));    // same first segment
  EXPECT_FALSE(occ.place(0, 6, 8, 9));  // overlaps segment (4,6)
  EXPECT_TRUE(occ.fits(1, 2, 5));     // other track untouched
  occ.remove(0, 2, 5);
  EXPECT_TRUE(occ.fits(0, 1, 1));
}

TEST(Occupancy, PlaceIsAtomicOnConflict) {
  const auto ch = two_track_channel();
  Occupancy occ(ch);
  ASSERT_TRUE(occ.place(0, 7, 9, 1));
  // (4,8) spans segments (4,6) and (7,9); the latter is taken, so nothing
  // may be marked.
  EXPECT_FALSE(occ.place(0, 4, 8, 2));
  EXPECT_EQ(occ.occupant(0, 1), kNoConn);
}

// The one greedy pick: three scores over a hand-built channel, ties to
// the lowest track, and the K-limit filtering tracks out before scoring.
TEST(BestFitTrack, ScoresTiesAndKLimit) {
  // The span [3,5] occupies, per track:
  //   t0 (1,12)                 length 12, 1 segment
  //   t1 (3,4)(5,6)             length 4,  2 segments
  //   t2 (3,6), t3 (3,6)        length 4,  1 segment
  const SegmentedChannel ch({Track(12, {}), Track(12, {2, 4, 6, 8}),
                             Track(12, {2, 6}), Track(12, {2, 6})});
  Occupancy occ(ch);
  const auto pick = [&](int k, FitScore score) {
    return best_fit_track(ch, occ, 3, 5, k, score);
  };
  EXPECT_EQ(pick(0, FitScore::kFirstFit), 0);
  EXPECT_EQ(pick(0, FitScore::kOccupiedLength), 1);   // t1 ties t2, t3
  EXPECT_EQ(pick(0, FitScore::kSegmentsSpanned), 0);  // t0 ties t2, t3
  EXPECT_EQ(pick(1, FitScore::kOccupiedLength), 2);   // t1 needs 2 segments
  EXPECT_EQ(pick(1, FitScore::kFirstFit), 0);

  ASSERT_TRUE(occ.place(0, 10, 10, 0));  // fills t0's only segment
  ASSERT_TRUE(occ.place(2, 4, 4, 1));    // fills t2's (3,6)
  EXPECT_EQ(pick(0, FitScore::kFirstFit), 1);
  EXPECT_EQ(pick(0, FitScore::kOccupiedLength), 1);   // t1 ties t3
  EXPECT_EQ(pick(0, FitScore::kSegmentsSpanned), 3);
  EXPECT_EQ(pick(1, FitScore::kOccupiedLength), 3);

  ASSERT_TRUE(occ.place(3, 3, 3, 2));  // fills t3's (3,6)
  EXPECT_EQ(pick(1, FitScore::kOccupiedLength), kNoTrack);
  EXPECT_EQ(pick(2, FitScore::kSegmentsSpanned), 1);
  ASSERT_TRUE(occ.place(1, 5, 5, 3));  // fills t1's (5,6)
  EXPECT_EQ(pick(0, FitScore::kFirstFit), kNoTrack);
}

}  // namespace
}  // namespace segroute
