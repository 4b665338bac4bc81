#include "alg/online.h"

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <vector>

#include "alg/dp.h"
#include "gen/segmentation.h"
#include "gen/workload.h"

namespace segroute::alg {
namespace {

SegmentedChannel small_channel() {
  // t0: (1,4)(5,9); t1: (1,6)(7,9)
  return SegmentedChannel({Track(9, {4}), Track(9, {6})});
}

/// Adds [l, r] and returns the new id, or kNoConn when the add failed.
ConnId add(OnlineRouter& r, Column l, Column rt) {
  const RepairOutcome out = r.apply(ChannelEdit::add(l, rt));
  return out.success ? out.id : kNoConn;
}

TEST(OnlineRouter, InsertPlacesAndSnapshotValidates) {
  OnlineRouter r(small_channel());
  const RepairOutcome a = r.apply(ChannelEdit::add(1, 3, "a"));
  const RepairOutcome b = r.apply(ChannelEdit::add(5, 9, "b"));
  ASSERT_TRUE(a.success && b.success);
  EXPECT_EQ(a.id, 0);
  EXPECT_EQ(b.id, 1);
  EXPECT_EQ(r.num_placed(), 2);
  EXPECT_EQ(r.connection(b.id).name, "b");
  const auto [cs, routing] = r.snapshot();
  EXPECT_TRUE(validate(r.channel(), cs, routing));
}

TEST(OnlineRouter, BestFitPrefersTheSnuggerSegment) {
  OnlineRouter r(small_channel(), OnlineRouter::Policy::BestFit);
  const ConnId id = add(r, 1, 3);
  ASSERT_NE(id, kNoConn);
  EXPECT_EQ(r.track_of(id), 0);  // segment (1,4) beats (1,6)
}

TEST(OnlineRouter, FirstFitTakesTheLowestTrack) {
  const auto ch = SegmentedChannel({Track(9, {6}), Track(9, {4})});
  OnlineRouter r(ch, OnlineRouter::Policy::FirstFit);
  const ConnId id = add(r, 1, 3);
  ASSERT_NE(id, kNoConn);
  EXPECT_EQ(r.track_of(id), 0);  // even though track 1 is snugger
}

// An add no routing can hold fails as kInfeasible and rolls back: the
// session afterwards is the session before.
TEST(OnlineRouter, InsertFailsWhenFull) {
  OnlineRouter r(small_channel());
  ASSERT_NE(add(r, 1, 3), kNoConn);  // t0 (1,4)
  ASSERT_NE(add(r, 2, 4), kNoConn);  // t1 (1,6)
  const auto before = r.snapshot();
  const RepairOutcome out = r.apply(ChannelEdit::add(3, 3));
  EXPECT_FALSE(out.success);
  EXPECT_EQ(out.failure, FailureKind::kInfeasible);
  EXPECT_EQ(out.id, kNoConn);
  EXPECT_EQ(r.num_placed(), 2);
  EXPECT_FALSE(r.is_placed(2));
  const auto after = r.snapshot();
  EXPECT_EQ(before.second, after.second);
  ASSERT_EQ(before.first.size(), after.first.size());
  for (ConnId i = 0; i < before.first.size(); ++i) {
    EXPECT_EQ(before.first[i], after.first[i]);
  }
  // The failed add consumed no id.
  EXPECT_EQ(add(r, 5, 9), 2);
}

TEST(OnlineRouter, RemoveFreesCapacity) {
  OnlineRouter r(small_channel());
  const ConnId a = add(r, 1, 3);
  ASSERT_NE(add(r, 2, 4), kNoConn);
  ASSERT_EQ(add(r, 3, 3), kNoConn);
  ASSERT_TRUE(r.apply(ChannelEdit::remove(a)).success);
  EXPECT_EQ(r.num_placed(), 1);
  EXPECT_FALSE(r.is_placed(a));
  EXPECT_NE(add(r, 3, 3), kNoConn);
  // Already removed: rejected as invalid input, nothing changes.
  const RepairOutcome again = r.apply(ChannelEdit::remove(a));
  EXPECT_FALSE(again.success);
  EXPECT_EQ(again.failure, FailureKind::kInvalidInput);
  EXPECT_EQ(r.track_of(a), kNoTrack);
  EXPECT_EQ(r.num_placed(), 2);
}

TEST(OnlineRouter, KSegmentLimitIsEnforced) {
  OnlineRouter r(small_channel(), OnlineRouter::Policy::BestFit,
                 /*max_segments=*/1);
  // (3,7) needs two segments in both tracks.
  const RepairOutcome out = r.apply(ChannelEdit::add(3, 7));
  EXPECT_FALSE(out.success);
  EXPECT_EQ(out.failure, FailureKind::kInfeasible);
  OnlineRouter loose(small_channel(), OnlineRouter::Policy::BestFit, 2);
  EXPECT_NE(add(loose, 3, 7), kNoConn);
}

TEST(OnlineRouter, InsertRejectsBadSpans) {
  OnlineRouter r(small_channel());
  for (const auto& [l, rt] : {std::pair<Column, Column>{0, 3},
                              {3, 2},
                              {3, 99}}) {
    const RepairOutcome out = r.apply(ChannelEdit::add(l, rt));
    EXPECT_FALSE(out.success);
    EXPECT_EQ(out.failure, FailureKind::kInvalidInput);
    EXPECT_EQ(out.path, RepairOutcome::Path::kNone);
  }
  // A negative K is refused up front, in the greedy regime too (an empty
  // session's first add never needs the DP).
  OnlineRouter neg(small_channel(), OnlineRouter::Policy::BestFit, -1);
  const RepairOutcome nk = neg.apply(ChannelEdit::add(1, 3));
  EXPECT_FALSE(nk.success);
  EXPECT_EQ(nk.failure, FailureKind::kInvalidInput);
  EXPECT_EQ(nk.path, RepairOutcome::Path::kNone);
  EXPECT_EQ(neg.num_placed(), 0);
  const ConnId a = add(r, 1, 3);
  ASSERT_NE(a, kNoConn);
  const RepairOutcome mv = r.apply(ChannelEdit::move(a, 5, 10));
  EXPECT_FALSE(mv.success);
  EXPECT_EQ(mv.failure, FailureKind::kInvalidInput);
  EXPECT_EQ(r.connection(a).right, 3);
  EXPECT_EQ(r.apply(ChannelEdit::move(7, 1, 2)).failure,
            FailureKind::kInvalidInput);
  EXPECT_EQ(r.num_placed(), 1);
}

// A removal re-routes the survivors: the one that had to settle for the
// long segment moves back to the snug one it was pushed off.
TEST(OnlineRouter, RerouteTightensAfterRemovals) {
  const auto ch = SegmentedChannel({Track(9, {}), Track(9, {4})});
  OnlineRouter r(ch);
  const ConnId snug = add(r, 1, 3);   // -> t1 (1,4)
  const ConnId moved = add(r, 2, 4);  // t1 blocked -> t0 (1,9)
  ASSERT_NE(snug, kNoConn);
  ASSERT_NE(moved, kNoConn);
  ASSERT_EQ(r.track_of(moved), 0);
  ASSERT_TRUE(r.apply(ChannelEdit::remove(snug)).success);
  EXPECT_EQ(r.track_of(moved), 1);  // better home is now free
}

TEST(OnlineRouter, RandomizedSessionsStayValid) {
  std::mt19937_64 rng(161);
  for (int iter = 0; iter < 20; ++iter) {
    OnlineRouter r(gen::staggered_segmentation(4, 24, 6));
    std::vector<ConnId> placed;
    for (int step = 0; step < 60; ++step) {
      if (!placed.empty() && rng() % 3 == 0) {
        const std::size_t k = rng() % placed.size();
        ASSERT_TRUE(r.apply(ChannelEdit::remove(placed[k])).success);
        placed.erase(placed.begin() + static_cast<std::ptrdiff_t>(k));
      } else {
        const Column l = 1 + static_cast<Column>(rng() % 24);
        const Column len = 1 + static_cast<Column>(rng() % 8);
        const ConnId id = add(r, l, std::min<Column>(24, l + len - 1));
        if (id != kNoConn) placed.push_back(id);
      }
      const auto [cs, routing] = r.snapshot();
      ASSERT_TRUE(validate(r.channel(), cs, routing))
          << "iter " << iter << " step " << step;
      ASSERT_EQ(cs.size(), static_cast<ConnId>(placed.size()));
    }
  }
}

TEST(OnlineRouter, IdsStayStableAcrossRemovalsFuzz) {
  // Long mixed sessions: connection ids must never move or be reused
  // while live, and dead ids must stay dead.
  std::mt19937_64 rng(4099);
  for (int iter = 0; iter < 10; ++iter) {
    OnlineRouter r(gen::staggered_segmentation(4, 24, 6));
    std::map<ConnId, std::pair<Column, Column>> live;  // id -> span
    std::vector<ConnId> dead;
    const auto rand_span = [&]() -> std::pair<Column, Column> {
      const Column l = 1 + static_cast<Column>(rng() % 24);
      const Column len = 1 + static_cast<Column>(rng() % 6);
      return {l, std::min<Column>(24, l + len - 1)};
    };
    const auto pick_live = [&]() -> ConnId {
      auto it = live.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(rng() % live.size()));
      return it->first;
    };
    for (int step = 0; step < 120; ++step) {
      std::uint64_t op = rng() % 3;
      if (live.empty()) op = 0;
      if (op == 0) {
        const auto [l, rt] = rand_span();
        const RepairOutcome out = r.apply(ChannelEdit::add(l, rt));
        if (out.success) {
          ASSERT_EQ(live.count(out.id), 0u) << "live id reused";
          live[out.id] = {l, rt};
        }
      } else if (op == 1) {
        const ConnId id = pick_live();
        ASSERT_TRUE(r.apply(ChannelEdit::remove(id)).success);
        live.erase(id);
        dead.push_back(id);
      } else {
        const auto [l, rt] = rand_span();
        const ConnId id = pick_live();
        const RepairOutcome out = r.apply(ChannelEdit::move(id, l, rt));
        if (out.success) {
          EXPECT_EQ(out.id, id);
          live[id] = {l, rt};
        }
      }
      // Id stability: every live id still carries its recorded span;
      // every dead id is still dead (ids are never recycled).
      for (const auto& [id, span] : live) {
        ASSERT_TRUE(r.is_placed(id)) << "iter " << iter << " step " << step;
        EXPECT_EQ(r.connection(id).left, span.first);
        EXPECT_EQ(r.connection(id).right, span.second);
      }
      for (const ConnId id : dead) {
        EXPECT_FALSE(r.is_placed(id));
        EXPECT_EQ(r.track_of(id), kNoTrack);
      }
      ASSERT_EQ(r.num_placed(), static_cast<int>(live.size()));
    }
  }
}

TEST(OnlineRouter, OnlineNeverBeatsTheBatchOracle) {
  // Adding a workload in order places all of it exactly when the DP
  // routes it: every prefix of a routable set is routable, and apply()
  // falls back to the DP whenever the greedy strands a connection.
  std::mt19937_64 rng(162);
  for (int iter = 0; iter < 30; ++iter) {
    const auto ch = gen::staggered_segmentation(3, 20, 5);
    const auto cs = gen::geometric_workload(6, 20, 4.0, rng);
    OnlineRouter r(ch);
    bool all = true;
    for (const Connection& c : cs.all()) {
      if (add(r, c.left, c.right) == kNoConn) all = false;
    }
    EXPECT_EQ(all, dp_route_unlimited(ch, cs).success) << "iter " << iter;
  }
}

}  // namespace
}  // namespace segroute::alg
