// Tests for the survivability layer: the partial (maximal-subset)
// router and the deterministic chaos soak (bit-identical across 1/2/8
// threads and distinct across seeds).
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include "alg/partial.h"
#include "alg/registry.h"
#include "core/channel.h"
#include "gen/segmentation.h"
#include "gen/workload.h"
#include "harness/chaos.h"
#include "harness/verify.h"

namespace segroute::harness {
namespace {

using alg::FailureKind;

// A 4-track, width-12 channel with one switch per track and a routable
// 3-connection workload.
struct Fixture {
  SegmentedChannel ch = SegmentedChannel::identical(4, 12, {6});
  ConnectionSet cs;
  Fixture() {
    cs.add(1, 4);
    cs.add(8, 12);
    cs.add(2, 6);
  }
};

// More connections in one column than tracks: 2 of 3 route, 1 cannot.
struct Overloaded {
  SegmentedChannel ch = SegmentedChannel::identical(2, 10, {5});
  ConnectionSet cs;
  Overloaded() {
    cs.add(2, 4);
    cs.add(2, 4);
    cs.add(3, 4);
  }
};

// ------------------------------------------------------------- partial_route

TEST(PartialRoute, CompleteWhenTheInstanceIsRoutable) {
  Fixture f;
  const auto r = alg::partial_route(f.ch, f.cs);
  EXPECT_TRUE(r.success);
  EXPECT_FALSE(r.partial);
  EXPECT_TRUE(r.unrouted.empty());
  const RouteVerifier v(f.ch, f.cs);
  EXPECT_TRUE(v.check(r));
}

TEST(PartialRoute, ReportsTheMaximalSubsetWithPerConnectionKinds) {
  Overloaded f;
  const auto r = alg::partial_route(f.ch, f.cs);
  EXPECT_FALSE(r.success);
  EXPECT_TRUE(r.partial);
  EXPECT_EQ(r.failure, FailureKind::kInfeasible);
  EXPECT_EQ(r.routing.num_assigned(), 2);
  ASSERT_EQ(r.unrouted.size(), 1u);
  EXPECT_EQ(r.unrouted[0].conn, 2);
  EXPECT_EQ(r.unrouted[0].kind, FailureKind::kInfeasible);

  // The subset is independently verifiable.
  const RouteVerifier v(f.ch, f.cs);
  VerifyOptions vo;
  vo.require_complete = false;
  EXPECT_TRUE(v.check(r.routing, vo));

  // Maximality, re-checked from first principles: no unrouted connection
  // fits any track given the final subset's occupancy.
  Occupancy occ(f.ch);
  for (ConnId i = 0; i < f.cs.size(); ++i) {
    if (r.routing.is_assigned(i)) {
      ASSERT_TRUE(occ.place(r.routing.track_of(i), f.cs[i].left, f.cs[i].right,
                            i));
    }
  }
  for (const alg::ConnFailure& u : r.unrouted) {
    for (TrackId t = 0; t < f.ch.num_tracks(); ++t) {
      EXPECT_FALSE(occ.fits(t, f.cs[u.conn].left, f.cs[u.conn].right))
          << "unrouted connection " << u.conn << " fits track " << t;
    }
  }
}

TEST(PartialRoute, BudgetTruncationIsDeterministicAndEnumerated) {
  Fixture f;
  alg::PartialOptions o;
  o.budget = Budget::with_ticks(1);  // one connection considered, then stop
  const auto r = alg::partial_route(f.ch, f.cs, o);
  EXPECT_FALSE(r.success);
  EXPECT_TRUE(r.partial);
  EXPECT_EQ(r.failure, FailureKind::kBudgetExhausted);
  EXPECT_EQ(r.routing.num_assigned(), 1);
  ASSERT_EQ(r.unrouted.size(), 2u);
  EXPECT_EQ(r.unrouted[0].conn, 1);
  EXPECT_EQ(r.unrouted[0].kind, FailureKind::kBudgetExhausted);
  EXPECT_EQ(r.unrouted[1].conn, 2);

  const auto again = alg::partial_route(f.ch, f.cs, o);
  EXPECT_TRUE(again.routing == r.routing);
}

TEST(PartialRoute, RegisteredInTheRouterRegistry) {
  ASSERT_NE(alg::find_router("partial"), nullptr);
  Overloaded f;
  RouteRequest rq;
  rq.channel = &f.ch;
  rq.connections = &f.cs;
  const auto r = alg::route("partial", rq);
  EXPECT_FALSE(r.success);
  EXPECT_TRUE(r.partial);
  EXPECT_EQ(r.routing.num_assigned(), 2);
}

// ------------------------------------------------------------- chaos soak

// The acceptance-criteria soak: >= 200 seeded degrade -> reroute ->
// recover cycles, bit-identical across 1/2/8 threads, rollbacks restoring
// the pre-fault routing exactly (restore_mismatches == 0), every partial
// result verifier-clean with unrouted connections enumerated.
TEST(ChaosSoak, BitIdenticalAcrossThreadCountsAndDistinctAcrossSeeds) {
  std::mt19937_64 rng(21);
  const auto ch = gen::staggered_segmentation(6, 24, 6);
  const auto cs = gen::routable_workload(ch, 10, 5.0, rng);
  ASSERT_GT(cs.size(), 0);

  ChaosOptions o;
  o.seed = 1234;
  o.cycles = 200;

  ChaosReport reports[3];
  const int threads[3] = {1, 2, 8};
  for (int k = 0; k < 3; ++k) {
    ChaosOptions ok = o;
    ok.threads = threads[k];
    reports[k] = run_chaos(ch, cs, ok);
    ASSERT_TRUE(reports[k].ok) << "threads=" << threads[k] << ": "
                               << reports[k].note;
    EXPECT_EQ(reports[k].restore_mismatches, 0);
    EXPECT_EQ(reports[k].verify_failures, 0);
    EXPECT_EQ(static_cast<int>(reports[k].history.size()), o.cycles);
  }
  EXPECT_EQ(reports[0].digest, reports[1].digest);
  EXPECT_EQ(reports[0].digest, reports[2].digest);
  EXPECT_EQ(reports[0].rollbacks, reports[1].rollbacks);
  EXPECT_EQ(reports[0].reroutes, reports[2].reroutes);
  EXPECT_EQ(reports[0].partials, reports[2].partials);

  // The schedule actually exercised every phase of the recovery loop.
  EXPECT_GT(reports[0].storms, 0);
  EXPECT_GT(reports[0].reroutes, 0);
  EXPECT_GT(reports[0].rollbacks, 0);
  EXPECT_GT(reports[0].faults_applied, 0u);

  // A different seed is a different storm schedule.
  ChaosOptions other = o;
  other.seed = 4321;
  const auto alt = run_chaos(ch, cs, other);
  ASSERT_TRUE(alt.ok) << alt.note;
  EXPECT_NE(alt.digest, reports[0].digest);

  // Same seed, fresh run: bit-identical to the first.
  const auto rerun = run_chaos(ch, cs, o);
  EXPECT_EQ(rerun.digest, reports[0].digest);
}

// Edits interleaved with fault storms: the OnlineRouter edit stream
// stays bit-identical to from_scratch() every cycle (edit_mismatches ==
// 0 feeds report.ok), folds into the digest deterministically across
// thread counts, and is carried mostly by the canonical greedy (the
// kRepair path).
TEST(ChaosSoak, EditStreamInterleavesDeterministically) {
  std::mt19937_64 rng(23);
  const auto ch = gen::staggered_segmentation(6, 24, 6);
  const auto cs = gen::routable_workload(ch, 10, 5.0, rng);
  ASSERT_GT(cs.size(), 0);

  ChaosOptions o;
  o.seed = 777;
  o.cycles = 60;
  o.edits_per_cycle = 3;

  ChaosReport reports[3];
  const int threads[3] = {1, 2, 8};
  for (int k = 0; k < 3; ++k) {
    ChaosOptions ok = o;
    ok.threads = threads[k];
    reports[k] = run_chaos(ch, cs, ok);
    ASSERT_TRUE(reports[k].ok) << "threads=" << threads[k] << ": "
                               << reports[k].note;
    EXPECT_EQ(reports[k].edit_mismatches, 0);
    EXPECT_EQ(reports[k].edits, o.cycles * o.edits_per_cycle);
  }
  EXPECT_EQ(reports[0].digest, reports[1].digest);
  EXPECT_EQ(reports[0].digest, reports[2].digest);
  EXPECT_EQ(reports[0].edit_repairs, reports[2].edit_repairs);
  EXPECT_EQ(reports[0].edit_dp_fallbacks, reports[1].edit_dp_fallbacks);

  // The stream did real work, and repair (not full DP) carried it.
  EXPECT_GT(reports[0].edit_repairs, 0);
  EXPECT_GT(reports[0].edit_repairs, reports[0].edit_dp_fallbacks);

  // The edit stream is part of the digest: turning it off (the legacy
  // configuration) yields a different digest over the same storms.
  ChaosOptions off = o;
  off.edits_per_cycle = 0;
  const auto legacy = run_chaos(ch, cs, off);
  ASSERT_TRUE(legacy.ok) << legacy.note;
  EXPECT_NE(legacy.digest, reports[0].digest);
  // ... and the off-configuration reports no edit activity at all (the
  // default digests CI pins are computed on this path).
  EXPECT_EQ(legacy.edits, 0);
  EXPECT_EQ(legacy.edit_repairs, 0);
  EXPECT_EQ(legacy.edits_rejected, 0);
  for (const ChaosCycle& c : legacy.history) {
    EXPECT_EQ(c.edits, 0);
  }
}

// The digests bench_chaos prints, pinned. They fold in the final live
// routing, so a rollback that leaves a degraded routing live changes
// them (seed 4321's last change to the live routing is a rollback); the
// cross-thread and cross-seed checks above cannot see that.
TEST(ChaosSoak, DigestsMatchTheRecordedSchedule) {
  std::mt19937_64 rng(21);
  const auto ch = gen::staggered_segmentation(6, 24, 6);
  const auto cs = gen::routable_workload(ch, 10, 5.0, rng);
  const std::pair<std::uint64_t, std::uint64_t> pinned[] = {
      {1234, 0xf666bd7a5df509b3ull}, {4321, 0xd1ad4cf241c5820dull}};
  for (const auto& [seed, digest] : pinned) {
    ChaosOptions o;
    o.seed = seed;
    const auto rep = run_chaos(ch, cs, o);
    ASSERT_TRUE(rep.ok) << rep.note;
    EXPECT_GT(rep.rollbacks, 0);
    EXPECT_EQ(rep.digest, digest) << "seed " << seed;
  }
}

TEST(ChaosSoak, UnroutableBaselineFailsFastAndStructured) {
  SegmentedChannel ch = SegmentedChannel::unsegmented(1, 10);
  ConnectionSet cs;
  cs.add(1, 5);
  cs.add(3, 8);
  const auto rep = run_chaos(ch, cs, {});
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.note.find("baseline"), std::string::npos);
  EXPECT_TRUE(rep.history.empty());
}

}  // namespace
}  // namespace segroute::harness
